// Command perfbench is the repository benchmark: one command that runs
// one workload for a fixed time, checks every output against a
// reference, and prints each metric by name with its unit. The last
// line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics.
//
//	perfbench -daemon PATH --workload sim-sweep --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each was chosen):
//
//	sim-sweep      simulator only: kernels.*.Program + sim.Run over a fixed case list
//	serve-kernels  closed loop of real paper kernels POSTed to loopserved
//	serve-small    open loop of tiny spin jobs from three tenants
//
// With --trace 0 the JSON carries the end-to-end metrics; with
// --trace 1 the run records spans around every call into the system,
// times the layer ladder, and the JSON carries the per-layer metrics.
//
//	perfbench -compare A.json B.json
//
// compares two saved result records and refuses when they were taken
// at different CPU counts.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one reported metric and its unit. The lists below
// are the contract with BENCHMARK.json (TestBenchmarkJSONMatches).
type metricDef struct{ name, unit string }

// endToEnd is reported by every untraced run, on every workload. A
// "job" is one simulated case on sim-sweep and one served request on
// the serve-* workloads.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer is reported by every traced run. A layer the workload never
// enters reads 0 (README.md lists which workload feeds which metric).
var perLayer = []metricDef{
	{"kernels.program_s", "s"},
	{"kernels.serial_ms", "ms"},
	{"sim.run_s", "s"},
	{"sim.ns_per_sync_op", "ns"},
	{"sim.sync_ops", "count"},
	{"sim.cache_accesses", "count"},
	{"sim.steals", "count"},
	{"job.build_us", "us"},
	{"core.engine_ms_p50", "ms"},
	{"core.migrated_share", "fraction"},
	{"core.steals_per_job", "count"},
	{"core.self_us", "us"},
	{"pool.self_us", "us"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p99", "ms"},
	{"serve.self_us", "us"},
	{"serve.admitted_count", "count"},
	{"serve.shed_count", "count"},
	{"http.self_ms_p50", "ms"},
	{"http.self_ms_p99", "ms"},
	{"http.self_us", "us"},
	{"daemon.self_us", "us"},
	{"tracing.overhead_pct", "%"},
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// daemon is the loopserved binary the serve-* workloads boot.
	daemon string
	// out receives span files and result records.
	out string
	// digest is the committed simulator digest sim-sweep checks.
	digest string
	// tiny shrinks every workload to a few small cases (tests).
	tiny bool
}

// rng is the workload's seeded generator: the only source of inputs
// (case order, job mix, arrival times, tc-random graph seeds).
func (c config) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(c.seed*1_000_003 + stream))
}

func (c config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// outcome is one workload run.
type outcome struct {
	attempted, failed int
	// problems lists why the run is not correct beyond counted
	// failures (e.g. a shed share off the token-bucket prediction).
	problems []string
	// values holds every measured metric by name; units come from
	// endToEnd, perLayer and extra.
	values map[string]float64
	spans  *spanLog
}

// extra metrics are printed as text on the workloads they apply to but
// are not part of the JSON line. Most are undefined or 0 on some
// workload, which the JSON contract does not allow. latency_p99_ms is
// defined everywhere but is set by host CPU stalls on a shared 2-CPU
// machine (its spread across seeds exceeded 25%), so the gated tail
// is latency_p90_ms.
var extra = []metricDef{
	{"sim_wall_s", "s"},
	{"error_frac", "fraction"},
	{"shed_frac", "fraction"},
	{"shed_frac_predicted", "fraction"},
	{"gen_late_ms_p99", "ms"},
	{"latency_p99_ms", "ms"},
	{"latency_samples", "count"},
}

func (o *outcome) set(name string, v float64) {
	if o.values == nil {
		o.values = make(map[string]float64)
	}
	o.values[name] = v
}

func (o *outcome) correct() bool { return o.failed == 0 && len(o.problems) == 0 }

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"sim-sweep":     runSimSweep,
	"serve-kernels": runServeKernels,
	"serve-small":   runServeSmall,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var trace int
	var compare, writeDigest bool
	fs.StringVar(&c.workload, "workload", "", "workload to run: sim-sweep, serve-kernels or serve-small")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed")
	fs.Float64Var(&c.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&c.daemon, "daemon", "", "loopserved binary (serve-* workloads)")
	fs.StringVar(&c.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for span files and result records")
	fs.StringVar(&c.digest, "digest", filepath.Join("perfbench", "digest.json"), "committed simulator digest")
	fs.BoolVar(&compare, "compare", false, "compare two result records given as arguments")
	fs.BoolVar(&writeDigest, "write-digest", false, "recompute the simulator digest and write it to -digest")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c.trace = trace == 1
	switch {
	case compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare wants two result files")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	case writeDigest:
		if err := writeDigestFile(c.digest); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	run, ok := workloads[c.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q (want sim-sweep, serve-kernels or serve-small)\n", c.workload)
		return 2
	}
	if c.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be > 0 and -trace 0 or 1")
		return 2
	}
	if err := bench(c, run, stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// bench runs one workload and prints its report. The JSON result line
// is printed only when the run completed; errors print nothing on
// stdout after the header.
func bench(c config, run func(config) (*outcome, error), stdout io.Writer) error {
	h := hostInfo(c)
	fmt.Fprintf(stdout, "# perfbench %s seed=%d seconds=%g trace=%v\n", c.workload, c.seed, c.seconds, c.trace)
	hb, _ := json.Marshal(h)
	fmt.Fprintf(stdout, "host %s\n", hb)
	o, err := run(c)
	if err != nil {
		return err
	}
	if o.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	o.set("error_frac", float64(o.failed)/float64(o.attempted))
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	rec := record{Host: h, Workload: c.workload, Trace: c.trace, Correct: o.correct(),
		Attempted: o.attempted, Failed: o.failed, Problems: o.problems, Metrics: map[string]metricValue{}}
	for _, list := range [][]metricDef{endToEnd, perLayer, extra} {
		for _, d := range list {
			if v, ok := o.values[d.name]; ok {
				fmt.Fprintf(stdout, "%-26s %14.6g %s\n", d.name, v, d.unit)
				rec.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
			}
		}
	}
	for _, p := range o.problems {
		fmt.Fprintln(stdout, "problem:", p)
	}
	line := map[string]any{"correct": o.correct(), "attempted": o.attempted, "failed": o.failed}
	ms := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", c.workload, d.name)
		}
		ms[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	line["metrics"] = ms
	if err := saveOutputs(c, rec, o.spans); err != nil {
		return err
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// saveOutputs writes the result record and, for traced runs, the spans.
func saveOutputs(c config, rec record, spans *spanLog) error {
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d", c.workload, c.seed, btoi(c.trace))
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(c.out, "result-"+name+".json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if spans == nil {
		return nil
	}
	return spans.writeFile(filepath.Join(c.out, "spans-"+name+".jsonl"))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
