// Command realbench sweeps worker counts on the REAL goroutine runtime
// for one of the paper's kernels and prints completion time, speedup
// and scheduling activity per algorithm — the live-hardware counterpart
// of cmd/paperfigs' simulations. On a multicore host the speedup
// columns show each scheduler's scaling; the sync-op columns always
// reflect the real protocol behaviour. The kernels are the served
// registry (internal/job, loopserved's /kernels), and each run executes
// one instance as one phased loop.
//
//	realbench -kernel gauss -n 512 -workers 1,2,4,8
//	realbench -kernel adjoint -n 64 -algos gss,factoring,afs
//	realbench -kernel gauss -json                      # machine-readable tables
//	realbench -kernel gauss -trace-out trace.json      # Chrome/Perfetto trace
//	realbench -kernel sor -metrics-out series.csv -check
//	realbench -kernel gauss -pprof :6060               # live pprof + expvar
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/job"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/webui"
)

func main() {
	var (
		kernelName = flag.String("kernel", "gauss", "kernel: "+strings.Join(job.Names(), ", "))
		n          = flag.Int("n", 384, "problem size")
		phases     = flag.Int("phases", 16, "sweeps (sor, spin*) / outer iterations (l4)")
		workers    = flag.String("workers", defaultWorkers(), "comma-separated worker counts")
		algosFlag  = flag.String("algos", "static,ss,gss,factoring,trapezoid,afs,mod-factoring", "algorithms")
		repeats    = flag.Int("repeats", 3, "runs per cell (median reported)")
		jsonOut    = flag.Bool("json", false, "emit the tables as machine-readable JSON instead of text")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event file of one instrumented run")
		metricsOut = flag.String("metrics-out", "", "write the per-phase metrics time series as CSV")
		check      = flag.Bool("check", false, "verify the event stream against the paper's invariants")
		traceAlgo  = flag.String("trace-algo", "afs", "algorithm for the instrumented -trace-out/-metrics-out/-check run")
		pprofAddr  = flag.String("pprof", "", "serve /debug/pprof and /debug/vars on this address (e.g. :6060) during the sweep")
	)
	// Flag-parse errors must exit non-zero like every other error path:
	// flag's ExitOnError already exits 2, but a custom Usage keeps the
	// message on stderr and the behaviour explicit.
	flag.CommandLine.SetOutput(os.Stderr)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments: %v", flag.Args()))
	}
	// Validation errors name the offending flag (shared with perflab
	// and loopdoctor via internal/cli): an unknown algorithm or a bad
	// worker count must exit non-zero with a pointer to the flag,
	// never fall through to an empty or degenerate sweep.
	if err := validateArgs(*n, *phases, *repeats); err != nil {
		fatal(err)
	}
	counts, err := cli.ProcsFlag("-workers", *workers)
	if err != nil {
		fatal(err)
	}
	specs, err := cli.AlgosFlag("-algos", *algosFlag)
	if err != nil {
		fatal(err)
	}
	kspec, desc, err := kernelSpec(*kernelName, *n, *phases)
	if err != nil {
		fatal(err)
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, webui.DebugHandler()); err != nil {
				fmt.Fprintln(os.Stderr, "realbench: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "serving /debug/pprof and /debug/vars on %s\n", *pprofAddr)
	}

	if !*jsonOut {
		fmt.Printf("%s — real goroutine runtime on %d host CPUs\n\n", desc, runtime.NumCPU())
	}
	cols := []string{"workers"}
	for _, s := range specs {
		cols = append(cols, s.Name)
	}
	timeTab := stats.NewTable("median wall time", cols...)
	opsTab := stats.NewTable("total sync ops (single run)", cols...)
	for _, w := range counts {
		trow := []string{strconv.Itoa(w)}
		orow := []string{strconv.Itoa(w)}
		for _, spec := range specs {
			var times []time.Duration
			var ops int64
			for r := 0; r < *repeats; r++ {
				st, err := runKernel(kspec, w, spec.Name)
				if err != nil {
					fatal(err)
				}
				times = append(times, st.Elapsed)
				ops = st.TotalSyncOps()
			}
			trow = append(trow, median(times).Round(10*time.Microsecond).String())
			orow = append(orow, strconv.FormatInt(ops, 10))
		}
		timeTab.AddRow(trow...)
		opsTab.AddRow(orow...)
	}
	if *jsonOut {
		if err := stats.WriteTablesJSON(os.Stdout, timeTab, opsTab); err != nil {
			fatal(err)
		}
	} else {
		timeTab.Render(os.Stdout)
		fmt.Println()
		opsTab.Render(os.Stdout)
	}

	if *traceOut != "" || *metricsOut != "" || *check {
		if err := instrumentedRun(kspec, counts[len(counts)-1], *traceAlgo, desc, *traceOut, *metricsOut, *check); err != nil {
			fatal(err)
		}
	}
}

// kernelSpec resolves name against the served kernel registry before
// the sweep and builds one instance so the header can name the phase
// count.
func kernelSpec(name string, n, phases int) (job.Spec, string, error) {
	k, err := job.Lookup(name)
	if err != nil {
		return job.Spec{}, "", fmt.Errorf("-kernel: %w", err)
	}
	spec := job.Spec{Kernel: name, Params: job.Params{N: n, Phases: phases}}
	r, err := job.Build(spec)
	if err != nil {
		return job.Spec{}, "", err
	}
	return spec, fmt.Sprintf("%s: %s, n=%d, %d phases", name, k.Description, n, r.Phases), nil
}

// runKernel builds a fresh instance of the kernel and runs it as one
// phased loop; the instance's N performs the serial step between
// phases, as it does under loopserved.
func runKernel(spec job.Spec, workers int, algo string, opts ...repro.Option) (repro.RunStats, error) {
	r, err := job.Build(spec)
	if err != nil {
		return repro.RunStats{}, err
	}
	return repro.ForPhases(r.Phases, r.N, r.Body,
		append(opts, repro.WithScheduler(algo), repro.WithProcs(workers))...)
}

// instrumentedRun executes one extra run (at the sweep's largest worker
// count) with full telemetry, then exports and/or verifies the stream.
func instrumentedRun(spec job.Spec, workers int, algo, desc, traceOut, metricsOut string, check bool) error {
	stream := telemetry.NewSyncStream()
	reg := telemetry.NewRegistry()
	expvar.Publish("telemetry_events", expvar.Func(func() any { return stream.Len() }))
	if _, err := runKernel(spec, workers, algo, repro.WithEvents(stream), repro.WithMetrics(reg)); err != nil {
		return err
	}
	return cli.ExportTelemetry(os.Stderr, stream.Events(), reg, telemetry.ChromeOptions{
		Label:     fmt.Sprintf("%s, %s, %d workers (real runtime)", desc, algo, workers),
		Procs:     workers,
		TimeScale: 1e-3, // ns → µs
	}, traceOut, metricsOut, check)
}

// validateArgs rejects degenerate sweep parameters up front — with
// -repeats 0 the median of zero samples would panic, and a
// non-positive problem size yields a meaningless zero-row sweep.
func validateArgs(n, phases, repeats int) error {
	return cli.FirstError(
		cli.PositiveInt("-repeats", repeats),
		cli.PositiveInt("-n", n),
		cli.PositiveInt("-phases", phases),
	)
}

func median(d []time.Duration) time.Duration {
	for i := 1; i < len(d); i++ {
		for j := i; j > 0 && d[j] < d[j-1]; j-- {
			d[j], d[j-1] = d[j-1], d[j]
		}
	}
	return d[len(d)/2]
}

func defaultWorkers() string {
	max := runtime.NumCPU()
	s := "1"
	for w := 2; w <= max; w *= 2 {
		s += "," + strconv.Itoa(w)
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "realbench:", err)
	os.Exit(1)
}
