// Command realbench sweeps worker counts on the REAL goroutine runtime
// for one of the paper's kernels and prints completion time, speedup
// and scheduling activity per algorithm — the live-hardware counterpart
// of cmd/paperfigs' simulations. On a multicore host the speedup
// columns show each scheduler's scaling; the sync-op columns always
// reflect the real protocol behaviour.
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
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/webui"
	"repro/internal/workload"
)

func main() {
	var (
		kernelName = flag.String("kernel", "gauss", "kernel: sor, gauss, tc-skew, adjoint, adjoint-rev, l4, step")
		n          = flag.Int("n", 384, "problem size")
		phases     = flag.Int("phases", 16, "sweeps (sor) / outer iterations (l4)")
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
	run, desc, err := realKernel(*kernelName, *n, *phases)
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
				st, err := run(w, spec.Name, nil)
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
		if err := instrumentedRun(run, counts, *traceAlgo, desc, *traceOut, *metricsOut, *check); err != nil {
			fatal(err)
		}
	}
}

// telemetryOpts carries the observability hooks into one run. Kernels
// that issue one ParallelFor per sweep advance the step/time base
// between calls so the combined stream reads as one phased execution.
type telemetryOpts struct {
	stream  *telemetry.SyncStream
	reg     *telemetry.Registry
	stepOff int
	timeOff float64
}

// advance shifts the stream's base after one single-phase run.
func (topt *telemetryOpts) advance(phases int, elapsed time.Duration) {
	if topt == nil {
		return
	}
	topt.stepOff += phases
	topt.timeOff += float64(elapsed)
}

// instrumentedRun executes one extra run at the largest worker count
// with full telemetry, then exports and/or verifies the stream.
func instrumentedRun(run runFunc, counts []int, algo, desc, traceOut, metricsOut string, check bool) error {
	w := counts[len(counts)-1]
	topt := &telemetryOpts{stream: telemetry.NewSyncStream(), reg: telemetry.NewRegistry()}
	expvar.Publish("telemetry_events", expvar.Func(func() any { return topt.stream.Len() }))
	if _, err := run(w, algo, topt); err != nil {
		return err
	}
	events := topt.stream.Events()
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		err = telemetry.WriteChromeTrace(f, events, telemetry.ChromeOptions{
			Label:     fmt.Sprintf("%s, %s, %d workers (real runtime)", desc, algo, w),
			Procs:     w,
			TimeScale: 1e-3, // ns → µs
		})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote Chrome trace (%d events) to %s\n", len(events), traceOut)
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		err = telemetry.WriteSeriesCSV(f, topt.reg)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote metrics time series to %s\n", metricsOut)
	}
	if check {
		rep := telemetry.Check(events)
		if err := rep.Err(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "tracecheck: OK (%d events, %d phases, %s on %d workers)\n",
			rep.Events, rep.Steps, algo, w)
	}
	return nil
}

type runFunc func(workers int, algo string, topt *telemetryOpts) (repro.RunStats, error)

// telemetryOptions expands the optional hooks into repro options,
// rebasing the sink onto the accumulated step/time offset.
func telemetryOptions(topt *telemetryOpts) []repro.Option {
	if topt == nil {
		return nil
	}
	var sink telemetry.Sink = topt.stream
	if topt.stepOff != 0 || topt.timeOff != 0 {
		sink = &telemetry.Rebase{Sink: topt.stream, StepOffset: topt.stepOff, TimeOffset: topt.timeOff}
	}
	return []repro.Option{repro.WithEvents(sink), repro.WithMetrics(topt.reg)}
}

// realKernel returns a runner executing the kernel's real form under a
// given worker count and scheduler name.
func realKernel(name string, n, phases int) (runFunc, string, error) {
	switch name {
	case "sor":
		return func(w int, algo string, topt *telemetryOpts) (repro.RunStats, error) {
			g := kernels.NewSORGrid(n)
			var total repro.RunStats
			for ph := 0; ph < phases; ph++ {
				st, err := repro.ParallelFor(n, func(j int) { g.UpdateRow(j) },
					append(telemetryOptions(topt),
						repro.WithScheduler(algo), repro.WithProcs(w))...)
				if err != nil {
					return total, err
				}
				total = accumulate(total, st)
				topt.advance(1, st.Elapsed)
				g.Swap()
			}
			return total, nil
		}, fmt.Sprintf("SOR %d×%d, %d sweeps", n, n, phases), nil
	case "gauss":
		return func(w int, algo string, topt *telemetryOpts) (repro.RunStats, error) {
			g := kernels.NewGaussMatrix(n)
			return repro.ForPhases(n-1, g.PhaseIterations,
				func(ph, i int) { g.EliminateRow(ph, i) },
				append(telemetryOptions(topt),
					repro.WithScheduler(algo), repro.WithProcs(w))...)
		}, fmt.Sprintf("Gaussian elimination %d×%d", n, n), nil
	case "tc-skew":
		g := workload.CliqueGraph(n, n/2)
		return func(w int, algo string, topt *telemetryOpts) (repro.RunStats, error) {
			tc := kernels.NewTCGraph(g)
			var total repro.RunStats
			for ph := 0; ph < g.N; ph++ {
				tc.BeginPhase(ph)
				st, err := repro.ParallelFor(g.N, func(j int) { tc.UpdateRow(ph, j) },
					append(telemetryOptions(topt),
						repro.WithScheduler(algo), repro.WithProcs(w))...)
				if err != nil {
					return total, err
				}
				total = accumulate(total, st)
				topt.advance(1, st.Elapsed)
			}
			return total, nil
		}, fmt.Sprintf("transitive closure, %d nodes with %d-clique", n, n/2), nil
	case "adjoint":
		return func(w int, algo string, topt *telemetryOpts) (repro.RunStats, error) {
			d := kernels.NewAdjointData(n, false)
			return repro.ParallelFor(d.Iterations(), d.Body,
				append(telemetryOptions(topt),
					repro.WithScheduler(algo), repro.WithProcs(w))...)
		}, fmt.Sprintf("adjoint convolution N=%d (%d iterations)", n, n*n), nil
	case "adjoint-rev":
		return func(w int, algo string, topt *telemetryOpts) (repro.RunStats, error) {
			d := kernels.NewAdjointData(n, true)
			return repro.ParallelFor(d.Iterations(), d.Body,
				append(telemetryOptions(topt),
					repro.WithScheduler(algo), repro.WithProcs(w))...)
		}, fmt.Sprintf("adjoint convolution (reversed) N=%d", n), nil
	case "l4":
		return func(w int, algo string, topt *telemetryOpts) (repro.RunStats, error) {
			r := kernels.NewL4Real(phases, 1, 20)
			var total repro.RunStats
			for s := 0; s < r.Loops(); s++ {
				st, err := repro.ParallelFor(r.LoopN(s), func(i int) { r.Body(s, i) },
					append(telemetryOptions(topt),
						repro.WithScheduler(algo), repro.WithProcs(w))...)
				if err != nil {
					return total, err
				}
				total = accumulate(total, st)
				topt.advance(1, st.Elapsed)
			}
			return total, nil
		}, fmt.Sprintf("L4, %d outer iterations", phases), nil
	case "step":
		cost := workload.Step(n, 0.1, 100, 1)
		return func(w int, algo string, topt *telemetryOpts) (repro.RunStats, error) {
			return repro.ParallelFor(n, func(i int) { kernels.Spin(int(cost(i)) * 20) },
				append(telemetryOptions(topt),
					repro.WithScheduler(algo), repro.WithProcs(w))...)
		}, fmt.Sprintf("step workload N=%d", n), nil
	}
	return nil, "", fmt.Errorf("unknown kernel %q for the real runtime", name)
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

// accumulate folds one run's stats into the total, value-in/value-out:
// both sides are private snapshots, so the counter arithmetic stays
// off the atomic fields' shared instances.
func accumulate(total, st repro.RunStats) repro.RunStats {
	total.Elapsed += st.Elapsed
	total.CentralOps += st.CentralOps
	total.Steals += st.Steals
	total.MigratedIters += st.MigratedIters
	total.Iterations += st.Iterations
	for i := range st.LocalOps {
		total.CentralOps += st.LocalOps[i] + st.RemoteOps[i]
	}
	return total
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
