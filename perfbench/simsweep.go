package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// simCase is one simulator run of the sweep: a kernel model built with
// Program(m) and executed by sim.Run.
type simCase struct {
	name  string
	m     *machine.Machine
	procs int
	spec  sched.Spec
	build func(m *machine.Machine) sim.Program
}

// simCases is the sweep: transitive closure on a 40% clique graph on
// the KSR-1 (fig16), Gaussian elimination on the KSR-1 (fig15) and SOR
// on the Iris (fig3), each under AFS, GSS and FACTORING at two
// processor counts. The TC build runs an O(n³) Warshall pass, so a
// kernels change shows on the TC cases; a sim change shows on all.
func simCases(tiny bool) []simCase {
	tcN, gaussN, sorN, sorSweeps := 512, 256, 512, 10
	ksrProcs, irisProcs := []int{4, 16}, []int{2, 8}
	specs := []sched.Spec{sched.SpecAFS(), sched.SpecGSS(), sched.SpecFactoring()}
	prefix := ""
	if tiny {
		tcN, gaussN, sorN, sorSweeps = 48, 48, 48, 4
		ksrProcs, irisProcs = []int{2, 4}, []int{2, 4}
		specs = specs[:2]
		prefix = "tiny/"
	}
	graph := workload.CliqueGraph(tcN, tcN*2/5)
	kinds := []struct {
		label string
		m     *machine.Machine
		procs []int
		build func(m *machine.Machine) sim.Program
	}{
		{fmt.Sprintf("tc-clique40-n%d", tcN), machine.KSR1(), ksrProcs,
			func(m *machine.Machine) sim.Program { return kernels.TClosure{Input: graph}.Program(m) }},
		{fmt.Sprintf("gauss-n%d", gaussN), machine.KSR1(), ksrProcs,
			func(m *machine.Machine) sim.Program { return kernels.Gauss{N: gaussN}.Program(m) }},
		{fmt.Sprintf("sor-n%dx%d", sorN, sorSweeps), machine.Iris(), irisProcs,
			func(m *machine.Machine) sim.Program { return kernels.SOR{N: sorN, Phases: sorSweeps}.Program(m) }},
	}
	var out []simCase
	for _, k := range kinds {
		for _, p := range k.procs {
			for _, sp := range specs {
				out = append(out, simCase{
					name: fmt.Sprintf("%s%s/%s/%s/p%d", prefix, k.label, k.m.Name, sp.Name, p),
					m:    k.m, procs: p, spec: sp, build: k.build,
				})
			}
		}
	}
	return out
}

// simDigest is the part of a simulated schedule that must stay
// bit-identical under any speed-only change.
type simDigest struct {
	Cycles  float64 `json:"cycles"`
	SyncOps int     `json:"sync_ops"`
	Hits    int     `json:"hits"`
	Misses  int     `json:"misses"`
	Steals  int     `json:"steals"`
}

func digestOf(m sim.Metrics) simDigest {
	return simDigest{Cycles: m.Cycles, SyncOps: m.TotalSyncOps(), Hits: m.Hits, Misses: m.Misses, Steals: m.Steals}
}

func loadDigest(path string) (map[string]simDigest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading simulator digest: %w", err)
	}
	var d map[string]simDigest
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("parsing simulator digest %s: %w", path, err)
	}
	return d, nil
}

// writeDigestFile recomputes the digest of the full and tiny case
// lists. Run it only when a change is meant to alter simulated
// schedules, and say so in the change.
func writeDigestFile(path string) error {
	d := make(map[string]simDigest)
	for _, tiny := range []bool{false, true} {
		for _, sc := range simCases(tiny) {
			m, err := sim.Run(sc.m, sc.procs, sc.spec, sc.build(sc.m))
			if err != nil {
				return fmt.Errorf("%s: %w", sc.name, err)
			}
			d[sc.name] = digestOf(m)
		}
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// simEnv is a set-up sweep, ready to measure.
type simEnv struct {
	cases  []simCase
	digest map[string]simDigest
}

func setupSim(c config) (*simEnv, error) {
	digest, err := loadDigest(c.digest)
	if err != nil {
		return nil, err
	}
	env := &simEnv{cases: simCases(c.tiny), digest: digest}
	// Warm-up: one untimed run of every case, so heap growth and page
	// faults of the first pass stay out of the measurement.
	for _, sc := range env.cases {
		if _, err := sim.Run(sc.m, sc.procs, sc.spec, sc.build(sc.m)); err != nil {
			return nil, fmt.Errorf("%s: %w", sc.name, err)
		}
	}
	return env, nil
}

// simPass accumulates one pass over the case list.
type simPass struct {
	traced, complete          bool
	wall, program, run        float64 // seconds
	syncOps, accesses, steals int
}

func runSimSweep(c config) (*outcome, error) {
	var env *simEnv
	setup, err := timedMedian(setupReps, func() error {
		var err error
		env, err = setupSim(c)
		return err
	})
	if err != nil {
		return nil, err
	}
	o := env.measure(c)
	o.set("setup_s", setup)
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	o.set("peak_rss_mb", rss)
	return o, nil
}

// measure runs seeded permutations of the case list until the
// deadline, checking every schedule against the digest. Traced runs
// record spans on every other pass; the untraced passes give the
// tracing overhead.
func (env *simEnv) measure(c config) *outcome {
	o := &outcome{}
	var spans *spanLog
	if c.trace {
		spans = newSpanLog()
		o.spans = spans
	}
	rng := c.rng(1)
	var lat []float64
	var passes []simPass
	start := time.Now()
	deadline := start.Add(c.duration())
	for done := false; !done; {
		pass := simPass{traced: c.trace && len(passes)%2 == 0, complete: true}
		var rec *spanLog
		if pass.traced {
			rec = spans
		}
		pt := time.Now()
		for _, idx := range rng.Perm(len(env.cases)) {
			if time.Now().After(deadline) {
				pass.complete, done = false, true
				break
			}
			sc := env.cases[idx]
			root := rec.reserve()
			trace := uint64(len(passes)+1)<<32 | uint64(idx)
			t0 := time.Now()
			prog := sc.build(sc.m)
			t1 := time.Now()
			m, err := sim.Run(sc.m, sc.procs, sc.spec, prog)
			t2 := time.Now()
			rec.add(trace, root, "kernels.Program", t0, t1)
			rec.add(trace, root, "sim.Run", t1, t2)
			rec.addID(root, trace, 0, "case "+sc.name, t0, t2)
			o.attempted++
			if err != nil {
				o.failed++
				o.problems = append(o.problems, fmt.Sprintf("%s: %v", sc.name, err))
				continue
			}
			if want, ok := env.digest[sc.name]; !ok || digestOf(m) != want {
				o.failed++
				if len(o.problems) < 8 {
					o.problems = append(o.problems, fmt.Sprintf("%s: schedule %+v differs from digest %+v", sc.name, digestOf(m), want))
				}
			}
			lat = append(lat, t2.Sub(t0).Seconds())
			pass.program += t1.Sub(t0).Seconds()
			pass.run += t2.Sub(t1).Seconds()
			pass.syncOps += m.TotalSyncOps()
			pass.accesses += m.Hits + m.Misses
			pass.steals += m.Steals
		}
		pass.wall = time.Since(pt).Seconds()
		passes = append(passes, pass)
	}

	o.set("latency_p50_ms", 1e3*median(lat))
	o.set("latency_p90_ms", 1e3*windowedQuantile(lat, 0.9))
	o.set("latency_p99_ms", 1e3*windowedQuantile(lat, 0.99))
	o.set("latency_samples", float64(len(lat)))
	var walls, tracedWalls, plainWalls, program, run []float64
	var ops, opsNS float64
	var last simPass
	for _, p := range passes {
		if !p.complete {
			continue
		}
		walls = append(walls, p.wall)
		if !p.traced {
			plainWalls = append(plainWalls, p.wall)
			continue
		}
		tracedWalls = append(tracedWalls, p.wall)
		program = append(program, p.program)
		run = append(run, p.run)
		ops += float64(p.syncOps)
		opsNS += p.run * 1e9
		last = p
	}
	// Cases per second of a median pass: a transient host stall moves
	// one pass, not the figure.
	if len(walls) > 0 {
		o.set("sim_wall_s", median(walls))
		o.set("jobs_per_s", float64(len(env.cases))/median(walls))
	} else {
		o.set("jobs_per_s", float64(len(lat))/time.Since(start).Seconds())
	}
	if c.trace {
		o.set("kernels.program_s", median(program))
		o.set("sim.run_s", median(run))
		o.set("sim.ns_per_sync_op", safeDiv(opsNS, ops))
		// Counts are exact and identical on every complete pass.
		o.set("sim.sync_ops", float64(last.syncOps))
		o.set("sim.cache_accesses", float64(last.accesses))
		o.set("sim.steals", float64(last.steals))
		o.set("tracing.overhead_pct", overheadPct(tracedWalls, plainWalls))
		for _, name := range perLayer {
			if _, ok := o.values[name.name]; !ok {
				o.set(name.name, 0) // the serving layers: not entered
			}
		}
	}
	return o
}
