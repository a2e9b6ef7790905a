package sim_test

// Integration tests for the unified telemetry layer on the simulator
// substrate: every registered scheduling algorithm, across the
// paper's five kernels, must produce an event stream that passes the
// tracecheck invariants (every iteration executed exactly once per
// step, at most one migration per iteration per step, legal steals),
// and the stream must agree with the engine's aggregate metrics.

import (
	"testing"

	"repro/internal/cli"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// paperKernels builds small instances of the paper's five kernels.
func paperKernels(t *testing.T, m *machine.Machine) map[string]func() sim.Program {
	t.Helper()
	out := make(map[string]func() sim.Program)
	for name, args := range map[string][2]int{
		"sor":     {24, 3}, // n, phases
		"gauss":   {20, 0},
		"tc-skew": {16, 0},
		"adjoint": {8, 0},
		"l4":      {64, 3},
	} {
		build, _, err := cli.BuildKernel(name, args[0], args[1], 1, m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = build
	}
	return out
}

// TestTracecheckAllSchedulersAllKernels is the acceptance gate: the
// invariant verifier passes on traces from every registered scheduler
// across all five kernels.
func TestTracecheckAllSchedulersAllKernels(t *testing.T) {
	m := machine.Iris()
	kernels := paperKernels(t, m)
	for kname, build := range kernels {
		for _, spec := range sched.AllSpecs() {
			stream := telemetry.NewStream()
			res, err := sim.RunOpts(m, 4, spec, build(), sim.Options{Observer: telemetry.EventsOf(stream)})
			if err != nil {
				t.Fatalf("%s/%s: %v", kname, spec.Name, err)
			}
			rep := telemetry.Check(stream.Events())
			if err := rep.Err(); err != nil {
				t.Errorf("%s/%s: %v", kname, spec.Name, err)
			}
			// The stream must agree with the aggregate metrics.
			steals := 0
			for _, e := range stream.Events() {
				if e.Kind == telemetry.KindSteal {
					steals++
				}
			}
			if steals != res.Steals {
				t.Errorf("%s/%s: %d steal events vs %d metric steals",
					kname, spec.Name, steals, res.Steals)
			}
		}
	}
}

// TestSimRegistryTimeSeries: the metrics reader snapshots once per
// step and its cumulative counters match the final metrics.
func TestSimRegistryTimeSeries(t *testing.T) {
	m := machine.Iris()
	build, _, err := cli.BuildKernel("sor", 32, 5, 1, m)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	res, err := sim.RunOpts(m, 4, sched.SpecAFS(), build(), sim.Options{Observer: telemetry.MetricsOf(reg, true)})
	if err != nil {
		t.Fatal(err)
	}
	series := reg.Series()
	if len(series) != res.Steps {
		t.Fatalf("%d samples for %d steps", len(series), res.Steps)
	}
	last := series[len(series)-1].Values
	if got := int(last["steals"]); got != res.Steals {
		t.Errorf("registry steals %d vs metrics %d", got, res.Steals)
	}
	if got := int(last["migrated_iters"]); got != res.MigratedIters {
		t.Errorf("registry migrated_iters %d vs metrics %d", got, res.MigratedIters)
	}
	// Counters are cumulative, so the series must be non-decreasing.
	for _, key := range []string{"steals", "migrated_iters"} {
		prev := -1.0
		for _, s := range series {
			v := s.Values[key]
			if v < prev {
				t.Fatalf("%s series decreased: %v then %v", key, prev, v)
			}
			prev = v
		}
	}
	if reg.Histogram("chunk_size", nil).Count() == 0 {
		t.Error("no chunk sizes observed")
	}
}

// TestSimMetricsReader pins the registry the record reader builds on a
// fixed-seed run: one sample per step, counters equal to the engine's
// metrics, and histogram counts and sums equal to those the engine's
// own registry handles recorded before the reader replaced them.
func TestSimMetricsReader(t *testing.T) {
	type hist struct{ count, sum float64 }
	cases := []struct {
		algo                  string
		chunk, wait, stealLat hist
	}{
		{"afs", hist{2016, 2016}, hist{2016, 538767.441358928}, hist{219, 313571.1376220145}},
		{"gss", hist{924, 2016}, hist{924, 7.418091151711395e+06}, hist{0, 0}},
	}
	m := machine.KSR1()
	build, _, err := cli.BuildKernel("gauss", 64, 0, 1, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		spec, err := sched.ByName(c.algo)
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		res, err := sim.RunOpts(m, 8, spec, build(), sim.Options{Seed: 7, Observer: telemetry.MetricsOf(reg, true)})
		if err != nil {
			t.Fatal(err)
		}
		series := reg.Series()
		if len(series) != res.Steps {
			t.Fatalf("%s: %d samples for %d steps", c.algo, len(series), res.Steps)
		}
		for i, s := range series {
			if s.Step != i {
				t.Fatalf("%s: sample %d labelled step %d", c.algo, i, s.Step)
			}
		}
		last := series[len(series)-1].Values
		for key, want := range map[string]int{
			"steals": res.Steals, "migrated_iters": res.MigratedIters,
			"central_ops": res.CentralOps, "remote_ops": sumInts(res.RemoteOps),
		} {
			if got := int(last[key]); got != want {
				t.Errorf("%s: %s = %d, metrics say %d", c.algo, key, got, want)
			}
		}
		for name, want := range map[string]hist{
			"chunk_size": c.chunk, "queue_wait_cycles_hist": c.wait, "steal_latency_cycles": c.stealLat,
		} {
			if got := (hist{last[name+"_count"], last[name+"_sum"]}); got != want {
				t.Errorf("%s: %s count/sum = %v, pinned %v", c.algo, name, got, want)
			}
		}
	}
}

// TestPhaseAndQueueWaitEvents: the stream carries phase boundaries for
// every step and queue waits under a contended central queue.
func TestPhaseAndQueueWaitEvents(t *testing.T) {
	m := machine.Symmetry()
	build, _, err := cli.BuildKernel("sor", 32, 4, 1, m)
	if err != nil {
		t.Fatal(err)
	}
	stream := telemetry.NewStream()
	res, err := sim.RunOpts(m, 8, sched.SpecSS(), build(), sim.Options{Observer: telemetry.EventsOf(stream)})
	if err != nil {
		t.Fatal(err)
	}
	var begins, ends, waits int
	for _, e := range stream.Events() {
		switch e.Kind {
		case telemetry.KindPhaseBegin:
			begins++
		case telemetry.KindPhaseEnd:
			ends++
		case telemetry.KindQueueWait:
			waits++
			if e.End <= e.Start {
				t.Fatalf("queue-wait with no duration: %+v", e)
			}
		}
	}
	if begins != res.Steps || ends != res.Steps {
		t.Errorf("phase events %d/%d for %d steps", begins, ends, res.Steps)
	}
	if waits == 0 {
		t.Error("pure self-scheduling on 8 procs produced no queue waits")
	}
}

// TestCacheFlushEvents: the time-sharing flush model emits cache-flush
// markers.
func TestCacheFlushEvents(t *testing.T) {
	m := machine.Iris()
	build, _, err := cli.BuildKernel("sor", 24, 6, 1, m)
	if err != nil {
		t.Fatal(err)
	}
	stream := telemetry.NewStream()
	if _, err := sim.RunOpts(m, 4, sched.SpecAFS(), build(), sim.Options{Observer: telemetry.EventsOf(stream), FlushEverySteps: 2}); err != nil {
		t.Fatal(err)
	}
	flushes := 0
	for _, e := range stream.Events() {
		if e.Kind == telemetry.KindCacheFlush {
			flushes++
		}
	}
	if flushes != 2 { // steps 2 and 4 of 6
		t.Errorf("flush events = %d, want 2", flushes)
	}
}

func sumInts(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
