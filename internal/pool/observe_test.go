package pool

import (
	"context"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/livemetrics"
	"repro/internal/sched"
	"repro/internal/spantrace"
	"repro/internal/telemetry"
)

// chunkKey is the fact every reader must agree on for one executed
// chunk: where it ran, what it covered, and when.
type chunkKey struct {
	step, proc, lo, hi int
	start, end         float64
}

func sortChunks(cs []chunkKey) []chunkKey {
	sort.Slice(cs, func(i, j int) bool {
		a, b := cs[i], cs[j]
		if a.step != b.step {
			return a.step < b.step
		}
		if a.proc != b.proc {
			return a.proc < b.proc
		}
		return a.lo < b.lo
	})
	return cs
}

// TestReadersAgree runs one steal-heavy AFS submission with all four
// readers attached — an event stream, a provenance stream, a live
// plane and a tracer — and checks that they report the same facts,
// one to one: each reads the one record per chunk the engine emits.
func TestReadersAgree(t *testing.T) {
	const procs, phases, n = 4, 3, 512
	x := newExec(t, procs)
	plane := livemetrics.New(livemetrics.Options{})
	defer plane.Close()
	x.SetObservability(plane)
	tracer := spantrace.NewTracer(spantrace.Options{})
	x.SetTracer(tracer)

	events := telemetry.NewSyncStream()
	prov := telemetry.NewSyncProvStream()
	cfg := core.Config{
		Spec:     sched.SpecAFS(),
		Observer: telemetry.Observers(telemetry.EventsOf(events), telemetry.ProvOf(prov)),
		// Late workers leave their queues to thieves in phase 0; the
		// heavy last quarter keeps worker 3 behind in every phase.
		StartDelay: []time.Duration{0, 2 * time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond},
	}
	data := make([]float64, n)
	st, err := x.SubmitPhases(context.Background(), cfg, phases,
		func(int) int { return n },
		func(ph, i int) {
			work := 50
			if i >= 3*n/4 {
				work = 5000
			}
			for k := 0; k < work; k++ {
				data[i] += float64(k ^ i)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if st.Steals == 0 {
		t.Fatal("no steals: the body is not steal-heavy enough to exercise the steal path")
	}

	var evChunks []chunkKey
	var steals, migrated int64
	for _, e := range events.Events() {
		switch e.Kind {
		case telemetry.KindExec:
			evChunks = append(evChunks, chunkKey{e.Step, e.Proc, e.Lo, e.Hi, e.Start, e.End})
		case telemetry.KindSteal:
			steals++
			migrated += int64(e.Hi - e.Lo)
		}
	}
	var pvChunks []chunkKey
	for _, p := range prov.Records() {
		pvChunks = append(pvChunks, chunkKey{p.Step, p.Proc, p.Lo, p.Hi, p.Start, p.End})
	}
	traces := tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("tracer holds %d traces, want 1", len(traces))
	}
	var spChunks []chunkKey
	for _, s := range traces[0].Spans {
		if s.Kind == spantrace.KindChunk {
			spChunks = append(spChunks, chunkKey{s.Phase, s.Proc, s.Lo, s.Hi, s.Start, s.End})
		}
	}
	dump := plane.Recorder().Dump("test")
	var flChunks []chunkKey
	for _, e := range dump.Events {
		if e.Kind == telemetry.KindExec {
			flChunks = append(flChunks, chunkKey{e.Step, e.Proc, e.Lo, e.Hi, e.Start, e.End})
		}
	}

	want := sortChunks(evChunks)
	for name, got := range map[string][]chunkKey{
		"provenance": sortChunks(pvChunks),
		"span":       sortChunks(spChunks),
		"flight":     sortChunks(flChunks),
	} {
		if len(got) != len(want) {
			t.Fatalf("%s stream has %d chunks, event stream %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s chunk %d = %+v, event stream says %+v", name, i, got[i], want[i])
			}
		}
	}

	c := plane.Snapshot().Counters
	if c.Chunks != int64(len(want)) || c.Steals != steals || c.MigratedIters != migrated {
		t.Fatalf("collector counts chunks=%d steals=%d migrated=%d, stream has %d/%d/%d",
			c.Chunks, c.Steals, c.MigratedIters, len(want), steals, migrated)
	}
	if steals != st.Steals || migrated != st.MigratedIters {
		t.Fatalf("stream steals=%d migrated=%d, Stats says %d/%d", steals, migrated, st.Steals, st.MigratedIters)
	}
	if got := int64(traces[0].Steals()); got != steals {
		t.Fatalf("trace has %d steal spans, stream %d steals", got, steals)
	}
}
