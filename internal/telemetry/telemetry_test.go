package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindExec: "exec", KindSteal: "steal", KindQueueWait: "queue-wait",
		KindCacheFlush: "cache-flush", KindPhaseBegin: "phase-begin",
		KindPhaseEnd: "phase-end", Kind(99): "unknown",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestStreamAccumulates(t *testing.T) {
	s := NewStream()
	s.Emit(Event{Kind: KindExec, Proc: 1})
	s.Emit(Event{Kind: KindSteal, Proc: 2, Victim: 1})
	if s.Len() != 2 || len(s.Events()) != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Events()[1].Kind != KindSteal {
		t.Error("order not preserved")
	}
	s.Reset()
	if s.Len() != 0 {
		t.Error("reset did not clear")
	}
}

func TestSyncStreamConcurrent(t *testing.T) {
	s := NewSyncStream()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Emit(Event{Kind: KindExec, Proc: w, Lo: i, Hi: i + 1})
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Errorf("got %d events, want 800", s.Len())
	}
}

func TestRegistryCountersHistograms(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d", c.Value())
	}
	if r.Counter("ops") != c {
		t.Error("counter not deduplicated")
	}
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 555.5 {
		t.Errorf("hist count=%d sum=%v", h.Count(), h.Sum())
	}
	counts := h.BucketCounts()
	want := []int64{1, 1, 1, 1} // ≤1, ≤10, ≤100, overflow
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, counts[i], w)
		}
	}
}

func TestRegistrySnapshotSeries(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("steals")
	h := r.Histogram("chunk", []float64{4, 16})
	for step := 0; step < 3; step++ {
		c.Add(int64(step))
		h.Observe(float64(step))
		r.Snapshot(step)
	}
	series := r.Series()
	if len(series) != 3 {
		t.Fatalf("%d samples", len(series))
	}
	if series[2].Values["steals"] != 3 {
		t.Errorf("cumulative steals = %v", series[2].Values["steals"])
	}
	if series[1].Values["chunk_count"] != 2 {
		t.Errorf("chunk_count = %v", series[1].Values["chunk_count"])
	}
	names := r.MetricNames()
	wantNames := []string{"steals", "chunk_count", "chunk_sum"}
	if len(names) != len(wantNames) {
		t.Fatalf("names = %v", names)
	}
	for i, n := range wantNames {
		if names[i] != n {
			t.Errorf("names[%d] = %q, want %q", i, names[i], n)
		}
	}
}

// TestMetricsOf: the registry reader registers every series up front
// (a run with no steals still reports zeros), folds each record kind
// into its own series, and snapshots once per phase-end record.
func TestMetricsOf(t *testing.T) {
	if MetricsOf(nil, false) != nil {
		t.Error("MetricsOf(nil) is not a nil Observer")
	}
	for _, c := range []struct {
		cycles      bool
		wait, steal string
	}{
		{false, "queue_wait_ns", "steal_latency_ns"},
		{true, "queue_wait_cycles_hist", "steal_latency_cycles"},
	} {
		r := NewRegistry()
		o := MetricsOf(r, c.cycles)
		want := []string{"central_ops", "remote_ops", "steals", "migrated_iters", "iterations",
			"chunk_size_count", "chunk_size_sum", c.wait + "_count", c.wait + "_sum",
			c.steal + "_count", c.steal + "_sum"}
		if got := r.MetricNames(); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("cycles=%t: names %v, want %v", c.cycles, got, want)
		}
		for _, rec := range []Record{
			{Kind: KindPhaseBegin, Step: 0, Proc: -1, Owner: -1, Hi: 12},
			{Kind: KindQueueWait, Step: 0, Proc: 0, Owner: -1, Start: 10, End: 15},
			{Kind: KindExec, Step: 0, Proc: 0, Owner: -1, Lo: 0, Hi: 4},
			{Kind: KindExec, Step: 0, Proc: 1, Owner: 1, Lo: 4, Hi: 8},
			{Kind: KindSteal, Step: 0, Proc: 0, Owner: 1, Stolen: true, Lo: 8, Hi: 11, Start: 20, End: 27},
			{Kind: KindExec, Step: 0, Proc: 0, Owner: 1, Stolen: true, Lo: 8, Hi: 11},
			{Kind: KindCacheFlush, Step: 0, Proc: -1, Owner: -1},
			{Kind: KindPhaseEnd, Step: 0, Proc: -1, Owner: -1},
			{Kind: KindPhaseEnd, Step: 1, Proc: -1, Owner: -1},
		} {
			o.Observe(rec)
		}
		series := r.Series()
		if len(series) != 2 || series[0].Step != 0 || series[1].Step != 1 {
			t.Fatalf("cycles=%t: series %+v, want steps 0 and 1", c.cycles, series)
		}
		for key, want := range map[string]float64{
			"central_ops": 1, "remote_ops": 1, "steals": 1, "migrated_iters": 3, "iterations": 11,
			"chunk_size_count": 3, "chunk_size_sum": 11,
			c.wait + "_count": 1, c.wait + "_sum": 5, c.steal + "_count": 1, c.steal + "_sum": 7,
		} {
			if got := series[0].Values[key]; got != want {
				t.Errorf("cycles=%t: %s = %v, want %v", c.cycles, key, got, want)
			}
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Errorf("bucket %d = %v", i, b[i])
		}
	}
}

func TestRegistryString(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	r.Snapshot(0)
	if !strings.Contains(r.String(), "1 metrics") || !strings.Contains(r.String(), "1 samples") {
		t.Errorf("String() = %q", r.String())
	}
}
