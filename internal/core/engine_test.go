package core

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
)

// TestEngineReuseAcrossSubmissions: one engine runs many submissions;
// each gets isolated stats and the AFS dispatcher (the persistent
// affinity state) is reused rather than rebuilt.
func TestEngineReuseAcrossSubmissions(t *testing.T) {
	e, err := NewEngine(4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var firstAFS *afsDispatch
	for sub := 0; sub < 5; sub++ {
		n := 1000 + sub*100
		var count int64
		res, err := e.Execute(Config{Spec: sched.SpecAFS()}, 1,
			func(int) int { return n },
			func(_, _ int) { atomic.AddInt64(&count, 1) })
		if err != nil {
			t.Fatalf("submission %d: %v", sub, err)
		}
		if res.Panic != nil {
			t.Fatalf("submission %d: unexpected panic %v", sub, res.Panic)
		}
		if count != int64(n) || res.Stats.Iterations != int64(n) {
			t.Fatalf("submission %d: count=%d stats=%d want %d", sub, count, res.Stats.Iterations, n)
		}
		if sub == 0 {
			firstAFS = e.afs
		} else if e.afs != firstAFS {
			t.Fatalf("submission %d: AFS dispatcher was rebuilt, not reused", sub)
		}
	}
}

// TestEngineDispatcherCacheInvalidation: a different AFS variant or
// worker count must not reuse the cached queues.
func TestEngineDispatcherCacheInvalidation(t *testing.T) {
	e, err := NewEngine(4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	run := func(cfg Config) {
		t.Helper()
		if _, err := e.Execute(cfg, 1, func(int) int { return 100 }, func(_, _ int) {}); err != nil {
			t.Fatal(err)
		}
	}
	run(Config{Spec: sched.SpecAFS()})
	first := e.afs
	run(Config{Spec: sched.SpecAFSRandom()})
	if e.afs == first {
		t.Error("afs-random reused the plain-afs dispatcher")
	}
	second := e.afs
	run(Config{Spec: sched.SpecAFSRandom(), Procs: 2})
	if e.afs == second {
		t.Error("2-worker submission reused the 4-queue dispatcher")
	}
}

// TestExecuteProcsSubset: a submission may use fewer workers than the
// engine owns, never more.
func TestExecuteProcsSubset(t *testing.T) {
	e, err := NewEngine(4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var count int64
	res, err := e.Execute(Config{Procs: 2, Spec: sched.SpecAFS()}, 1,
		func(int) int { return 500 },
		func(_, _ int) { atomic.AddInt64(&count, 1) })
	if err != nil {
		t.Fatal(err)
	}
	if count != 500 {
		t.Errorf("executed %d iterations, want 500", count)
	}
	if got := len(res.Stats.LocalOps); got != 2 {
		t.Errorf("stats sized for %d workers, want 2", got)
	}
	if _, err := e.Execute(Config{Procs: 8, Spec: sched.SpecAFS()}, 1,
		func(int) int { return 10 }, func(_, _ int) {}); err == nil {
		t.Error("oversubscribed submission accepted")
	}
}

// TestExecuteAfterClose: submissions after Close fail with ErrClosed.
func TestExecuteAfterClose(t *testing.T) {
	e, err := NewEngine(2)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	_, err = e.Execute(Config{Spec: sched.SpecAFS()}, 1,
		func(int) int { return 10 }, func(_, _ int) {})
	if !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

// TestCtxCancelStopsMidLoop: cancelling the context stops dispatch at
// chunk granularity and Run returns the context error with partial
// stats.
func TestCtxCancelStopsMidLoop(t *testing.T) {
	const n = 100000
	ctx, cancel := context.WithCancel(context.Background())
	var count int64
	st, err := Run(Config{Procs: 4, Spec: sched.SpecAFS(), Ctx: ctx}, 1,
		func(int) int { return n },
		func(_, i int) {
			if atomic.AddInt64(&count, 1) == 100 {
				cancel()
			}
			time.Sleep(time.Microsecond)
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	got := atomic.LoadInt64(&count)
	if got >= n {
		t.Errorf("loop ran to completion (%d iterations) despite cancellation", got)
	}
	if st.Iterations > got {
		t.Errorf("stats claim %d iterations, only %d ran", st.Iterations, got)
	}
}

// TestCtxCancelledBeforeRun: an already-cancelled context never
// dispatches a single chunk.
func TestCtxCancelledBeforeRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(Config{Procs: 2, Spec: sched.SpecGSS(), Ctx: ctx}, 1,
		func(int) int { return 100 },
		func(_, _ int) { t.Error("body ran under a dead context") })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestCtxCancelBetweenPhases: cancellation between phases stops the
// outer loop and reports the completed phase count.
func TestCtxCancelBetweenPhases(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var phasesSeen int64
	st, err := Run(Config{Procs: 2, Spec: sched.SpecAFS(), Ctx: ctx}, 50,
		func(int) int { return 64 },
		func(ph, i int) {
			if i == 0 {
				atomic.AddInt64(&phasesSeen, 1)
			}
			if ph == 2 && i == 63 {
				cancel()
			}
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := atomic.LoadInt64(&phasesSeen); got > 5 {
		t.Errorf("ran %d phases after cancellation", got)
	}
	if st.Phases >= 50 {
		t.Errorf("stats claim all %d phases completed", st.Phases)
	}
}

// TestCancelDoesNotPoisonEngine: after a cancelled submission, the
// same engine runs the next submission to completion (the ISSUE's
// acceptance criterion).
func TestCancelDoesNotPoisonEngine(t *testing.T) {
	e, err := NewEngine(4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var count int64
	_, err = e.Execute(Config{Spec: sched.SpecAFS(), Ctx: ctx}, 4,
		func(int) int { return 10000 },
		func(_, _ int) {
			if atomic.AddInt64(&count, 1) == 50 {
				cancel()
			}
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("first submission: err = %v, want context.Canceled", err)
	}
	var count2 int64
	res, err := e.Execute(Config{Spec: sched.SpecAFS()}, 2,
		func(int) int { return 3000 },
		func(_, _ int) { atomic.AddInt64(&count2, 1) })
	if err != nil {
		t.Fatalf("second submission: %v", err)
	}
	if count2 != 6000 || res.Stats.Iterations != 6000 {
		t.Errorf("second submission executed %d (stats %d), want 6000 — cancelled chunks leaked across submissions",
			count2, res.Stats.Iterations)
	}
	if res.Stats.Phases != 2 {
		t.Errorf("second submission Phases = %d, want 2", res.Stats.Phases)
	}
}

// TestPanicDoesNotPoisonEngine: a panicking submission is contained in
// its Result; the workers survive and the next submission succeeds.
func TestPanicDoesNotPoisonEngine(t *testing.T) {
	e, err := NewEngine(4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Execute(Config{Spec: sched.SpecGSS()}, 1,
		func(int) int { return 10000 },
		func(_, i int) {
			if i == 500 {
				panic("contained")
			}
		})
	if err != nil {
		t.Fatalf("panicking submission returned engine error %v", err)
	}
	if s, ok := res.Panic.(string); !ok || s != "contained" {
		t.Fatalf("Panic = %v, want \"contained\"", res.Panic)
	}
	var count int64
	res, err = e.Execute(Config{Spec: sched.SpecGSS()}, 1,
		func(int) int { return 1000 },
		func(_, _ int) { atomic.AddInt64(&count, 1) })
	if err != nil || res.Panic != nil {
		t.Fatalf("post-panic submission: err=%v panic=%v", err, res.Panic)
	}
	if count != 1000 {
		t.Errorf("post-panic submission executed %d, want 1000", count)
	}
}

// TestEngineQueueDepths: Engine.QueueDepths, the one live queue-depth
// source, reports the backlog a one-worker engine leaves behind at
// each iteration, and the drained state once the submission returns.
func TestEngineQueueDepths(t *testing.T) {
	e, err := NewEngine(1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const n = 64
	cases := []struct {
		algo string
		// want is the backlog iteration i sees; nil means unchecked.
		want func(i int) []int
	}{
		// SS hands out one iteration at a time from the central queue.
		{"ss", func(i int) []int { return []int{n - i - 1} }},
		// AFS's first local take removes 1/k of the 64 queued.
		{"afs(k=4)", func(i int) []int {
			if i < 16 {
				return []int{48}
			}
			return nil
		}},
	}
	for _, c := range cases {
		spec, err := sched.ByName(c.algo)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([][]int, n)
		if _, err := e.Execute(Config{Spec: spec}, 1, func(int) int { return n },
			func(_, i int) { seen[i] = e.QueueDepths() }); err != nil {
			t.Fatalf("%s: %v", c.algo, err)
		}
		for i, got := range seen {
			if want := c.want(i); want != nil && !slices.Equal(got, want) {
				t.Errorf("%s: iteration %d sees depths %v, want %v", c.algo, i, got, want)
			}
		}
		if got := e.QueueDepths(); !slices.Equal(got, []int{0}) {
			t.Errorf("%s: depths after Execute = %v, want [0]", c.algo, got)
		}
	}
}
