package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
)

// realSpecs is every registered scheduler the real engine runs: all
// but AFS-LE, which it refuses (TestRealRuntimeRefusesAFSLE).
func realSpecs() []sched.Spec {
	var out []sched.Spec
	for _, spec := range sched.AllSpecs() {
		if !spec.LastExecuted {
			out = append(out, spec)
		}
	}
	return out
}

// runAll executes body over every scheduler and returns per-spec stats.
func runAll(t *testing.T, procs, n int, body func(i int)) map[string]Stats {
	t.Helper()
	out := map[string]Stats{}
	for _, spec := range realSpecs() {
		st, err := ParallelFor(Config{Procs: procs, Spec: spec}, n, body)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		out[spec.Name] = st
	}
	return out
}

// TestExactlyOnceAllSchedulers: every iteration executes exactly once
// under every scheduler (checked with atomics under -race).
func TestExactlyOnceAllSchedulers(t *testing.T) {
	const n = 10000
	for _, procs := range []int{1, 2, 4, 8} {
		counts := make([]int32, n)
		stats := runAll(t, procs, n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for name, st := range stats {
			if st.Iterations != int64(n*len(stats))/int64(len(stats)) && st.Iterations != int64(n) {
				t.Errorf("%s: Iterations = %d, want %d", name, st.Iterations, n)
			}
		}
		for i := range counts {
			want := int32(len(realSpecs()))
			if got := atomic.LoadInt32(&counts[i]); got != want {
				t.Fatalf("procs=%d iteration %d ran %d times, want %d", procs, i, got, want)
			}
			counts[i] = 0
		}
	}
}

// TestPhasedRun: phases run in order with a barrier — no iteration of
// phase k+1 starts before all of phase k finished.
func TestPhasedRun(t *testing.T) {
	const phases, n = 20, 500
	var current int64 = -1
	var violations int64
	for _, spec := range []sched.Spec{sched.SpecAFS(), sched.SpecGSS(), sched.SpecStatic(), sched.SpecModFactoring()} {
		atomic.StoreInt64(&current, -1)
		done := make([]int64, phases)
		_, err := Run(Config{Procs: 8, Spec: spec}, phases,
			func(int) int { return n },
			func(ph, i int) {
				cur := atomic.LoadInt64(&current)
				if int64(ph) > cur {
					atomic.CompareAndSwapInt64(&current, cur, int64(ph))
				}
				if int64(ph) < atomic.LoadInt64(&current) {
					atomic.AddInt64(&violations, 1)
				}
				atomic.AddInt64(&done[ph], 1)
			})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if atomic.LoadInt64(&violations) != 0 {
			t.Fatalf("%s: %d phase-ordering violations", spec.Name, violations)
		}
		for ph := range done {
			if done[ph] != n {
				t.Fatalf("%s: phase %d executed %d iterations", spec.Name, ph, done[ph])
			}
		}
	}
}

// TestVaryingPhaseSizes mimics Gaussian elimination's shrinking loops.
func TestVaryingPhaseSizes(t *testing.T) {
	const phases = 30
	sizes := func(ph int) int { return phases - ph }
	var total int64
	st, err := Run(Config{Procs: 4, Spec: sched.SpecAFS()}, phases, sizes,
		func(ph, i int) { atomic.AddInt64(&total, 1) })
	if err != nil {
		t.Fatal(err)
	}
	want := int64(phases * (phases + 1) / 2)
	if total != want || st.Iterations != want {
		t.Errorf("executed %d (stats %d), want %d", total, st.Iterations, want)
	}
}

func TestZeroIterations(t *testing.T) {
	for _, spec := range realSpecs() {
		st, err := ParallelFor(Config{Procs: 4, Spec: spec}, 0, func(int) {
			t.Error("body called for empty loop")
		})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if st.Iterations != 0 {
			t.Errorf("%s: %d iterations for empty loop", spec.Name, st.Iterations)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := ParallelFor(Config{Procs: -1, Spec: sched.SpecAFS()}, 10, func(int) {}); err == nil {
		// Procs<=0 falls back to GOMAXPROCS; -1 is not an error by
		// design. Force the real error paths instead:
		_ = err
	}
	if _, err := Run(Config{Procs: 2, Spec: sched.SpecAFS()}, -1, func(int) int { return 1 }, func(_, _ int) {}); err == nil {
		t.Error("negative phases accepted")
	}
	if _, err := ParallelFor(Config{Procs: 2, Spec: sched.Spec{Family: sched.FamilyCentral}}, 10, func(int) {}); err == nil {
		t.Error("central spec without sizer accepted")
	}
	if _, err := ParallelFor(Config{Procs: 2, Spec: sched.Spec{Family: sched.Family(42)}}, 10, func(int) {}); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestDefaultProcs(t *testing.T) {
	st, err := ParallelFor(Config{Spec: sched.SpecGSS()}, 100, func(int) {})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.LocalOps) < 1 {
		t.Error("no workers allocated")
	}
}

// TestSyncOpAccounting: SS performs exactly N central ops; STATIC
// performs none; AFS splits between local and remote.
func TestSyncOpAccounting(t *testing.T) {
	const n, p = 3000, 4
	ss, err := ParallelFor(Config{Procs: p, Spec: sched.SpecSS()}, n, func(int) {})
	if err != nil {
		t.Fatal(err)
	}
	if ss.CentralOps != n {
		t.Errorf("SS central ops = %d, want %d", ss.CentralOps, n)
	}
	if ss.TotalSyncOps() != n {
		t.Errorf("SS total ops = %d", ss.TotalSyncOps())
	}
	st, err := ParallelFor(Config{Procs: p, Spec: sched.SpecStatic()}, n, func(int) {})
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalSyncOps() != 0 {
		t.Errorf("STATIC performed %d sync ops", st.TotalSyncOps())
	}
	afs, err := ParallelFor(Config{Procs: p, Spec: sched.SpecAFS()}, n, func(int) {})
	if err != nil {
		t.Fatal(err)
	}
	if afs.CentralOps != 0 {
		t.Errorf("AFS used the central queue %d times", afs.CentralOps)
	}
	var local int64
	for _, v := range afs.LocalOps {
		local += v
	}
	if local == 0 {
		t.Error("AFS performed no local ops")
	}
}

// TestAFSStealRebalances: with one worker's iterations vastly more
// expensive, other workers must steal.
func TestAFSStealRebalances(t *testing.T) {
	const n, p = 512, 8
	st, err := ParallelFor(Config{Procs: p, Spec: sched.SpecAFS()}, n, func(i int) {
		if i < n/p { // worker 0's initial block
			time.Sleep(200 * time.Microsecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Steals == 0 {
		t.Error("no steals despite gross imbalance")
	}
	if st.MigratedIters == 0 {
		t.Error("no iterations migrated")
	}
	if st.RemoteOps[0] == 0 {
		t.Error("the overloaded queue was never stolen from")
	}
}

// TestAFSStealPathAllocFree pins the AFS steal path (victim scan,
// victim choice, TakeBack) at zero allocations for every victim
// policy: an idle worker repeatedly steals from the one loaded queue.
func TestAFSStealPathAllocFree(t *testing.T) {
	const p = 8
	for _, policy := range []sched.VictimPolicy{sched.VictimMostLoaded, sched.VictimRandom, sched.VictimPowerOfTwo} {
		d := newAFSDispatch(p, sched.AFS{}, policy)
		r := &runner{p: p, stats: Stats{LocalOps: make([]int64, p), RemoteOps: make([]int64, p)}}
		// 1/P of the remainder leaves per steal; 2^60 iterations
		// outlast every run below.
		d.queues[0].q.Push(sched.Chunk{Lo: 0, Hi: 1 << 60})
		d.queues[0].len.Store(int64(d.queues[0].q.Len()))
		allocs := testing.AllocsPerRun(100, func() {
			if _, fm, ok := d.fetch(r, 1); !ok || !fm.stolen || fm.owner != 0 {
				t.Fatalf("%v: fetch = (%+v, %t), want a steal from queue 0", policy, fm, ok)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: steal path allocates %.1f times per fetch, want 0", policy, allocs)
		}
	}
}

// TestBestStaticUsesCostHint: with an oracle, BEST-STATIC gives the
// expensive region a smaller share.
func TestBestStaticUsesCostHint(t *testing.T) {
	const n, p = 800, 4
	var w0 int64
	hint := func(ph, i int) float64 {
		if i < 100 {
			return 100
		}
		return 1
	}
	_, err := Run(Config{Procs: p, Spec: sched.SpecBestStatic(), CostHint: hint}, 1,
		func(int) int { return n },
		func(_, i int) {
			if i < 100 {
				atomic.AddInt64(&w0, 1)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	// We can't observe worker identity from the body, but the partition
	// itself is testable via sched.BestStatic; here we just ensure the
	// run completes and executes the heavy region fully.
	if w0 != 100 {
		t.Errorf("heavy region executed %d times, want 100", w0)
	}
}

// TestStartDelay: a delayed worker must not stall completion of a
// dynamic schedule for longer than its delay.
func TestStartDelay(t *testing.T) {
	const n = 20000
	start := time.Now()
	st, err := ParallelFor(Config{
		Procs:      4,
		Spec:       sched.SpecGSS(),
		StartDelay: []time.Duration{50 * time.Millisecond},
	}, n, func(int) {})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 45*time.Millisecond {
		// The delayed worker still participates in the phase barrier,
		// so the run cannot finish before its delay elapses.
		t.Errorf("run finished in %v, before the delayed worker started", elapsed)
	}
	_ = st
}

// TestConcurrentRuns: independent Runs do not share state.
func TestConcurrentRuns(t *testing.T) {
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var count int64
			st, err := ParallelFor(Config{Procs: 4, Spec: sched.SpecAFS()}, 5000,
				func(int) { atomic.AddInt64(&count, 1) })
			if err != nil {
				t.Error(err)
				return
			}
			if count != 5000 || st.Iterations != 5000 {
				t.Errorf("count=%d stats=%d", count, st.Iterations)
			}
		}()
	}
	wg.Wait()
}

// TestModFactoringRun exercises the phase-board dispatcher end to end.
func TestModFactoringRun(t *testing.T) {
	var count int64
	st, err := Run(Config{Procs: 8, Spec: sched.SpecModFactoring()}, 5,
		func(int) int { return 1000 },
		func(_, _ int) { atomic.AddInt64(&count, 1) })
	if err != nil {
		t.Fatal(err)
	}
	if count != 5000 {
		t.Errorf("executed %d, want 5000", count)
	}
	if st.CentralOps == 0 {
		t.Error("mod-factoring recorded no central ops")
	}
}

// TestElapsedPopulated: stats record wall-clock duration and phases.
func TestElapsedPopulated(t *testing.T) {
	st, err := Run(Config{Procs: 2, Spec: sched.SpecAFS()}, 3,
		func(int) int { return 100 }, func(_, _ int) {})
	if err != nil {
		t.Fatal(err)
	}
	if st.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
	if st.Phases != 3 {
		t.Errorf("Phases = %d", st.Phases)
	}
}

// TestBodyPanicPropagates: a panic in the loop body surfaces from Run
// (like a sequential loop would), other workers stop, and the process
// does not deadlock or leak the panic into a bare goroutine.
func TestBodyPanicPropagates(t *testing.T) {
	for _, spec := range []sched.Spec{sched.SpecAFS(), sched.SpecGSS(), sched.SpecStatic()} {
		func() {
			defer func() {
				p := recover()
				if p == nil {
					t.Errorf("%s: panic did not propagate", spec.Name)
					return
				}
				if s, ok := p.(string); !ok || s != "boom" {
					t.Errorf("%s: panic value %v, want \"boom\"", spec.Name, p)
				}
			}()
			_, _ = ParallelFor(Config{Procs: 4, Spec: spec}, 10000, func(i int) {
				if i == 5000 {
					panic("boom")
				}
			})
			t.Errorf("%s: ParallelFor returned normally", spec.Name)
		}()
	}
}

// TestPanicInLaterPhase: the abort also stops the outer phase loop.
func TestPanicInLaterPhase(t *testing.T) {
	var phasesRun int64
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
		if got := atomic.LoadInt64(&phasesRun); got > 4 {
			t.Errorf("ran %d phases after the panic phase", got)
		}
	}()
	_, _ = Run(Config{Procs: 4, Spec: sched.SpecAFS()}, 100,
		func(int) int { return 64 },
		func(ph, i int) {
			if i == 0 {
				atomic.AddInt64(&phasesRun, 1)
			}
			if ph == 3 {
				panic("later")
			}
		})
}

// TestMinChunkReducesOps: the grain floor caps dispatch operations for
// cheap loops while preserving exactly-once execution.
func TestMinChunkReducesOps(t *testing.T) {
	const n = 10000
	counts := make([]int32, n)
	body := func(i int) { atomic.AddInt32(&counts[i], 1) }

	fine, err := ParallelFor(Config{Procs: 4, Spec: sched.SpecSS()}, n, body)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := ParallelFor(Config{Procs: 4, Spec: sched.SpecSS(), MinChunk: 64}, n, body)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.CentralOps >= fine.CentralOps/10 {
		t.Errorf("grain barely helped: %d vs %d ops", coarse.CentralOps, fine.CentralOps)
	}
	for i, c := range counts {
		if c != 2 {
			t.Fatalf("iteration %d ran %d times, want 2", i, c)
		}
	}
	// AFS with a grain floor also stays exactly-once.
	counts2 := make([]int32, n)
	afs, err := ParallelFor(Config{Procs: 4, Spec: sched.SpecAFS(), MinChunk: 128}, n,
		func(i int) { atomic.AddInt32(&counts2[i], 1) })
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts2 {
		if c != 1 {
			t.Fatalf("AFS grained: iteration %d ran %d times", i, c)
		}
	}
	var local int64
	for _, v := range afs.LocalOps {
		local += v
	}
	if local == 0 || local > int64(n)/128+8 {
		t.Errorf("AFS grained local ops = %d", local)
	}
}

// TestNoGoroutineLeak: Run tears down its worker pool completely.
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for r := 0; r < 10; r++ {
		_, err := ParallelFor(Config{Procs: 8, Spec: sched.SpecAFS()}, 1000, func(int) {})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Allow the runtime a moment to retire exiting goroutines.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("goroutines before %d, after %d", before, runtime.NumGoroutine())
}
