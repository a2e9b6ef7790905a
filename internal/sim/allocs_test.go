package sim_test

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestRunAllocsPerStep pins the simulator's hot loop as allocation-free:
// running an SOR model for 8 phases rather than 2 may add only a small
// per-step constant of allocations (each step's loop closures, the
// fetchers' per-step queues and assignments, a steal's victim draw),
// never a term per iteration or per touch. One SOR phase here executes
// 64 iterations of up to three touches each, so even one allocation per
// iteration would add 64 per step.
func TestRunAllocsPerStep(t *testing.T) {
	m := machine.KSR1()
	for _, spec := range []sched.Spec{sched.SpecAFS(), sched.SpecGSS(), sched.SpecStatic()} {
		allocs := func(phases int) float64 {
			prog := kernels.SOR{N: 64, Phases: phases}.Program(m)
			return testing.AllocsPerRun(5, func() {
				if _, err := sim.Run(m, 4, spec, prog); err != nil {
					t.Fatal(err)
				}
			})
		}
		two, eight := allocs(2), allocs(8)
		perStep := (eight - two) / 6
		t.Logf("%s: %v allocs at 2 phases, %v at 8: %.1f per step", spec.Name, two, eight, perStep)
		if perStep > 16 {
			t.Errorf("%s: %.1f allocations per step (%v at 2 phases, %v at 8); the per-iteration path allocates",
				spec.Name, perStep, two, eight)
		}
	}
}
