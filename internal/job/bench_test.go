package job_test

import (
	"testing"

	"repro/internal/job"
)

// BenchmarkBody prices the loop-body rung per served kernel: one job
// built through job.Build at its registry defaults, run serially on
// the calling goroutine, so no dispatch or serving cost is included.
// Build runs with the timer stopped.
func BenchmarkBody(b *testing.B) {
	for _, kname := range []string{"sor", "gauss", "tc-random", "tc-skew", "adjoint", "adjoint-rev", "spin-irregular"} {
		b.Run(kname, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r, err := job.Build(job.Spec{Kernel: kname})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				runSerial(r)
			}
		})
	}
}
