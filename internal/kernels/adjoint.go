package kernels

import (
	"repro/internal/machine"
	"repro/internal/sim"
)

// Adjoint is the adjoint-convolution kernel (§4.2): a single parallel
// loop of N² iterations where iteration i runs an inner loop of N²-i
// steps — severe, linearly-decreasing load imbalance. The parallel loop
// is not nested in a sequential loop and the inner loop streams through
// the large B and C vectors, so there is no affinity to exploit: the
// kernel isolates each scheduler's load-balancing behaviour.
type Adjoint struct {
	// N gives N²=N*N parallel iterations (the paper uses N = 75).
	N int
	// Reverse schedules the iterations in reverse index order (Fig 8),
	// so the cheap iterations are dispensed first and the potential
	// tail imbalance is O(N) against an O(N²/P) completion time.
	Reverse bool
}

// Program returns the simulator model on machine m. Touches is nil: the
// streaming accesses have no reuse for any schedule, so they are folded
// into the per-step compute cost.
func (k Adjoint) Program(m *machine.Machine) sim.Program {
	nn := k.N * k.N
	per := 2 * m.FPOpCycles
	rev := k.Reverse
	name := "ADJOINT"
	if rev {
		name = "ADJOINT-REV"
	}
	return sim.SingleLoop(name, sim.ParLoop{
		N: nn,
		Cost: func(i int) float64 {
			if rev {
				i = nn - 1 - i
			}
			return float64(nn-i)*per + m.FPOpCycles
		},
	})
}

// AdjointData is the real form: A(i) = Σ_{k=i..N²-1} x·B(k)·C(k-i).
// Each iteration writes only A[i], so iterations are independent.
type AdjointData struct {
	N       int
	X       float64
	A, B, C []float64
	Reverse bool
}

// NewAdjointData builds deterministic inputs of logical size N (N²
// elements).
func NewAdjointData(n int, reverse bool) *AdjointData {
	nn := n * n
	d := &AdjointData{N: n, X: 0.5, Reverse: reverse,
		A: make([]float64, nn), B: make([]float64, nn), C: make([]float64, nn)}
	for i := 0; i < nn; i++ {
		d.B[i] = float64(i%13) / 13
		d.C[i] = float64(i%7) / 7
	}
	return d
}

// Iterations returns the parallel loop bound, N².
func (d *AdjointData) Iterations() int { return d.N * d.N }

// Body is the parallel-loop body for loop index idx (reversed if
// configured).
func (d *AdjointData) Body(idx int) {
	nn := d.N * d.N
	i := idx
	if d.Reverse {
		i = nn - 1 - idx
	}
	// Bounds-check-free form of s += X·B[k]·C[k-i] for k = i..nn-1:
	// four products per trip, added to the one accumulator in index
	// order, so the sum is bit-identical to the naive loop.
	x := d.X
	b := d.B[i:nn]
	c := d.C[:len(b)]
	s := 0.0
	// len(c) == len(b) throughout; testing both lets the compiler
	// drop the checks on c as well as b.
	for len(b) >= 4 && len(c) >= 4 {
		p0 := x * b[0] * c[0]
		p1 := x * b[1] * c[1]
		p2 := x * b[2] * c[2]
		p3 := x * b[3] * c[3]
		s += p0
		s += p1
		s += p2
		s += p3
		b, c = b[4:], c[4:]
	}
	c = c[:len(b)]
	for k, v := range b {
		s += x * v * c[k]
	}
	d.A[i] = s
}

// Checksum folds the output vector.
func (d *AdjointData) Checksum() float64 {
	s := 0.0
	for _, v := range d.A {
		s += v
	}
	return s
}

// RunSerial computes the reference result.
func (d *AdjointData) RunSerial() {
	for i := 0; i < d.Iterations(); i++ {
		d.Body(i)
	}
}
