package kernels

import (
	"repro/internal/machine"
	"repro/internal/sim"
)

// Gauss is the Gaussian-elimination kernel (§4.2): phase k eliminates
// column k-1 from rows k..N-1 using pivot row k-1. Iteration costs
// shrink slightly across phases (little imbalance); iteration i of
// every phase rewrites row i (strong but not perfect affinity — the
// parallel loop's index space shifts by one row per phase, and the
// shared pivot row must move to every processor each phase).
type Gauss struct {
	// N is the matrix dimension; the augmented matrix is N×(N+1).
	N int
}

// Program returns the simulator model. Phase s (s = 0..N-2, i.e. the
// paper's K = s+2 in 1-based notation) runs a parallel loop over rows
// I = s+1 .. N-1: each iteration updates (N+1)-(s) trailing elements of
// its row with a multiply and a subtract, reading the pivot row s.
func (k Gauss) Program(m *machine.Machine) sim.Program {
	n := k.N
	rowBytes := (n + 1) * 8
	return sim.Program{
		Name:  "GAUSS",
		Steps: n - 1,
		Step: func(s int) sim.ParLoop {
			elems := float64(n + 2 - s)
			cost := elems*2*m.FPOpCycles + m.FPDivCycles
			pivot := s
			base := s + 1
			return sim.ParLoop{
				N:    n - 1 - s,
				Cost: func(int) float64 { return cost },
				Touches: func(i int, visit func(sim.Touch)) {
					visit(sim.Touch{ID: fp(arrA, pivot), Bytes: rowBytes})
					visit(sim.Touch{ID: fp(arrA, base+i), Bytes: rowBytes, Write: true})
				},
				Ident: func(i int) int { return base + i },
			}
		},
	}
}

// GaussMatrix is the real form: an N×(N+1) augmented matrix eliminated
// in place. Iterations within a phase are independent (each writes only
// its own row), so any schedule produces the identical result.
type GaussMatrix struct {
	N int
	A [][]float64
}

// NewGaussMatrix builds a well-conditioned deterministic system:
// diagonally dominant coefficients and b = row sums (solution ≈ all
// ones).
func NewGaussMatrix(n int) *GaussMatrix {
	backing := make([]float64, n*(n+1))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = backing[i*(n+1) : (i+1)*(n+1) : (i+1)*(n+1)]
	}
	g := &GaussMatrix{N: n, A: rows}
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			v := 1.0 / float64(1+((i+j)%7)) // deterministic, bounded
			if i == j {
				v = float64(n) // dominance keeps pivots far from zero
			}
			g.A[i][j] = v
			sum += v
		}
		g.A[i][n] = sum
	}
	return g
}

// PhaseIterations returns how many parallel iterations phase ph has.
// Phases run ph = 0..N-2.
func (g *GaussMatrix) PhaseIterations(ph int) int { return g.N - 1 - ph }

// EliminateRow is the parallel-loop body: in phase ph, iteration i
// (local index) eliminates column ph from row ph+1+i using pivot row ph.
func (g *GaussMatrix) EliminateRow(ph, i int) {
	// Both rows resliced to columns ph..N: one length, so the loop
	// carries no bounds checks.
	n := g.N
	pivot := g.A[ph][ph : n+1]
	row := g.A[ph+1+i][ph : n+1]
	f := row[0] / pivot[0]
	for j, v := range pivot {
		row[j] -= f * v
	}
}

// BackSubstitute solves the triangularised system.
func (g *GaussMatrix) BackSubstitute() []float64 {
	n := g.N
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		v := g.A[i][n]
		for j := i + 1; j < n; j++ {
			v -= g.A[i][j] * x[j]
		}
		x[i] = v / g.A[i][i]
	}
	return x
}

// Checksum folds the matrix for cross-scheduler result checks.
func (g *GaussMatrix) Checksum() float64 {
	s := 0.0
	for _, row := range g.A {
		for _, v := range row {
			s += v
		}
	}
	return s
}

// RunSerial performs the full elimination serially.
func (g *GaussMatrix) RunSerial() {
	for ph := 0; ph < g.N-1; ph++ {
		for i := 0; i < g.PhaseIterations(ph); i++ {
			g.EliminateRow(ph, i)
		}
	}
}
