package kernels

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/workload"
)

// The naive* functions below are the straightforward loop bodies the
// real kernels are defined by: one indexed access per operand per
// element. The served bodies are rewritten bounds-check-free and
// unrolled; TestRealKernelLoopsBitIdentical pins that the rewrite does
// the same float operations in the same order.

func naiveAdjointBody(d *AdjointData, idx int) {
	nn := d.N * d.N
	i := idx
	if d.Reverse {
		i = nn - 1 - idx
	}
	s := 0.0
	for k := i; k < nn; k++ {
		s += d.X * d.B[k] * d.C[k-i]
	}
	d.A[i] = s
}

func naiveEliminateRow(g *GaussMatrix, ph, i int) {
	n := g.N
	pivot := g.A[ph]
	row := g.A[ph+1+i]
	f := row[ph] / pivot[ph]
	for j := ph; j <= n; j++ {
		row[j] -= f * pivot[j]
	}
}

func naiveSORUpdateRow(g *SORGrid, j int) {
	n := g.N
	if j == 0 || j == n-1 {
		copy(g.dst[j], g.src[j])
		return
	}
	up, row, down, out := g.src[j-1], g.src[j], g.src[j+1], g.dst[j]
	out[0], out[n-1] = row[0], row[n-1]
	for c := 1; c < n-1; c++ {
		out[c] = (up[c] + down[c] + row[c-1] + row[c+1]) / 4
	}
}

func naiveTCUpdateRow(t *TCGraph, ph, j int) {
	if j == ph || !t.col[j] {
		return
	}
	rowK := t.G.Adj[ph]
	rowJ := t.G.Adj[j]
	for i := range rowJ {
		if rowK[i] {
			rowJ[i] = true
		}
	}
}

// bitSizes covers every adjoint unroll tail length (0-3) and both
// odd and power-of-two row lengths.
var bitSizes = []int{1, 2, 3, 5, 7, 33, 64, 97}

// scramble overwrites v with deterministic values that are neither
// symmetric nor exactly representable products, so a swapped operand
// or a reassociated product changes the rounded result.
func scramble(v []float64, seed uint64) {
	x := seed*0x9e3779b97f4a7c15 + 1
	for i := range v {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[i] = float64(x>>11)/(1<<53) + 0.1
	}
}

// sameBits reports the first element of got that differs from want in
// its bit pattern, or "" if every element matches.
func sameBits(got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("[%d] = %v (%#x), want %v (%#x)", i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return ""
}

func TestRealKernelLoopsBitIdentical(t *testing.T) {
	for _, n := range bitSizes {
		for _, rev := range []bool{false, true} {
			for _, scrambled := range []bool{false, true} {
				got, want := NewAdjointData(n, rev), NewAdjointData(n, rev)
				if scrambled {
					for _, d := range []*AdjointData{got, want} {
						d.X = 0.3
						scramble(d.B, 1)
						scramble(d.C, 2)
					}
				}
				for idx := 0; idx < got.Iterations(); idx++ {
					got.Body(idx)
					naiveAdjointBody(want, idx)
				}
				if msg := sameBits(got.A, want.A); msg != "" {
					t.Errorf("adjoint n=%d reverse=%t scrambled=%t: A%s", n, rev, scrambled, msg)
				}
			}
		}

		for _, scrambled := range []bool{false, true} {
			got, want := NewGaussMatrix(n), NewGaussMatrix(n)
			if scrambled {
				for _, g := range []*GaussMatrix{got, want} {
					for i, row := range g.A {
						scramble(row, uint64(i+1))
						row[i] += float64(n) // keep pivots away from zero
					}
				}
			}
			for ph := 0; ph < n-1; ph++ {
				for i := 0; i < got.PhaseIterations(ph); i++ {
					got.EliminateRow(ph, i)
					naiveEliminateRow(want, ph, i)
				}
			}
			for r := range got.A {
				if msg := sameBits(got.A[r], want.A[r]); msg != "" {
					t.Errorf("gauss n=%d scrambled=%t: row %d%s", n, scrambled, r, msg)
				}
			}
		}

		for _, scrambled := range []bool{false, true} {
			got, want := NewSORGrid(n), NewSORGrid(n)
			if scrambled {
				for _, g := range []*SORGrid{got, want} {
					for i, row := range g.src {
						scramble(row, uint64(i+1))
					}
				}
			}
			for ph := 0; ph < 3; ph++ {
				for j := 0; j < n; j++ {
					got.UpdateRow(j)
					naiveSORUpdateRow(want, j)
				}
				for r := range got.dst {
					if msg := sameBits(got.dst[r], want.dst[r]); msg != "" {
						t.Errorf("sor n=%d scrambled=%t phase %d: dst row %d%s", n, scrambled, ph, r, msg)
					}
				}
				got.Swap()
				want.Swap()
			}
		}

		for _, in := range []struct {
			name string
			g    *workload.Graph
		}{
			{"random", workload.RandomGraph(n, 0.08, 1)},
			{"clique", workload.CliqueGraph(n, n/2)},
		} {
			got, want := NewTCGraph(in.g), NewTCGraph(in.g)
			for ph := 0; ph < n; ph++ {
				got.BeginPhase(ph)
				want.BeginPhase(ph)
				for j := 0; j < n; j++ {
					got.UpdateRow(ph, j)
					naiveTCUpdateRow(want, ph, j)
				}
			}
			for r := range got.G.Adj {
				for c, v := range got.G.Adj[r] {
					if v != want.G.Adj[r][c] {
						t.Errorf("tc-%s n=%d: Adj[%d][%d] = %t, want %t", in.name, n, r, c, v, want.G.Adj[r][c])
					}
				}
			}
		}
	}
}
