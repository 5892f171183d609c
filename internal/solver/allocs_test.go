//go:build !race

package solver_test

import (
	"context"
	"fmt"
	"testing"

	"fusion/internal/smt"
	"fusion/internal/solver"
)

// The race detector's instrumentation allocates, so this guard runs on a
// plain build only.

// probeChain builds an unsatisfiable path condition of 47 conjuncts whose
// DAG grows with m: for i < 20, definitions x[i+1] = f_i(x[i], y[i]), each
// f_i a chain of m operations, guards y[i] < 100+i that suggest hints and,
// for every fourth i, an alias z[i] = y[i]; then a pair of guards no
// x[20] satisfies. The probe fails on it, so it runs every try and its
// local search.
func probeChain(b *smt.Builder, m int) *smt.Term {
	const k = 20
	var cjs []*smt.Term
	x := b.Var("x0", 32)
	for i := 0; i < k; i++ {
		y := b.Var(fmt.Sprintf("y%d", i), 32)
		f := x
		for j := 0; j < m; j++ {
			c := b.Const(uint32(3+2*j+i), 32)
			switch j % 3 {
			case 0:
				f = b.Add(f, b.Mul(y, c))
			case 1:
				f = b.Xor(f, c)
			default:
				f = b.Ite(b.Ult(y, c), b.Sub(f, y), f)
			}
		}
		next := b.Var(fmt.Sprintf("x%d", i+1), 32)
		cjs = append(cjs, b.Eq(next, f), b.Ult(y, b.Const(uint32(100+i), 32)))
		if i%4 == 0 {
			cjs = append(cjs, b.Eq(b.Var(fmt.Sprintf("z%d", i), 32), y))
		}
		x = next
	}
	cjs = append(cjs, b.Ult(x, b.Const(3, 32)), b.Ult(b.Const(7, 32), x))
	return b.And(cjs...)
}

// TestProbeAllocs: the probe's set-up and tries use slices sized from the
// compiled DAG, not a map or a slice per node, so a failed Probe call
// makes as many allocations on a 16 times larger DAG.
func TestProbeAllocs(t *testing.T) {
	allocs := func(m int) (float64, int) {
		b := smt.NewBuilder()
		phi := probeChain(b, m)
		if _, ok := solver.Probe(context.Background(), b, phi, 32); ok {
			t.Fatalf("m=%d: the probe satisfied an unsatisfiable condition", m)
		}
		return testing.AllocsPerRun(5, func() {
			solver.Probe(context.Background(), b, phi, 32)
		}), b.Size(phi)
	}
	small, smallSize := allocs(4)
	large, largeSize := allocs(64)
	if large > small {
		t.Errorf("Probe: %v allocs on a %d-node DAG, %v on a %d-node one; want no more", large, largeSize, small, smallSize)
	}
	t.Logf("%d nodes: %v allocs; %d nodes: %v allocs", smallSize, small, largeSize, large)
}
