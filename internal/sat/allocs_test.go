//go:build !race

package sat

import (
	"math/rand"
	"testing"
)

// TestAddClauseAllocs: problem clauses are copied into the arena and
// watched from the pool, so adding 20,000 of them, about the clause count
// of a large blasted condition, allocates only when one of those flat
// slices, the header table or the clause list grows. The race detector's
// instrumentation allocates, so this guard runs on a plain build only.
func TestAddClauseAllocs(t *testing.T) {
	const nVars, nClauses = 300, 20000
	rng := rand.New(rand.NewSource(1))
	cs := make([][]Lit, nClauses)
	for i := range cs {
		// Two to four distinct variables: no unit, so nothing propagates.
		for _, v := range rng.Perm(nVars)[:2+rng.Intn(3)] {
			cs[i] = append(cs[i], MkLit(v, rng.Intn(2) == 0))
		}
	}
	perClause := testing.AllocsPerRun(3, func() {
		s := newSolverWithVars(nVars)
		for _, c := range cs {
			s.AddClause(c...)
		}
		if s.NumClauses() != nClauses {
			t.Fatalf("%d clauses kept, want %d", s.NumClauses(), nClauses)
		}
	}) / nClauses
	if perClause > 0.05 {
		t.Errorf("AddClause: %.3f allocs per clause, want at most 0.05", perClause)
	}
	t.Logf("%.3f allocs per clause", perClause)
}

// TestNewVarAllocs: the per-variable slices, the trail and the heap grow
// by doubling, so N variables cost O(log N) allocations: each of the
// eleven slices moves once per doubling of N. Append's quarter-step
// growth of a large slice would move each about three times per doubling.
func TestNewVarAllocs(t *testing.T) {
	newVars := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			s := New()
			for i := 0; i < n; i++ {
				s.NewVar()
			}
		})
	}
	small, large := newVars(1<<12), newVars(1<<16)
	if limit := small + 12*4; large > limit {
		t.Errorf("2^16 NewVar calls: %v allocs, want at most %v (2^12 calls: %v, plus 12 per doubling)", large, limit, small)
	}
	t.Logf("2^12 variables: %v allocs, 2^16: %v", small, large)
}
