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
