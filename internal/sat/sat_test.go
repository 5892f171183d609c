package sat

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

func lits(s *Solver, xs ...int) []Lit {
	out := make([]Lit, len(xs))
	for i, x := range xs {
		if x > 0 {
			out[i] = MkLit(x-1, false)
		} else {
			out[i] = MkLit(-x-1, true)
		}
	}
	return out
}

// newSolverWithVars returns a solver with n allocated variables.
func newSolverWithVars(n int) *Solver {
	s := New()
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	return s
}

func solveDIMACS(t *testing.T, nVars int, clauses [][]int) (Status, *Solver) {
	t.Helper()
	s := newSolverWithVars(nVars)
	for _, c := range clauses {
		s.AddClause(lits(s, c...)...)
	}
	st, err := s.Solve()
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	return st, s
}

func checkModel(t *testing.T, s *Solver, clauses [][]int) {
	t.Helper()
	for _, c := range clauses {
		ok := false
		for _, x := range c {
			v := x
			if v < 0 {
				v = -v
			}
			val := s.ValueOf(v - 1)
			if (x > 0) == val {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("model does not satisfy clause %v", c)
		}
	}
}

func TestLitEncoding(t *testing.T) {
	l := MkLit(5, true)
	if l.Var() != 5 || !l.Neg() {
		t.Errorf("MkLit round trip failed: %v", l)
	}
	if l.Flip().Neg() || l.Flip().Var() != 5 {
		t.Errorf("Flip failed")
	}
}

func TestTrivialSat(t *testing.T) {
	cls := [][]int{{1, 2}, {-1, 2}, {1, -2}}
	st, s := solveDIMACS(t, 2, cls)
	if st != Sat {
		t.Fatalf("got %s, want sat", st)
	}
	checkModel(t, s, cls)
}

func TestTrivialUnsat(t *testing.T) {
	st, _ := solveDIMACS(t, 1, [][]int{{1}, {-1}})
	if st != Unsat {
		t.Fatalf("got %s, want unsat", st)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := newSolverWithVars(1)
	if s.AddClause() {
		t.Fatal("empty clause must make the formula unsat")
	}
	st, _ := s.Solve()
	if st != Unsat {
		t.Fatalf("got %s, want unsat", st)
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := newSolverWithVars(2)
	s.AddClause(lits(s, 1, -1)...)
	s.AddClause(lits(s, 2)...)
	st, err := s.Solve()
	if err != nil || st != Sat {
		t.Fatalf("got %s err %v, want sat", st, err)
	}
	if !s.ValueOf(1) {
		t.Error("unit clause x2 not respected")
	}
}

func TestXorChainUnsat(t *testing.T) {
	// x1 xor x2, x2 xor x3, x1 xor x3 with odd parity forced: encode
	// (a != b) as two clauses.
	neq := func(a, b int) [][]int { return [][]int{{a, b}, {-a, -b}} }
	var cls [][]int
	cls = append(cls, neq(1, 2)...)
	cls = append(cls, neq(2, 3)...)
	cls = append(cls, neq(1, 3)...)
	st, _ := solveDIMACS(t, 3, cls)
	if st != Unsat {
		t.Fatalf("odd xor cycle: got %s, want unsat", st)
	}
}

// pigeonhole generates the classic unsatisfiable PHP(n+1, n) instance.
func pigeonhole(n int) (int, [][]int) {
	v := func(p, h int) int { return p*n + h + 1 } // pigeon p in hole h
	var cls [][]int
	for p := 0; p <= n; p++ {
		var c []int
		for h := 0; h < n; h++ {
			c = append(c, v(p, h))
		}
		cls = append(cls, c)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				cls = append(cls, []int{-v(p1, h), -v(p2, h)})
			}
		}
	}
	return (n + 1) * n, cls
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		nv, cls := pigeonhole(n)
		st, _ := solveDIMACS(t, nv, cls)
		if st != Unsat {
			t.Fatalf("PHP(%d+1,%d): got %s, want unsat", n, n, st)
		}
	}
}

func TestGraphColoringSat(t *testing.T) {
	// 3-color a 5-cycle (chromatic number 3): satisfiable.
	n := 5
	v := func(node, color int) int { return node*3 + color + 1 }
	var cls [][]int
	for i := 0; i < n; i++ {
		cls = append(cls, []int{v(i, 0), v(i, 1), v(i, 2)})
		for c1 := 0; c1 < 3; c1++ {
			for c2 := c1 + 1; c2 < 3; c2++ {
				cls = append(cls, []int{-v(i, c1), -v(i, c2)})
			}
		}
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		for c := 0; c < 3; c++ {
			cls = append(cls, []int{-v(i, c), -v(j, c)})
		}
	}
	st, s := solveDIMACS(t, n*3, cls)
	if st != Sat {
		t.Fatalf("5-cycle 3-coloring: got %s, want sat", st)
	}
	checkModel(t, s, cls)
}

// bruteForce decides satisfiability by enumeration for small instances.
func bruteForce(nVars int, clauses [][]int) bool {
	for m := 0; m < 1<<uint(nVars); m++ {
		ok := true
		for _, c := range clauses {
			cok := false
			for _, x := range c {
				v := x
				if v < 0 {
					v = -v
				}
				val := m>>(uint(v)-1)&1 == 1
				if (x > 0) == val {
					cok = true
					break
				}
			}
			if !cok {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		nVars := 3 + rng.Intn(10)
		nClauses := 2 + rng.Intn(5*nVars)
		var cls [][]int
		for i := 0; i < nClauses; i++ {
			var c []int
			for j := 0; j < 3; j++ {
				v := 1 + rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					v = -v
				}
				c = append(c, v)
			}
			cls = append(cls, c)
		}
		want := bruteForce(nVars, cls)
		st, s := solveDIMACS(t, nVars, cls)
		if (st == Sat) != want {
			t.Fatalf("iter %d: got %s, brute force says sat=%v\nclauses: %v",
				iter, st, want, cls)
		}
		if st == Sat {
			checkModel(t, s, cls)
		}
	}
}

func TestConflictBudget(t *testing.T) {
	nv, cls := pigeonhole(8) // hard enough to exceed a tiny budget
	s := newSolverWithVars(nv)
	for _, c := range cls {
		s.AddClause(lits(s, c...)...)
	}
	s.MaxConflicts = 10
	_, err := s.Solve()
	if err != ErrBudget {
		t.Fatalf("got err %v, want ErrBudget", err)
	}
}

func TestDeadline(t *testing.T) {
	nv, cls := pigeonhole(9)
	s := newSolverWithVars(nv)
	for _, c := range cls {
		s.AddClause(lits(s, c...)...)
	}
	s.Deadline = time.Now().Add(10 * time.Millisecond)
	start := time.Now()
	_, err := s.Solve()
	if err == nil {
		return // solved quickly; nothing to assert
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline not honored: ran %v", elapsed)
	}
}

func TestIncrementalStats(t *testing.T) {
	st, s := solveDIMACS(t, 3, [][]int{{1, 2, 3}, {-1, -2}, {-2, -3}, {-1, -3}})
	if st != Sat {
		t.Fatalf("got %s, want sat", st)
	}
	if s.Decisions < 0 || s.Props < 0 {
		t.Error("statistics must be non-negative")
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d): got %d, want %d", i+1, got, w)
		}
	}
}

// TestContextPreCancelled: a solver handed an already-cancelled context
// returns Unknown with ErrBudget before any search happens.
func TestContextPreCancelled(t *testing.T) {
	nv, cls := pigeonhole(6)
	s := newSolverWithVars(nv)
	for _, c := range cls {
		s.AddClause(lits(s, c...)...)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Ctx = ctx
	st, err := s.Solve()
	if st != Unknown || err != ErrBudget {
		t.Fatalf("got (%s, %v), want (unknown, ErrBudget)", st, err)
	}
}

// TestContextCancelledMidSearch: cancellation during a hard search aborts
// the CDCL loop promptly with Unknown.
func TestContextCancelledMidSearch(t *testing.T) {
	nv, cls := pigeonhole(9)
	s := newSolverWithVars(nv)
	for _, c := range cls {
		s.AddClause(lits(s, c...)...)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	s.Ctx = ctx
	start := time.Now()
	st, err := s.Solve()
	if err == nil {
		return // solved before the deadline; nothing to assert
	}
	if st != Unknown || err != ErrBudget {
		t.Fatalf("got (%s, %v), want (unknown, ErrBudget)", st, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation not honored: ran %v", elapsed)
	}
}

// TestAddClauseNormalizes pins AddClause's normal form: duplicates and
// root-false literals drop out, the rest keep their first-occurrence
// order, and a tautology or a root-true literal leaves no clause.
func TestAddClauseNormalizes(t *testing.T) {
	s := newSolverWithVars(5)
	s.AddClause(lits(s, -5)...) // x5 false at the root
	s.AddClause(lits(s, 3, -1, 3, 5, 2, -1, 4)...)
	s.AddClause(lits(s, 1, 2, 3, -2)...) // tautology
	s.AddClause(lits(s, 1, -5, 2)...)    // satisfied at the root
	if s.NumClauses() != 1 {
		t.Fatalf("%d clauses attached, want 1", s.NumClauses())
	}
	want := lits(s, 3, -1, 2, 4)
	got := s.lits(s.clauses[0])
	if len(got) != len(want) {
		t.Fatalf("clause %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("clause %v, want %v", got, want)
		}
	}
	if !s.AddClause(lits(s, 2, 2)...) || s.value(MkLit(1, false)) != lTrue {
		t.Error("a duplicated unit must be asserted at the root")
	}
}

// TestArenaKeepsLiterals adds clauses of mixed lengths, one of them
// longer than the rest together, solves (propagation swaps watched
// literals in place, neighbours in the arena must not see it) and adds
// more between solves, then requires every problem clause to hold exactly
// the literals it was added with.
func TestArenaKeepsLiterals(t *testing.T) {
	const nVars = 4200
	rng := rand.New(rand.NewSource(9))
	s := newSolverWithVars(nVars)
	var added [][]Lit
	add := func(n int) {
		for i := 0; i < n; i++ {
			k := 3 + rng.Intn(3)
			if i == n/2 {
				k = nVars - 10
			}
			var c []Lit
			for _, v := range rng.Perm(nVars)[:k] {
				c = append(c, MkLit(v, rng.Intn(2) == 0))
			}
			s.AddClause(c...)
			added = append(added, c)
		}
	}
	add(1300)
	if st, err := s.Solve(); err != nil || st != Sat {
		t.Fatalf("Solve = %v, %v; want sat", st, err)
	}
	add(1000)
	if _, err := s.SolveAssuming([]Lit{MkLit(0, false), MkLit(1, true)}); err != nil {
		t.Fatal(err)
	}
	if s.NumClauses() != len(added) {
		t.Fatalf("%d problem clauses, want %d", s.NumClauses(), len(added))
	}
	for i, c := range s.clauses {
		lits := s.lits(c)
		if cap(lits) != len(lits) {
			t.Fatalf("clause %d: capacity %d past its %d literals", i, cap(lits), len(lits))
		}
		got := append([]Lit(nil), lits...)
		want := append([]Lit(nil), added[i]...)
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		if !slices.Equal(got, want) {
			t.Fatalf("clause %d holds %v, was added as %v", i, lits, added[i])
		}
	}
}

// TestVarHeapOrder drives the VSIDS heap through pushes, activity bumps
// and pops, and requires every pop to return a present variable of
// maximal activity.
func TestVarHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var act []float64
	h := &varHeap{act: &act}
	in := map[int]bool{}
	for i := 0; i < 5000; i++ {
		switch op := rng.Intn(4); {
		case op == 0 && len(in) > 0:
			v, ok := h.pop()
			if !ok || !in[v] {
				t.Fatalf("pop returned %d (ok %v), not in the heap", v, ok)
			}
			for u := range in {
				if act[u] > act[v] {
					t.Fatalf("pop returned %d (activity %g) before %d (%g)", v, act[v], u, act[u])
				}
			}
			delete(in, v)
		case op == 1 && len(act) > 0:
			v := rng.Intn(len(act))
			act[v] += rng.Float64()
			h.update(v)
		default:
			v := rng.Intn(len(act) + 1)
			if v == len(act) {
				act = append(act, rng.Float64())
			}
			h.push(v)
			in[v] = true
		}
		if len(h.items) != len(in) {
			t.Fatalf("heap holds %d variables, want %d", len(h.items), len(in))
		}
	}
}

// TestReduceDBReclaimsArena runs a random 3-SAT instance through many
// reductions of the learned-clause database and then checks the clause
// store: the arena holds under twice its live literals, the garbage count
// is exact, every live clause is watched by exactly its first two
// literals, the watch lists tile the pool without overlap, and every
// reason is a live clause that implies its variable.
func TestReduceDBReclaimsArena(t *testing.T) {
	const nVars = 250
	rng := rand.New(rand.NewSource(3))
	s := newSolverWithVars(nVars)
	for i := 0; i < nVars*426/100; i++ {
		var c []Lit
		for _, v := range rng.Perm(nVars)[:3] {
			c = append(c, MkLit(v, rng.Intn(2) == 0))
		}
		s.AddClause(c...)
	}
	s.MaxConflicts = 30000
	if _, err := s.Solve(); err != nil && err != ErrBudget {
		t.Fatal(err)
	}
	t.Logf("%d conflicts, %d learned clauses kept, arena %d literals", s.Conflicts, len(s.learnts), len(s.arena))
	if s.Conflicts < 5000 {
		t.Fatalf("only %d conflicts; the instance does not exercise reduceDB", s.Conflicts)
	}
	live := make(map[cref]bool)
	liveLits := 0
	for _, cs := range [][]cref{s.clauses, s.learnts} {
		for _, c := range cs {
			if live[c] {
				t.Fatalf("clause %d listed twice", c)
			}
			live[c] = true
			liveLits += len(s.lits(c))
		}
	}
	if len(s.headers) >= len(s.clauses)+int(s.Conflicts)/2 {
		t.Errorf("%d headers for %d problem clauses after %d conflicts: deleted clauses were never reclaimed",
			len(s.headers), len(s.clauses), s.Conflicts)
	}
	if len(s.arena) > 2*liveLits {
		t.Errorf("arena holds %d literals, %d of them live", len(s.arena), liveLits)
	}
	if s.wasted != len(s.arena)-liveLits {
		t.Errorf("wasted %d, want %d", s.wasted, len(s.arena)-liveLits)
	}
	watched := make(map[cref][]Lit)
	owner := make([]int, len(s.pool))
	capSum := 0
	for l, w := range s.watches {
		if w.n > w.cap || int(w.off+w.cap) > len(s.pool) {
			t.Fatalf("watch list of %d: %+v out of a pool of %d", l, w, len(s.pool))
		}
		capSum += int(w.cap)
		for i := w.off; i < w.off+w.cap; i++ {
			if owner[i] != 0 {
				t.Fatalf("watch lists of %d and %d overlap at %d", owner[i]-1, l, i)
			}
			owner[i] = l + 1
		}
		for _, c := range s.pool[w.off : w.off+w.n] {
			watched[c] = append(watched[c], Lit(l))
		}
	}
	if s.poolWaste != len(s.pool)-capSum {
		t.Errorf("poolWaste %d, want %d", s.poolWaste, len(s.pool)-capSum)
	}
	for c := range live {
		lits := s.lits(c)
		got := watched[c]
		if len(got) != 2 || !slices.Contains(got, lits[0].Flip()) || !slices.Contains(got, lits[1].Flip()) {
			t.Fatalf("clause %d %v is watched from %v", c, lits, got)
		}
	}
	if len(watched) != len(live) {
		t.Errorf("%d clauses watched, %d live", len(watched), len(live))
	}
	for v, r := range s.reason {
		if r == crefUndef {
			continue
		}
		if !live[r] {
			t.Errorf("variable %d has the dead reason %d", v, r)
		} else if s.lits(r)[0].Var() != v {
			t.Errorf("variable %d has reason %d %v, which does not imply it", v, r, s.lits(r))
		}
	}
}
