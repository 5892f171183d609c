package bitblast

import (
	"testing"

	"fusion/internal/sat"
	"fusion/internal/smt"
)

// solveAssumed runs one guarded query against a warm blaster.
func solveAssumed(t *testing.T, s *sat.Solver, bl *Blaster, phi *smt.Term) sat.Status {
	t.Helper()
	bl.BeginQuery()
	act, _ := bl.Assume(phi)
	st, err := s.SolveAssuming([]sat.Lit{act})
	if err != nil {
		t.Fatalf("solve %s: %v", phi, err)
	}
	return st
}

func TestAssumeRetiresQueries(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 8)
	s := sat.New()
	bl := New(s)

	// Query 1: x < 5 — sat.
	if st := solveAssumed(t, s, bl, b.Ult(x, b.Const(5, 8))); st != sat.Sat {
		t.Fatalf("x<5: got %s, want sat", st)
	}
	// Query 2: x < 5 ∧ x > 9 — unsat, shares the x<5 encoding.
	contra := b.And(b.Ult(x, b.Const(5, 8)), b.Ult(b.Const(9, 8), x))
	if st := solveAssumed(t, s, bl, contra); st != sat.Unsat {
		t.Fatalf("x<5 && x>9: got %s, want unsat", st)
	}
	if !s.Okay() {
		t.Fatal("a retired unsat query must not poison the solver")
	}
	// Query 3: x > 9 alone — sat again; the retired unsat root must not
	// constrain this solve.
	if st := solveAssumed(t, s, bl, b.Ult(b.Const(9, 8), x)); st != sat.Sat {
		t.Fatalf("x>9 after retiring x<5&&x>9: got %s, want sat", st)
	}
}

func TestCrossQueryReuseCounted(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	sum := b.Add(x, y)
	s := sat.New()
	bl := New(s)

	if st := solveAssumed(t, s, bl, b.Eq(sum, b.Const(10, 8))); st != sat.Sat {
		t.Fatalf("first query: got %s, want sat", st)
	}
	if bl.Reused != 0 {
		t.Fatalf("first query counted reuse %d, want 0", bl.Reused)
	}
	terms := bl.NumTerms()
	vars := s.NumVars()

	// Second query over the same subterm: x + y = 20 reuses sum, x, y.
	if st := solveAssumed(t, s, bl, b.Eq(sum, b.Const(20, 8))); st != sat.Sat {
		t.Fatalf("second query: got %s, want sat", st)
	}
	// Reuse is counted at the topmost shared node: the hit on x+y subsumes
	// x and y, whose encodings are reused transitively.
	if bl.Reused < 1 {
		t.Fatalf("second query reused %d terms, want >= 1 (x+y)", bl.Reused)
	}
	if bl.NumTerms() <= terms {
		t.Fatal("second query added no cached terms")
	}
	// The shared adder encoding must not be rebuilt: far fewer new vars
	// than the first query allocated.
	if grown := s.NumVars() - vars; grown > vars/2 {
		t.Fatalf("second query allocated %d new vars over %d — encoding not reused", grown, vars)
	}
}

func TestRepeatedIdenticalQuerySharesGuard(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 8)
	phi := b.Eq(x, b.Const(3, 8))
	s := sat.New()
	bl := New(s)

	bl.BeginQuery()
	a1, _ := bl.Assume(phi)
	bl.BeginQuery()
	a2, _ := bl.Assume(phi)
	if a1 != a2 {
		t.Fatalf("identical root got two activation literals %v, %v", a1, a2)
	}
	st, err := s.SolveAssuming([]sat.Lit{a2})
	if err != nil || st != sat.Sat {
		t.Fatalf("got (%s, %v), want sat", st, err)
	}
	if bl.ModelValue(x) != 3 {
		t.Fatalf("model x = %d, want 3", bl.ModelValue(x))
	}
}

func TestWarmMatchesColdVerdicts(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	queries := []*smt.Term{
		b.Ult(x, y),
		b.And(b.Ult(x, y), b.Ult(y, x)),
		b.Eq(b.Mul(x, b.Const(2, 8)), b.Const(7, 8)), // odd = even*? no: 2x is even
		b.Eq(b.Add(x, y), b.Sub(x, b.Neg(y))),
		b.And(b.Eq(x, b.Const(0, 8)), b.Eq(b.UDiv(y, x), b.Const(255, 8))),
	}
	s := sat.New()
	bl := New(s)
	for i, q := range queries {
		warm := solveAssumed(t, s, bl, q)
		cold := sat.New()
		cb := New(cold)
		cb.AssertTrue(q)
		coldSt, err := cold.Solve()
		if err != nil {
			t.Fatalf("query %d cold: %v", i, err)
		}
		if warm != coldSt {
			t.Fatalf("query %d (%s): warm %s != cold %s", i, q, warm, coldSt)
		}
	}
}

// TestStoppedBlastLeavesNoTrace: a blast stopped between the operands of
// a conjunction unwinds with ErrStopped, memoizes no unfinished term, and
// registers no activation literal or clause for the root — so asking the
// same query again, unstopped, gets the right answer. A Stop that never
// fires leaves the encoding variable-for-variable identical to no Stop.
func TestStoppedBlastLeavesNoTrace(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 8)
	// Unsat only through its second conjunct: memoizing the first alone
	// as the whole conjunction would turn the answer to sat.
	contra := b.And(b.Ult(x, b.Const(5, 8)), b.Ult(b.Const(9, 8), x))

	s := sat.New()
	bl := New(s)
	bl.Stop = func() bool { return true }
	bl.BeginQuery()
	if _, err := bl.Assume(contra); err != ErrStopped {
		t.Fatalf("stopped Assume returned %v, want ErrStopped", err)
	}
	if err := bl.AssertTrue(contra); err != ErrStopped {
		t.Fatalf("stopped AssertTrue returned %v, want ErrStopped", err)
	}
	if _, memo := bl.bits[contra]; memo || len(bl.acts) != 0 {
		t.Fatalf("stopped blast left a trace: memoized=%v activations=%d", memo, len(bl.acts))
	}
	bl.Stop = nil
	if st := solveAssumed(t, s, bl, contra); st != sat.Unsat {
		t.Fatalf("after a stopped blast the same query answered %s, want unsat", st)
	}

	vars := func(stop func() bool) int {
		s := sat.New()
		bl := New(s)
		bl.Stop = stop
		if err := bl.AssertTrue(contra); err != nil {
			t.Fatal(err)
		}
		return s.NumVars()
	}
	if never, none := vars(func() bool { return false }), vars(nil); never != none {
		t.Errorf("a Stop that never fires changed the encoding: %d variables vs %d", never, none)
	}
}
