package smt_test

import (
	"testing"

	"fusion/internal/sat"
	"fusion/internal/smt"
	"fusion/internal/solver"
)

func TestSimplifyLocalNegatedComparisons(t *testing.T) {
	b := smt.NewBuilder()
	x, y := b.Var("x", 32), b.Var("y", 32)
	got := smt.SimplifyLocal(b, b.Not(b.Ult(x, y)))
	want := b.Ule(y, x)
	if got != want {
		t.Errorf("!(x < y): got %v, want %v", got, want)
	}
	got2 := smt.SimplifyLocal(b, b.Not(b.Sle(x, y)))
	if got2 != b.Slt(y, x) {
		t.Errorf("!(x <= y): got %v", got2)
	}
}

func TestSimplifyLocalIteEquality(t *testing.T) {
	b := smt.NewBuilder()
	c := b.Var("c", 1)
	ite := b.Ite(c, b.Const(1, 32), b.Const(2, 32))
	// ite(c,1,2) = 1 simplifies to c.
	if got := smt.SimplifyLocal(b, b.Eq(ite, b.Const(1, 32))); got != c {
		t.Errorf("got %v, want c", got)
	}
	// ite(c,1,2) = 2 simplifies to !c.
	if got := smt.SimplifyLocal(b, b.Eq(ite, b.Const(2, 32))); got != b.Not(c) {
		t.Errorf("got %v, want !c", got)
	}
	// ite(c,1,2) = 3 is false.
	if got := smt.SimplifyLocal(b, b.Eq(ite, b.Const(3, 32))); !got.IsFalse() {
		t.Errorf("got %v, want false", got)
	}
}

func TestSimplifyLocalBooleanIte(t *testing.T) {
	b := smt.NewBuilder()
	c, p := b.Var("c", 1), b.Var("p", 1)
	if got := smt.SimplifyLocal(b, b.Ite(c, b.True(), p)); got != b.Or(c, p) {
		t.Errorf("ite(c,true,p): got %v", got)
	}
	if got := smt.SimplifyLocal(b, b.Ite(c, p, b.False())); got != b.And(c, p) {
		t.Errorf("ite(c,p,false): got %v", got)
	}
}

func TestSimplifyLocalComplementaryConjuncts(t *testing.T) {
	b := smt.NewBuilder()
	p, q := b.Var("p", 1), b.Var("q", 1)
	if got := smt.SimplifyLocal(b, b.And(p, q, b.Not(p))); !got.IsFalse() {
		t.Errorf("p ∧ q ∧ !p: got %v, want false", got)
	}
}

func TestSimplifyLocalPreservesSemantics(t *testing.T) {
	b := smt.NewBuilder()
	x, y := b.Var("x", 8), b.Var("y", 8)
	phi := b.And(
		b.Not(b.Ult(x, y)),
		b.Eq(b.Ite(b.Var("c", 1), b.Const(3, 8), b.Const(4, 8)), b.Const(3, 8)),
		b.Eq(b.Add(x, b.Const(1, 8)), b.Const(9, 8)),
	)
	got := smt.SimplifyLocal(b, phi)
	c := b.Var("c", 1)
	for _, asg := range []smt.Assignment{
		{x: 8, y: 3, c: 1},
		{x: 8, y: 9, c: 1},
		{x: 8, y: 3, c: 0},
		{x: 7, y: 3, c: 1},
	} {
		if smt.Eval(phi, asg) != smt.Eval(got, asg) {
			t.Fatalf("semantics changed at %v:\n  before %v\n  after  %v", asg, phi, got)
		}
	}
}

func TestContextSimplifier(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 32)
	// x < 10 implies x < 100: the redundant conjunct must drop.
	phi := b.And(
		b.Ult(x, b.Const(10, 32)),
		b.Ult(x, b.Const(100, 32)),
		b.Eq(b.And(x, b.Const(1, 32)), b.Const(1, 32)),
	)
	cs := &smt.ContextSimplifier{
		Solve: func(bb *smt.Builder, q *smt.Term) (bool, bool) {
			return solver.Decide(solver.Solve(bb, q, solver.Options{}))
		},
	}
	got := cs.Simplify(b, phi)
	if len(smt.Conjuncts(got)) >= len(smt.Conjuncts(phi)) {
		t.Errorf("no conjunct dropped:\n  before %v\n  after  %v", phi, got)
	}
	if cs.Queries == 0 {
		t.Error("the heavyweight simplifier must invoke the solver")
	}
	// Equisatisfiable (here: equivalent) result.
	r1 := solver.Solve(b, phi, solver.Options{})
	r2 := solver.Solve(b, got, solver.Options{})
	if r1.Status != r2.Status {
		t.Errorf("satisfiability changed: %s vs %s", r1.Status, r2.Status)
	}
}

func qeSolve(b *smt.Builder, phi *smt.Term) (sat.Status, smt.Assignment) {
	r := solver.Solve(b, phi, solver.Options{Passes: solver.NoPasses, WantModel: true})
	return r.Status, r.Model
}

func TestEliminateBySubstitution(t *testing.T) {
	b := smt.NewBuilder()
	x, y := b.Var("x", 32), b.Var("y", 32)
	// ∃y. (y = x + 1 ∧ y < 10)  ≡  x + 1 < 10.
	phi := b.And(
		b.Eq(y, b.Add(x, b.Const(1, 32))),
		b.Ult(y, b.Const(10, 32)),
	)
	got, err := smt.Eliminate(b, phi, []*smt.Term{y}, smt.QEOptions{Solve: qeSolve})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range smt.Vars(got) {
		if v == y {
			t.Fatalf("y survived elimination: %v", got)
		}
	}
	// Equivalent on x: satisfiable iff x+1 < 10 unsigned.
	for _, xv := range []uint32{0, 8, 9, 100} {
		want := boolToBit(xv+1 < 10)
		if smt.Eval(got, smt.Assignment{x: xv}) != want {
			t.Errorf("x=%d: projection wrong", xv)
		}
	}
}

func TestEliminateByProjection(t *testing.T) {
	b := smt.NewBuilder()
	x, y := b.Var("x", 2), b.Var("y", 2)
	// ∃y. (x = y | 1): x must have bit 0 set — enumeration over the 2-bit
	// domain stays within budget.
	phi := b.Eq(x, b.Or(y, b.Const(1, 2)))
	got, err := smt.Eliminate(b, phi, []*smt.Term{y}, smt.QEOptions{MaxCubes: 16, Solve: qeSolve})
	if err != nil {
		t.Fatal(err)
	}
	for xv := uint32(0); xv < 4; xv++ {
		want := boolToBit(xv&1 == 1)
		if smt.Eval(got, smt.Assignment{x: xv}) != want {
			t.Errorf("x=%d: got %d, want %d (formula %v)", xv, smt.Eval(got, smt.Assignment{x: xv}), want, got)
		}
	}
}

func TestEliminateBudgetBlowup(t *testing.T) {
	b := smt.NewBuilder()
	x, y := b.Var("x", 32), b.Var("y", 32)
	// ∃y. x = y + y: half the 32-bit domain — enumeration must exhaust the
	// cube budget, the behaviour behind Pinpoint+QE's failures.
	phi := b.Eq(x, b.Add(y, y))
	_, err := smt.Eliminate(b, phi, []*smt.Term{y}, smt.QEOptions{MaxCubes: 8, Solve: qeSolve})
	if err != smt.ErrQEBudget {
		t.Fatalf("expected ErrQEBudget, got %v", err)
	}
}
