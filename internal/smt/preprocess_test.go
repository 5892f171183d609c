package smt_test

import (
	"context"
	"math/rand"
	"testing"

	"fusion/internal/sat"
	"fusion/internal/smt"
	"fusion/internal/solver"
)

func TestConstPropForward(t *testing.T) {
	b := smt.NewBuilder()
	x, y := b.Var("x", 32), b.Var("y", 32)
	phi := b.And(
		b.Eq(x, b.Const(5, 32)),
		b.Eq(y, b.Add(x, b.Const(1, 32))),
		b.Ult(y, b.Const(10, 32)),
	)
	got := smt.Preprocess(context.Background(), b, phi, []smt.Pass{{Name: "cp", Run: smt.ConstProp}})
	if !got.IsTrue() {
		t.Errorf("constant propagation should decide: got %v", got)
	}
}

func TestConstPropBackward(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 32)
	// x + 3 = 10 solves backward to x = 7, then 7 < 5 folds to false.
	phi := b.And(
		b.Eq(b.Add(x, b.Const(3, 32)), b.Const(10, 32)),
		b.Ult(x, b.Const(5, 32)),
	)
	got := smt.ConstProp(b, phi)
	if !got.IsFalse() {
		t.Errorf("backward constant propagation should refute: got %v", got)
	}
}

func TestConstPropThroughOddMul(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 32)
	// 3x = 12 gives x = 4 (3 is invertible mod 2^32).
	phi := b.And(
		b.Eq(b.Mul(b.Const(3, 32), x), b.Const(12, 32)),
		b.Eq(x, b.Const(4, 32)),
	)
	if got := smt.ConstProp(b, phi); !got.IsTrue() {
		t.Errorf("odd multiplier inversion failed: got %v", got)
	}
	phi2 := b.And(
		b.Eq(b.Mul(b.Const(3, 32), x), b.Const(12, 32)),
		b.Eq(x, b.Const(5, 32)),
	)
	if got := smt.ConstProp(b, phi2); !got.IsFalse() {
		t.Errorf("conflicting pin should refute: got %v", got)
	}
}

func TestConstPropBooleanPins(t *testing.T) {
	b := smt.NewBuilder()
	p, q := b.Var("p", 1), b.Var("q", 1)
	phi := b.And(p, b.Not(q), b.Or(q, p))
	if got := smt.ConstProp(b, phi); !got.IsTrue() {
		t.Errorf("boolean pinning failed: got %v", got)
	}
	phi2 := b.And(p, b.Not(p))
	if got := smt.ConstProp(b, phi2); !got.IsFalse() {
		t.Errorf("p and !p should refute: got %v", got)
	}
}

func TestEqualityProp(t *testing.T) {
	b := smt.NewBuilder()
	x, y, z := b.Var("x", 32), b.Var("y", 32), b.Var("z", 32)
	phi := b.And(
		b.Eq(x, y),
		b.Eq(y, z),
		b.Ult(x, z),
	)
	got := smt.EqualityProp(b, phi)
	// After merging x=y=z, x < z folds to false.
	if !got.IsFalse() {
		t.Errorf("equality propagation should refute x<z under x=y=z: got %v", got)
	}
}

func TestStrengthReduce(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 32)
	got := smt.StrengthReduce(b, b.Eq(b.Mul(x, b.Const(8, 32)), b.Const(0, 32)))
	hasShl := false
	var walk func(*smt.Term)
	walk = func(t *smt.Term) {
		if t.Op == smt.OpShl {
			hasShl = true
		}
		for _, a := range t.Args {
			walk(a)
		}
	}
	walk(got)
	if !hasShl {
		t.Errorf("mul by 8 should become a shift: got %v", got)
	}
	// Semantics preserved.
	for _, v := range []uint32{0, 1, 0x20000000, 7} {
		if smt.Eval(got, smt.Assignment{x: v}) != boolToBit(v*8 == 0) {
			t.Errorf("strength reduction changed semantics at x=%d", v)
		}
	}
	// x % 16 becomes a mask.
	got2 := smt.StrengthReduce(b, b.Eq(b.URem(x, b.Const(16, 32)), b.Const(3, 32)))
	for _, v := range []uint32{3, 19, 4} {
		if smt.Eval(got2, smt.Assignment{x: v}) != boolToBit(v%16 == 3) {
			t.Errorf("mask reduction changed semantics at x=%d", v)
		}
	}
}

func TestGaussianElimination(t *testing.T) {
	b := smt.NewBuilder()
	x, y := b.Var("x", 32), b.Var("y", 32)
	// x + y = 10 and x - 2y = 4: eliminating x leaves -3y = -6, and 3 is
	// invertible mod 2^32, so y = 2 and x = 8. Then x < y refutes.
	phi := b.And(
		b.Eq(b.Add(x, y), b.Const(10, 32)),
		b.Eq(b.Sub(x, b.Mul(b.Const(2, 32), y)), b.Const(4, 32)),
		b.Ult(x, y),
	)
	got := smt.Preprocess(context.Background(), b, phi, []smt.Pass{
		{Name: "gauss", Run: smt.GaussianEliminate},
		{Name: "cp", Run: smt.ConstProp},
	})
	if !got.IsFalse() {
		t.Errorf("gaussian elimination should refute: got %v", got)
	}
}

func TestGaussianEvenCoefficientNeedsSearch(t *testing.T) {
	// x + y = 10 and x - y = 4 leave an even-coefficient residue
	// (2y = 6 has two solutions mod 2^32), so preprocessing alone cannot
	// decide x < y; the full solver must still refute it.
	b := smt.NewBuilder()
	x, y := b.Var("x", 32), b.Var("y", 32)
	phi := b.And(
		b.Eq(b.Add(x, y), b.Const(10, 32)),
		b.Eq(b.Sub(x, y), b.Const(4, 32)),
		b.Ult(x, y),
	)
	r := solver.Solve(b, phi, solver.Options{})
	if r.Status != sat.Unsat {
		t.Errorf("got %s, want unsat", r.Status)
	}
}

func TestGaussianUnderdetermined(t *testing.T) {
	b := smt.NewBuilder()
	x, y, z := b.Var("x", 32), b.Var("y", 32), b.Var("z", 32)
	// One equation, three unknowns: must still substitute one pivot.
	phi := b.And(
		b.Eq(b.Add(x, b.Add(y, z)), b.Const(10, 32)),
		b.Ult(y, b.Const(100, 32)),
	)
	got := smt.GaussianEliminate(b, phi)
	if got == phi {
		t.Errorf("expected a pivot substitution to change the formula")
	}
	// Equisatisfiability sanity: both must be satisfiable.
	r := solver.Solve(b, got, solver.Options{Passes: solver.NoPasses})
	if r.Status != sat.Sat {
		t.Errorf("rewritten formula must remain satisfiable, got %s", r.Status)
	}
}

func TestUnconstrainedBasic(t *testing.T) {
	b := smt.NewBuilder()
	x, y := b.Var("x", 32), b.Var("y", 32)
	// x < y with both free: unconstrained, drops to true.
	if got := smt.UnconstrainedElim(b, b.Ult(x, y)); !got.IsTrue() {
		t.Errorf("x < y with free x, y should be decided: got %v", got)
	}
	// x + 1 = y: equality with an unconstrained side.
	if got := smt.UnconstrainedElim(b, b.Eq(b.Add(x, b.Const(1, 32)), y)); !got.IsTrue() {
		t.Errorf("x+1 = y should be decided: got %v", got)
	}
}

func TestUnconstrainedRespectsSharing(t *testing.T) {
	b := smt.NewBuilder()
	x, y := b.Var("x", 32), b.Var("y", 32)
	// x occurs in both conjuncts: not unconstrained, nothing may be
	// dropped.
	phi := b.And(b.Ult(x, y), b.Eq(x, b.Const(0, 32)))
	got := smt.UnconstrainedElim(b, phi)
	if got.IsTrue() {
		t.Error("shared variable wrongly treated as unconstrained")
	}
}

// TestUnconstrainedPaperExample reproduces §2: the path condition of
// Figure 1(b) is decided by unconstrained-value propagation without any
// SAT search.
func TestUnconstrainedPaperExample(t *testing.T) {
	b := smt.NewBuilder()
	w := 32
	v := func(n string) *smt.Term { return b.Var(n, w) }
	two := b.Const(2, w)
	a, bb, c, d := v("a"), v("b"), v("c"), v("d")
	x1, y1, z1 := v("x1"), v("y1"), v("z1")
	x2, y2, z2 := v("x2"), v("y2"), v("z2")
	e := b.Var("e", 1)
	phi := b.And(
		b.Eq(y1, b.Mul(x1, two)), b.Eq(z1, y1), // bar at call site 1
		b.Eq(a, x1), b.Eq(c, z1),
		b.Eq(y2, b.Mul(x2, two)), b.Eq(z2, y2), // bar at call site 2
		b.Eq(bb, x2), b.Eq(d, z2),
		e, b.Eq(e, b.Slt(c, d)),
	)
	got := smt.Preprocess(context.Background(), b, phi, smt.DefaultPasses())
	if !got.IsTrue() {
		t.Fatalf("the Figure 1(b) condition should be decided by preprocessing, got %v", got)
	}
	// Confirm against the full solver for good measure.
	r := solver.Solve(b, phi, solver.Options{Passes: solver.NoPasses})
	if r.Status != sat.Sat {
		t.Fatalf("ground truth: expected sat, got %s", r.Status)
	}
}

// TestPreprocessEquisatisfiable is the global safety property: on random
// conjunctions, the full pipeline must preserve satisfiability as judged by
// the pass-free solver.
func TestPreprocessEquisatisfiable(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 80; iter++ {
		b := smt.NewBuilder()
		w := 8
		vars := []*smt.Term{b.Var("a", w), b.Var("b", w), b.Var("c", w)}
		term := func(depth int) *smt.Term {
			var rec func(d int) *smt.Term
			rec = func(d int) *smt.Term {
				if d == 0 || rng.Intn(3) == 0 {
					if rng.Intn(2) == 0 {
						return vars[rng.Intn(len(vars))]
					}
					return b.Const(rng.Uint32()%16, w)
				}
				x, y := rec(d-1), rec(d-1)
				switch rng.Intn(5) {
				case 0:
					return b.Add(x, y)
				case 1:
					return b.Sub(x, y)
				case 2:
					return b.Mul(x, b.Const(rng.Uint32()%8, w))
				case 3:
					return b.Xor(x, y)
				default:
					return b.Neg(x)
				}
			}
			return rec(depth)
		}
		var conjs []*smt.Term
		for i := 0; i < 2+rng.Intn(4); i++ {
			x, y := term(2), term(2)
			switch rng.Intn(3) {
			case 0:
				conjs = append(conjs, b.Eq(x, y))
			case 1:
				conjs = append(conjs, b.Ult(x, y))
			default:
				conjs = append(conjs, b.Sle(x, y))
			}
		}
		phi := b.And(conjs...)
		want := solver.Solve(b, phi, solver.Options{Passes: solver.NoPasses}).Status
		pre := smt.Preprocess(context.Background(), b, phi, smt.DefaultPasses())
		var got sat.Status
		switch {
		case pre.IsTrue():
			got = sat.Sat
		case pre.IsFalse():
			got = sat.Unsat
		default:
			got = solver.Solve(b, pre, solver.Options{Passes: solver.NoPasses}).Status
		}
		if got != want {
			t.Fatalf("iter %d: preprocessing changed satisfiability: %s -> %s\nphi: %v\npre: %v",
				iter, want, got, phi, pre)
		}
	}
}

func TestSolveEndToEnd(t *testing.T) {
	b := smt.NewBuilder()
	x, y := b.Var("x", 32), b.Var("y", 32)
	phi := b.And(
		b.Eq(b.Add(x, y), b.Const(100, 32)),
		b.Ult(x, b.Const(20, 32)),
		b.Ult(y, b.Const(90, 32)),
	)
	r := solver.Solve(b, phi, solver.Options{WantModel: true})
	if r.Status != sat.Sat {
		t.Fatalf("got %s, want sat", r.Status)
	}
	if r.Model == nil {
		t.Fatal("WantModel must produce a model")
	}
	if smt.Eval(phi, r.Model) != 1 {
		t.Error("model does not satisfy the formula")
	}
	// An unsatisfiable variant.
	phi2 := b.And(
		b.Eq(b.Add(x, y), b.Const(100, 32)),
		b.Ult(x, b.Const(20, 32)),
		b.Ult(y, b.Const(50, 32)),
	)
	if r2 := solver.Solve(b, phi2, solver.Options{}); r2.Status != sat.Unsat {
		t.Fatalf("got %s, want unsat", r2.Status)
	}
}

func TestSolvePreprocessedFlag(t *testing.T) {
	b := smt.NewBuilder()
	x, y := b.Var("x", 32), b.Var("y", 32)
	r := solver.Solve(b, b.Ult(x, y), solver.Options{NoProbe: true})
	if r.Status != sat.Sat || !r.Preprocessed {
		t.Errorf("free comparison should be decided in preprocessing: %+v", r)
	}
	r2 := solver.Solve(b, b.Ult(x, y), solver.Options{Passes: solver.NoPasses, NoProbe: true})
	if r2.Status != sat.Sat || r2.Preprocessed {
		t.Errorf("with passes and probing disabled the SAT core must run: %+v", r2)
	}
	r3 := solver.Solve(b, b.Ult(x, y), solver.Options{Passes: solver.NoPasses})
	if r3.Status != sat.Sat || !r3.DecidedByProbe {
		t.Errorf("the probe should decide a free comparison: %+v", r3)
	}
}

func boolToBit(v bool) uint32 {
	if v {
		return 1
	}
	return 0
}
