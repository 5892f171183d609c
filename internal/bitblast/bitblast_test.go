package bitblast

import (
	"math/rand"
	"testing"

	"fusion/internal/sat"
	"fusion/internal/smt"
)

// assertStatus bit-blasts phi, asserts it, and checks the verdict.
func assertStatus(t *testing.T, phi *smt.Term, want sat.Status) *Blaster {
	t.Helper()
	s := sat.New()
	bl := New(s)
	bl.AssertTrue(phi)
	got, err := s.Solve()
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if got != want {
		t.Fatalf("%s: got %s, want %s", phi, got, want)
	}
	return bl
}

func TestBlastConstComparisons(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 8)
	cases := []struct {
		phi  *smt.Term
		want sat.Status
	}{
		{b.Eq(x, b.Const(7, 8)), sat.Sat},
		{b.And(b.Eq(x, b.Const(7, 8)), b.Eq(x, b.Const(9, 8))), sat.Unsat},
		{b.Ult(x, b.Const(0, 8)), sat.Unsat},
		{b.Ule(b.Const(0, 8), x), sat.Sat},
		{b.And(b.Ult(x, b.Const(5, 8)), b.Ult(b.Const(9, 8), x)), sat.Unsat},
		{b.Slt(x, b.Const(0x80, 8)), sat.Unsat}, // nothing is less than INT8_MIN
	}
	for _, c := range cases {
		assertStatus(t, c.phi, c.want)
	}
}

func TestBlastArithmeticIdentities(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	// x + y = y + x must be valid: its negation is unsat.
	comm := b.Eq(b.Add(x, y), b.Add(y, x))
	assertStatus(t, b.Not(comm), sat.Unsat)
	// x - x = 0 (builder folds this; test via indirection x - y with x=y).
	sub := b.And(b.Eq(x, y), b.Not(b.Eq(b.Sub(x, y), b.Const(0, 8))))
	assertStatus(t, sub, sat.Unsat)
	// Overflow wraps: x = 255 and x + 1 = 0.
	wrap := b.And(b.Eq(x, b.Const(255, 8)), b.Eq(b.Add(x, b.Const(1, 8)), b.Const(0, 8)))
	assertStatus(t, wrap, sat.Sat)
	// x * 2 = x << 1 is valid.
	shmul := b.Eq(b.Mul(x, b.Const(2, 8)), b.Shl(x, b.Const(1, 8)))
	assertStatus(t, b.Not(shmul), sat.Unsat)
}

func TestBlastDivisionSemantics(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 8)
	// x / 0 = 255 (all ones) per SMT-LIB.
	dz := b.Not(b.Eq(b.UDiv(x, b.Const(0, 8)), b.Const(255, 8)))
	assertStatus(t, dz, sat.Unsat)
	// x % 0 = x.
	rz := b.Not(b.Eq(b.URem(x, b.Const(0, 8)), x))
	assertStatus(t, rz, sat.Unsat)
	// (x / 3) * 3 + (x % 3) = x is valid.
	three := b.Const(3, 8)
	div := b.Eq(b.Add(b.Mul(b.UDiv(x, three), three), b.URem(x, three)), x)
	assertStatus(t, b.Not(div), sat.Unsat)
}

func TestBlastModelExtraction(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 16)
	y := b.Var("y", 16)
	phi := b.And(
		b.Eq(b.Add(x, y), b.Const(100, 16)),
		b.Eq(b.Sub(x, y), b.Const(20, 16)),
	)
	s := sat.New()
	bl := New(s)
	bl.AssertTrue(phi)
	st, err := s.Solve()
	if err != nil || st != sat.Sat {
		t.Fatalf("got %s err %v, want sat", st, err)
	}
	xv, yv := bl.ModelValue(x), bl.ModelValue(y)
	if (xv+yv)&0xFFFF != 100 || (xv-yv)&0xFFFF != 20 {
		t.Fatalf("model x=%d y=%d violates the constraints", xv, yv)
	}
	// The model must also satisfy phi under the evaluator.
	if smt.Eval(phi, smt.Assignment{x: xv, y: yv}) != 1 {
		t.Fatalf("extracted model does not evaluate phi to true")
	}
}

// randTerm builds a random term over the given variables.
func randTerm(rng *rand.Rand, b *smt.Builder, vars []*smt.Term, depth int) *smt.Term {
	w := vars[0].Width
	if depth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(2) == 0 {
			return vars[rng.Intn(len(vars))]
		}
		return b.Const(rng.Uint32(), w)
	}
	x := randTerm(rng, b, vars, depth-1)
	y := randTerm(rng, b, vars, depth-1)
	switch rng.Intn(12) {
	case 0:
		return b.Add(x, y)
	case 1:
		return b.Sub(x, y)
	case 2:
		return b.Mul(x, y)
	case 3:
		return b.And(x, y)
	case 4:
		return b.Or(x, y)
	case 5:
		return b.Xor(x, y)
	case 6:
		return b.Not(x)
	case 7:
		return b.Neg(x)
	case 8:
		return b.Shl(x, y)
	case 9:
		return b.Lshr(x, y)
	case 10:
		return b.UDiv(x, y)
	default:
		return b.URem(x, y)
	}
}

// randPred wraps a random term into a predicate.
func randPred(rng *rand.Rand, b *smt.Builder, vars []*smt.Term, depth int) *smt.Term {
	x := randTerm(rng, b, vars, depth)
	y := randTerm(rng, b, vars, depth)
	switch rng.Intn(5) {
	case 0:
		return b.Eq(x, y)
	case 1:
		return b.Ult(x, y)
	case 2:
		return b.Ule(x, y)
	case 3:
		return b.Slt(x, y)
	default:
		return b.Sle(x, y)
	}
}

// TestBlastAgreesWithEval is the core encoding correctness property: for a
// random term t and random assignment A, pinning the variables to A forces
// t to bit-blast to exactly Eval(t, A).
func TestBlastAgreesWithEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 120; iter++ {
		b := smt.NewBuilder()
		width := []int{1, 4, 8, 32}[rng.Intn(4)]
		vars := []*smt.Term{b.Var("a", width), b.Var("b", width), b.Var("c", width)}
		tm := randTerm(rng, b, vars, 3)
		asg := smt.Assignment{}
		pin := b.True()
		for _, v := range vars {
			val := rng.Uint32()
			asg[v] = val
			pin = b.And(pin, b.Eq(v, b.Const(val, width)))
		}
		want := smt.Eval(tm, asg)

		// pin ∧ (t = want) must be sat.
		phi := b.And(pin, b.Eq(tm, b.Const(want, width)))
		assertStatus(t, phi, sat.Sat)
		// pin ∧ (t ≠ want) must be unsat.
		phi2 := b.And(pin, b.Not(b.Eq(tm, b.Const(want, width))))
		assertStatus(t, phi2, sat.Unsat)
	}
}

// TestPredicatesAgreeWithEval does the same for the comparison operators.
func TestPredicatesAgreeWithEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 100; iter++ {
		b := smt.NewBuilder()
		width := []int{4, 8, 32}[rng.Intn(3)]
		vars := []*smt.Term{b.Var("a", width), b.Var("b", width)}
		p := randPred(rng, b, vars, 2)
		asg := smt.Assignment{}
		pin := b.True()
		for _, v := range vars {
			val := rng.Uint32()
			asg[v] = val
			pin = b.And(pin, b.Eq(v, b.Const(val, width)))
		}
		want := smt.Eval(p, asg) == 1
		phi := b.And(pin, p)
		wantStatus := sat.Unsat
		if want {
			wantStatus = sat.Sat
		}
		assertStatus(t, phi, wantStatus)
	}
}

func TestBlastIte(t *testing.T) {
	b := smt.NewBuilder()
	c := b.Var("c", 1)
	x := b.Ite(c, b.Const(10, 8), b.Const(20, 8))
	// ite result must be one of the two arms.
	phi := b.And(b.Not(b.Eq(x, b.Const(10, 8))), b.Not(b.Eq(x, b.Const(20, 8))))
	assertStatus(t, phi, sat.Unsat)
	// Choosing the condition forces the arm.
	phi2 := b.And(c, b.Eq(x, b.Const(20, 8)))
	assertStatus(t, phi2, sat.Unsat)
}

func TestBlastSharedSubterms(t *testing.T) {
	// The same sub-term blasted twice must reuse literals (DAG sharing).
	b := smt.NewBuilder()
	x := b.Var("x", 32)
	sum := b.Add(x, b.Const(1, 32))
	phi := b.And(b.Eq(sum, b.Const(5, 32)), b.Ult(sum, b.Const(10, 32)))
	s := sat.New()
	bl := New(s)
	bl.AssertTrue(phi)
	before := s.NumVars()
	bl.blast(sum) // must be cached
	if s.NumVars() != before {
		t.Error("re-blasting a cached term allocated variables")
	}
	st, _ := s.Solve()
	if st != sat.Sat {
		t.Fatalf("got %s, want sat", st)
	}
	if got := bl.ModelValue(x); got != 4 {
		t.Errorf("x = %d, want 4", got)
	}
}

func TestBlastWideShift(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 32)
	// Shifting by >= width yields zero.
	phi := b.Not(b.Eq(b.Shl(x, b.Const(32, 32)), b.Const(0, 32)))
	assertStatus(t, phi, sat.Unsat)
	phi2 := b.Not(b.Eq(b.Lshr(x, b.Const(200, 32)), b.Const(0, 32)))
	assertStatus(t, phi2, sat.Unsat)
}

// mulMiter returns a formula that is unsat exactly when the blasted
// products of x with the constant c, on either side, equal the generic
// multiplier's product of x with a variable pinned to c.
func mulMiter(b *smt.Builder, x *smt.Term, c uint32) *smt.Term {
	k := b.Const(c, x.Width)
	v := b.Var("c", x.Width)
	return b.And(b.Eq(v, k), b.Or(
		b.Not(b.Eq(b.Mul(k, x), b.Mul(v, x))),
		b.Not(b.Eq(b.Mul(x, k), b.Mul(x, v)))))
}

// TestMulConstMatchesGenericWidth8 proves, for every 8-bit constant on
// either side, that the signed-digit product equals the generic
// shift-add multiplier's.
func TestMulConstMatchesGenericWidth8(t *testing.T) {
	for c := uint32(0); c < 256; c++ {
		b := smt.NewBuilder()
		assertStatus(t, mulMiter(b, b.Var("x", 8), c), sat.Unsat)
	}
}

// TestMulConstMatchesGenericWidth32 checks width 32 for the constants
// Gaussian elimination and strength reduction emit — 0, 1, 3, 2^31, −1
// and the inverse of 3 — and for random ones, against the generic
// multiplier with the constant's bits folded in. A miter over all 2^32
// inputs of two different adder networks does not finish (a product by
// 0xAAAAAAAB exhausted 20,000 conflicts in 3 s), so each miter leaves
// one 8-bit window of x free and fixes the other bits at random; the
// four windows cover every bit.
func TestMulConstMatchesGenericWidth32(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cs := []uint32{0, 1, 3, 1 << 31, 0xFFFFFFFF, 0xAAAAAAAB, rng.Uint32(), rng.Uint32()}
	for _, c := range cs {
		for lo := 0; lo < 32; lo += 8 {
			b := smt.NewBuilder()
			x, k := b.Var("x", 32), b.Const(c, 32)
			s := sat.New()
			bl := New(s)
			xb, kb := bl.blast(x), bl.constVec(c, 32)
			s.AddClause(
				bl.eqVec(bl.blast(b.Mul(k, x)), bl.mulVec(kb, xb)).Flip(),
				bl.eqVec(bl.blast(b.Mul(x, k)), bl.mulVec(xb, kb)).Flip())
			for i, l := range xb {
				if i >= lo && i < lo+8 {
					continue
				}
				if rng.Intn(2) == 0 {
					l = l.Flip()
				}
				s.AddClause(l)
			}
			if st, err := s.Solve(); err != nil || st != sat.Unsat {
				t.Fatalf("%#x · x with bits %d..%d free: %v, %v; want unsat", c, lo, lo+7, st, err)
			}
		}
	}
}

// TestMulConstSize guards the encoding's size: y = −1 · x at width 32
// negates x (about two gates per bit) instead of summing 32 shifted
// copies of it, which took 2,514 variables.
func TestMulConstSize(t *testing.T) {
	b := smt.NewBuilder()
	x, y := b.Var("x", 32), b.Var("y", 32)
	s := sat.New()
	if err := New(s).AssertTrue(b.Eq(y, b.Mul(b.Const(0xFFFFFFFF, 32), x))); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d variables, %d clauses", s.NumVars(), s.NumClauses())
	if s.NumVars() >= 200 {
		t.Errorf("y = 0xFFFFFFFF * x blasts into %d variables, want under 200", s.NumVars())
	}
}
