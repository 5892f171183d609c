package smt_test

import (
	"context"
	"fmt"

	"fusion/internal/smt"
)

// ExampleBuilder shows term construction with hash-consing and the
// constant folding the Builder performs.
func ExampleBuilder() {
	b := smt.NewBuilder()
	x := b.Var("x", 32)
	sum := b.Add(x, b.Const(1, 32))
	same := b.Add(x, b.Const(1, 32))
	fmt.Println(sum == same)                           // interned
	fmt.Println(b.Add(b.Const(2, 32), b.Const(3, 32))) // folded
	fmt.Println(b.Eq(x, x))                            // reflexive
	// Output:
	// true
	// #x00000005
	// true
}

// ExamplePreprocess shows the preprocessing pipeline deciding a formula
// without any search: the paper's Figure 1(b) effect in miniature.
func ExamplePreprocess() {
	b := smt.NewBuilder()
	a, c := b.Var("a", 32), b.Var("c", 32)
	d, e := b.Var("d", 32), b.Var("e", 32)
	phi := b.And(
		b.Eq(c, b.Mul(a, b.Const(2, 32))), // c = 2a
		b.Eq(d, b.Mul(e, b.Const(2, 32))), // d = 2e
		b.Slt(c, d),                       // and c < d must hold
	)
	fmt.Println(smt.Preprocess(context.Background(), b, phi, smt.DefaultPasses()))
	// Output:
	// true
}

// ExampleToSMTLIB exports a formula for an external solver.
func ExampleToSMTLIB() {
	b := smt.NewBuilder()
	x := b.Var("x", 8)
	fmt.Print(smt.ToSMTLIB(b.Ult(x, b.Const(10, 8))))
	// Output:
	// (set-logic QF_BV)
	// (declare-const x (_ BitVec 8))
	// (assert (bvult x (_ bv10 8)))
	// (check-sat)
}
