// Package smt implements the bit-vector SMT terms, preprocessing passes,
// and solving front-end used throughout the analysis. Terms are hash-consed
// through a Builder; booleans are width-1 bit-vectors, which keeps the
// logical and bit-vector fragments uniform all the way down to bit-blasting.
//
// The preprocessing passes mirror the ones the paper lists for its solver
// (§4): forward and backward constant propagation, equality propagation,
// unconstrained-variable elimination, Gaussian elimination, and strength
// reduction. They are exposed individually so the fused solver can run them
// per function on local conditions (Algorithm 6) and so the evaluation can
// ablate them.
package smt

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// Op is a term operator.
type Op int

// Term operators. Comparison and equality operators yield width-1 terms.
const (
	OpVar   Op = iota // free variable
	OpConst           // constant (Const holds the value, masked to Width)
	OpNot             // bitwise complement; logical not on width 1
	OpAnd             // n-ary bitwise and; logical and on width 1
	OpOr              // n-ary bitwise or; logical or on width 1
	OpXor             // bitwise xor
	OpAdd             // modular addition
	OpSub             // modular subtraction
	OpMul             // modular multiplication
	OpUDiv            // unsigned division (x/0 = all-ones, the SMT-LIB rule)
	OpURem            // unsigned remainder (x%0 = x)
	OpNeg             // two's-complement negation
	OpShl             // shift left (shift amounts >= width give 0)
	OpLshr            // logical shift right
	OpEq              // equality, any width -> width 1
	OpUlt             // unsigned less-than -> width 1
	OpUle             // unsigned less-or-equal -> width 1
	OpSlt             // signed less-than -> width 1
	OpSle             // signed less-or-equal -> width 1
	OpIte             // if-then-else: Args[0] is width 1
)

var opNames = [...]string{
	OpVar: "var", OpConst: "const", OpNot: "not", OpAnd: "and", OpOr: "or",
	OpXor: "xor", OpAdd: "bvadd", OpSub: "bvsub", OpMul: "bvmul",
	OpUDiv: "bvudiv", OpURem: "bvurem", OpNeg: "bvneg", OpShl: "bvshl",
	OpLshr: "bvlshr", OpEq: "=", OpUlt: "bvult", OpUle: "bvule",
	OpSlt: "bvslt", OpSle: "bvsle", OpIte: "ite",
}

func (op Op) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("Op(%d)", int(op))
}

// Term is an immutable, hash-consed term. Terms must only be created
// through a Builder; two terms from the same Builder are semantically
// identical exactly when their pointers are equal.
type Term struct {
	ID    int
	Op    Op
	Width int // result width in bits; 1 encodes boolean
	Args  []*Term
	Const uint32 // value for OpConst
	Name  string // name for OpVar

	// vars summarizes the term's free variables: every variable owns one
	// of 64 bits, and a term's summary is the union of its arguments'.
	// A term whose summary misses every bit of a variable cannot contain
	// it, which lets Substitute skip it.
	vars uint64
}

// IsTrue reports whether t is the constant true (width-1 one).
func (t *Term) IsTrue() bool { return t.Op == OpConst && t.Width == 1 && t.Const == 1 }

// IsFalse reports whether t is the constant false (width-1 zero).
func (t *Term) IsFalse() bool { return t.Op == OpConst && t.Width == 1 && t.Const == 0 }

// IsConst reports whether t is a constant.
func (t *Term) IsConst() bool { return t.Op == OpConst }

// String renders the term in an SMT-LIB-like prefix syntax.
func (t *Term) String() string {
	switch t.Op {
	case OpVar:
		return t.Name
	case OpConst:
		if t.Width == 1 {
			if t.Const == 1 {
				return "true"
			}
			return "false"
		}
		return fmt.Sprintf("#x%08x", t.Const)
	default:
		var b strings.Builder
		b.WriteByte('(')
		b.WriteString(t.Op.String())
		for _, a := range t.Args {
			b.WriteByte(' ')
			b.WriteString(a.String())
		}
		b.WriteByte(')')
		return b.String()
	}
}

// mask returns v truncated to w bits.
func mask(v uint32, w int) uint32 {
	if w >= 32 {
		return v
	}
	return v & (1<<uint(w) - 1)
}

// signBit reports whether the top bit of a w-bit value is set.
func signBit(v uint32, w int) bool { return v>>(uint(w)-1)&1 == 1 }

// Builder hash-conses terms and performs cheap local canonicalization
// (constant folding, unit elision, double negation). Heavier rewriting
// lives in the preprocessing passes. A Builder is not safe for concurrent
// use, not even by walks that only read its terms: they borrow its scratch
// tables.
type Builder struct {
	terms map[termKey]*Term
	next  int
	nvars int
	fresh int
	// Bytes-accounting for the memory studies: an estimate of the heap
	// held by all terms ever built.
	bytes int64
	// keyBuf holds the packed argument IDs of the key being looked up.
	keyBuf []byte
	// free holds the scratch tables no walk is using (see take).
	free []*scratch
}

// scratch is the ID-indexed table of one walk over a Builder's terms. Term
// IDs are dense per Builder (0..next), so the walk's visited set, memo or
// counts are slices indexed by ID instead of a map: stamp[id] == gen marks
// entry id as set in the current walk, and taking the table for a new walk
// bumps gen, which clears every entry at once. A walk takes its table from
// the Builder and gives it back when it ends, so a walk nested in another
// (a rebuild inside Substitute, Substitute inside SolveEqs) never shares a
// table with it. A walk looks up only subterms of the terms it was given,
// which, being built before them, have smaller IDs; terms built during the
// walk are never looked up in its table.
type scratch struct {
	gen   uint32
	stamp []uint32
	memo  []*Term // per-term results of a rewriting walk
	count []int32 // per-term counts of a counting walk
	buf   []*Term // operand or argument stack
}

// take returns a cleared scratch table covering the IDs below n. Tables
// grow to a quarter past the larger of n and the term count, so a table
// reused while the Builder grows is reallocated only now and then.
func (b *Builder) take(n int) *scratch {
	var s *scratch
	if k := len(b.free); k > 0 {
		s, b.free = b.free[k-1], b.free[:k-1]
	} else {
		s = &scratch{}
	}
	if len(s.stamp) < n {
		m := max(n, b.next)
		s.stamp = make([]uint32, m+m/4)
	}
	s.gen++
	if s.gen == 0 { // wrapped: clear stale stamps
		clear(s.stamp)
		s.gen = 1
	}
	return s
}

// give returns a table taken with take; the walk must not use it again.
func (b *Builder) give(s *scratch) {
	s.buf = s.buf[:0]
	b.free = append(b.free, s)
}

// has reports whether entry id was set in the current walk.
func (s *scratch) has(id int) bool { return s.stamp[id] == s.gen }

// mark sets entry id and reports whether it was unset.
func (s *scratch) mark(id int) bool {
	if s.stamp[id] == s.gen {
		return false
	}
	s.stamp[id] = s.gen
	return true
}

// withMemo sizes the memo slice to the table and returns s.
func (s *scratch) withMemo() *scratch {
	if len(s.memo) < len(s.stamp) {
		s.memo = make([]*Term, len(s.stamp))
	}
	return s
}

// withCounts sizes the count slice to the table and returns s.
func (s *scratch) withCounts() *scratch {
	if len(s.count) < len(s.stamp) {
		s.count = make([]int32, len(s.stamp))
	}
	return s
}

// countOf returns entry id's count, zero when it is unset.
func (s *scratch) countOf(id int) int32 {
	if !s.has(id) {
		return 0
	}
	return s.count[id]
}

// bump sets entry id (at zero when it was unset), adds one to its count,
// and returns the new count.
func (s *scratch) bump(id int) int32 {
	if s.mark(id) {
		s.count[id] = 0
	}
	s.count[id]++
	return s.count[id]
}

// termKey identifies a term up to hash-consing: its operator, width,
// constant, name, and argument IDs — the first three inline, any further
// ones packed little-endian after the name. n fixes where the name ends.
type termKey struct {
	s          string
	a0, a1, a2 int32
	n          int32
	width      int32
	c          uint32
	op         Op
}

// FreshVar returns a new variable guaranteed not to collide with any other
// name, used by the unconstrained-elimination and QE passes.
func (b *Builder) FreshVar(width int) *Term {
	b.fresh++
	return b.Var(fmt.Sprintf("u!%d", b.fresh), width)
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{terms: map[termKey]*Term{}}
}

// NumTerms returns the number of distinct terms built.
func (b *Builder) NumTerms() int { return b.next }

// EstimatedBytes returns an estimate of the memory held by all terms.
func (b *Builder) EstimatedBytes() int64 { return b.bytes }

func (b *Builder) intern(op Op, width int, c uint32, name string, args []*Term) *Term {
	k, t := b.lookup(op, width, c, name, args)
	if t == nil {
		t = b.add(k, op, width, c, name, args)
	}
	return t
}

// lookup returns the interned term for the key, or nil and the key to
// add it under. Arguments past the third are packed after the name in
// keyBuf; the lookup converts them inside the index expression, which
// the compiler does without allocating, and a miss copies them out.
func (b *Builder) lookup(op Op, width int, c uint32, name string, args []*Term) (termKey, *Term) {
	k := termKey{s: name, n: int32(len(args)), width: int32(width), c: c, op: op}
	switch len(args) {
	default:
		b.keyBuf = append(b.keyBuf[:0], name...)
		for _, a := range args[3:] {
			b.keyBuf = binary.LittleEndian.AppendUint32(b.keyBuf, uint32(a.ID))
		}
		fallthrough
	case 3:
		k.a2 = int32(args[2].ID)
		fallthrough
	case 2:
		k.a1 = int32(args[1].ID)
		fallthrough
	case 1:
		k.a0 = int32(args[0].ID)
	case 0:
	}
	if len(args) <= 3 {
		return k, b.terms[k]
	}
	if t := b.terms[termKey{string(b.keyBuf), k.a0, k.a1, k.a2, k.n, k.width, k.c, k.op}]; t != nil {
		return k, t
	}
	k.s = string(b.keyBuf)
	return k, nil
}

// add interns a new term under k; the term keeps args.
func (b *Builder) add(k termKey, op Op, width int, c uint32, name string, args []*Term) *Term {
	t := &Term{ID: b.next, Op: op, Width: width, Args: args, Const: c, Name: name}
	if op == OpVar {
		t.vars = 1 << (b.nvars % 64)
		b.nvars++
	}
	for _, a := range args {
		t.vars |= a.vars
	}
	b.next++
	b.terms[k] = t
	b.bytes += int64(64 + 8*len(args) + len(name) + legacyKeyLen(op, width, c, name, args))
	return t
}

// legacyKeyLen is the length of the decimal string key terms were once
// interned under ("op:width:hexconst:name,id,id..."). EstimatedBytes
// still charges it, so the memory columns stay comparable across
// versions.
func legacyKeyLen(op Op, width int, c uint32, name string, args []*Term) int {
	n := decLen(int(op)) + 1 + decLen(width) + 1 + hexLen(c) + 1 + len(name)
	for _, a := range args {
		n += 1 + decLen(a.ID)
	}
	return n
}

// hexLen is the length of c's lower-case hexadecimal rendering.
func hexLen(c uint32) int { return max(1, (bits.Len32(c)+3)/4) }

// decLen is the length of n's decimal rendering.
func decLen(n int) int {
	l := 1
	if n < 0 {
		l++
		n = -n
	}
	for n >= 10 {
		n /= 10
		l++
	}
	return l
}

// Var returns the variable with the given name and width. The same name
// always maps to the same term, so widths must be used consistently.
func (b *Builder) Var(name string, width int) *Term {
	return b.intern(OpVar, width, 0, name, nil)
}

// Const returns the w-bit constant v (truncated to w bits).
func (b *Builder) Const(v uint32, width int) *Term {
	return b.intern(OpConst, width, mask(v, width), "", nil)
}

// True returns the boolean constant true.
func (b *Builder) True() *Term { return b.Const(1, 1) }

// False returns the boolean constant false.
func (b *Builder) False() *Term { return b.Const(0, 1) }

// Bool returns the boolean constant for v.
func (b *Builder) Bool(v bool) *Term {
	if v {
		return b.True()
	}
	return b.False()
}

// Not returns the bitwise complement of x.
func (b *Builder) Not(x *Term) *Term {
	if x.IsConst() {
		return b.Const(^x.Const, x.Width)
	}
	if x.Op == OpNot {
		return x.Args[0]
	}
	return b.intern(OpNot, x.Width, 0, "", []*Term{x})
}

// And returns the n-ary conjunction (bitwise and) of xs, flattening nested
// conjunctions and eliding units. And() with no arguments is all-ones of
// width 1 (true).
func (b *Builder) And(xs ...*Term) *Term { return b.nary(OpAnd, xs) }

// Or returns the n-ary disjunction (bitwise or) of xs.
func (b *Builder) Or(xs ...*Term) *Term { return b.nary(OpOr, xs) }

func (b *Builder) nary(op Op, xs []*Term) *Term {
	width := 1
	if len(xs) > 0 {
		width = xs[0].Width
	}
	allOnes := mask(^uint32(0), width)
	f := flattener{op: op, width: width, unit: allOnes} // and: unit=1s, absorbing=0
	if op == OpOr {
		f.unit, f.zero = 0, allOnes
	}
	// Nested operands of op have smaller IDs than the xs holding them.
	hi := 0
	for _, x := range xs {
		hi = max(hi, x.ID)
	}
	f.s = b.take(hi + 1)
	absorbed := false
	for _, x := range xs {
		if !f.push(x) {
			absorbed = true
			break
		}
	}
	var r *Term
	switch flat := f.s.buf; {
	case absorbed:
		r = b.Const(f.zero, width)
	case len(flat) == 0:
		r = b.Const(f.unit, width)
	case len(flat) == 1:
		r = flat[0]
	default:
		var k termKey
		if k, r = b.lookup(op, width, 0, "", flat); r == nil {
			r = b.add(k, op, width, 0, "", slices.Clone(flat))
		}
	}
	b.give(f.s)
	return r
}

// flattener collects the operands of an n-ary op into its table's buffer:
// nested op terms are flattened, units dropped, and each operand kept at
// its first occurrence, marked in the table by ID.
type flattener struct {
	op         Op
	width      int
	unit, zero uint32
	s          *scratch
}

// push adds t's operands; it returns false when the absorbing constant
// turns up.
func (f *flattener) push(t *Term) bool {
	if t.Width != f.width {
		panic(fmt.Sprintf("smt: %s: mixed widths %d and %d", f.op, f.width, t.Width))
	}
	if t.Op == f.op {
		for _, a := range t.Args {
			if !f.push(a) {
				return false
			}
		}
		return true
	}
	if t.IsConst() {
		if t.Const == f.unit {
			return true
		}
		if t.Const == f.zero {
			return false
		}
	}
	if f.s.mark(t.ID) {
		f.s.buf = append(f.s.buf, t)
	}
	return true
}

func (b *Builder) binary(op Op, x, y *Term, width int) *Term {
	if x.IsConst() && y.IsConst() {
		if v, ok := foldBinary(op, x.Const, y.Const, x.Width); ok {
			return b.Const(v, width)
		}
	}
	return b.intern(op, width, 0, "", []*Term{x, y})
}

func foldBinary(op Op, x, y uint32, w int) (uint32, bool) {
	switch op {
	case OpXor:
		return x ^ y, true
	case OpAdd:
		return mask(x+y, w), true
	case OpSub:
		return mask(x-y, w), true
	case OpMul:
		return mask(x*y, w), true
	case OpUDiv:
		if y == 0 {
			return mask(^uint32(0), w), true
		}
		return x / y, true
	case OpURem:
		if y == 0 {
			return x, true
		}
		return x % y, true
	case OpShl:
		if y >= uint32(w) {
			return 0, true
		}
		return mask(x<<y, w), true
	case OpLshr:
		if y >= uint32(w) {
			return 0, true
		}
		return x >> y, true
	case OpEq:
		return boolVal(x == y), true
	case OpUlt:
		return boolVal(x < y), true
	case OpUle:
		return boolVal(x <= y), true
	case OpSlt:
		return boolVal(signedLess(x, y, w, false)), true
	case OpSle:
		return boolVal(signedLess(x, y, w, true)), true
	}
	return 0, false
}

func boolVal(v bool) uint32 {
	if v {
		return 1
	}
	return 0
}

func signedLess(x, y uint32, w int, orEqual bool) bool {
	sx, sy := signBit(x, w), signBit(y, w)
	if sx != sy {
		return sx // negative < non-negative
	}
	if orEqual {
		return x <= y
	}
	return x < y
}

// Xor returns the bitwise exclusive-or of x and y.
func (b *Builder) Xor(x, y *Term) *Term {
	if x == y {
		return b.Const(0, x.Width)
	}
	return b.binary(OpXor, x, y, x.Width)
}

// Add returns x + y modulo 2^width.
func (b *Builder) Add(x, y *Term) *Term { return b.binary(OpAdd, x, y, x.Width) }

// Sub returns x - y modulo 2^width.
func (b *Builder) Sub(x, y *Term) *Term {
	if x == y {
		return b.Const(0, x.Width)
	}
	return b.binary(OpSub, x, y, x.Width)
}

// Mul returns x * y modulo 2^width.
func (b *Builder) Mul(x, y *Term) *Term { return b.binary(OpMul, x, y, x.Width) }

// UDiv returns unsigned x / y, with x/0 = all-ones.
func (b *Builder) UDiv(x, y *Term) *Term { return b.binary(OpUDiv, x, y, x.Width) }

// URem returns unsigned x % y, with x%0 = x.
func (b *Builder) URem(x, y *Term) *Term { return b.binary(OpURem, x, y, x.Width) }

// Neg returns the two's-complement negation of x.
func (b *Builder) Neg(x *Term) *Term {
	if x.IsConst() {
		return b.Const(mask(-x.Const, x.Width), x.Width)
	}
	if x.Op == OpNeg {
		return x.Args[0]
	}
	return b.intern(OpNeg, x.Width, 0, "", []*Term{x})
}

// Shl returns x shifted left by y bits.
func (b *Builder) Shl(x, y *Term) *Term { return b.binary(OpShl, x, y, x.Width) }

// Lshr returns x logically shifted right by y bits.
func (b *Builder) Lshr(x, y *Term) *Term { return b.binary(OpLshr, x, y, x.Width) }

// Eq returns the boolean x = y.
func (b *Builder) Eq(x, y *Term) *Term {
	if x.Width != y.Width {
		panic(fmt.Sprintf("smt: =: mixed widths %d and %d", x.Width, y.Width))
	}
	if x == y {
		return b.True()
	}
	// Boolean equality with a constant reduces to the other side.
	if x.Width == 1 {
		if x.IsTrue() {
			return y
		}
		if x.IsFalse() {
			return b.Not(y)
		}
		if y.IsTrue() {
			return x
		}
		if y.IsFalse() {
			return b.Not(x)
		}
	}
	if x.ID > y.ID { // canonical argument order
		x, y = y, x
	}
	return b.binary(OpEq, x, y, 1)
}

// Ult returns the boolean unsigned x < y.
func (b *Builder) Ult(x, y *Term) *Term {
	if x == y {
		return b.False()
	}
	return b.binary(OpUlt, x, y, 1)
}

// Ule returns the boolean unsigned x <= y.
func (b *Builder) Ule(x, y *Term) *Term {
	if x == y {
		return b.True()
	}
	return b.binary(OpUle, x, y, 1)
}

// Slt returns the boolean signed x < y.
func (b *Builder) Slt(x, y *Term) *Term {
	if x == y {
		return b.False()
	}
	return b.binary(OpSlt, x, y, 1)
}

// Sle returns the boolean signed x <= y.
func (b *Builder) Sle(x, y *Term) *Term {
	if x == y {
		return b.True()
	}
	return b.binary(OpSle, x, y, 1)
}

// Ite returns if cond then a else b.
func (b *Builder) Ite(cond, x, y *Term) *Term {
	if cond.Width != 1 {
		panic("smt: ite condition must have width 1")
	}
	if x.Width != y.Width {
		panic(fmt.Sprintf("smt: ite: mixed widths %d and %d", x.Width, y.Width))
	}
	if cond.IsTrue() || x == y {
		return x
	}
	if cond.IsFalse() {
		return y
	}
	if cond.Op == OpNot {
		return b.Ite(cond.Args[0], y, x)
	}
	return b.intern(OpIte, x.Width, 0, "", []*Term{cond, x, y})
}

// Size returns the number of distinct sub-terms of t (its DAG size).
func (b *Builder) Size(t *Term) int {
	s := b.take(t.ID + 1)
	n := dagSize(s, t)
	b.give(s)
	return n
}

func dagSize(s *scratch, t *Term) int {
	if !s.mark(t.ID) {
		return 0
	}
	n := 1
	for _, a := range t.Args {
		n += dagSize(s, a)
	}
	return n
}

// TreeSize returns the size of t expanded as a tree, capped at limit to
// avoid exponential blowup; it returns limit if the cap is hit. This is the
// measure the paper's condition-size arguments use (cloned conditions grow
// as trees).
func TreeSize(t *Term, limit int) int {
	var walk func(*Term, int) int
	walk = func(t *Term, budget int) int {
		if budget <= 0 {
			return 0
		}
		n := 1
		for _, a := range t.Args {
			n += walk(a, budget-n)
			if n >= budget {
				return budget
			}
		}
		return n
	}
	return walk(t, limit)
}

// Vars returns the distinct free variables of t in first-occurrence order.
func Vars(t *Term) []*Term {
	seen := map[*Term]bool{}
	var out []*Term
	var walk func(*Term)
	walk = func(t *Term) {
		if seen[t] {
			return
		}
		seen[t] = true
		if t.Op == OpVar {
			out = append(out, t)
			return
		}
		for _, a := range t.Args {
			walk(a)
		}
	}
	walk(t)
	return out
}
