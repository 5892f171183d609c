// Package bitblast lowers bit-vector terms to CNF over a CDCL SAT solver
// using the Tseitin transformation, with constant propagation and structural
// hashing at the gate level. It plays the role of Z3's bit-blaster in the
// paper's solving stack (§4).
package bitblast

import (
	"errors"
	"fmt"
	"math/bits"

	"fusion/internal/sat"
	"fusion/internal/smt"
)

// Blaster converts terms to clauses incrementally. All terms must come from
// the same smt.Builder. The CNF cache is keyed by hash-consed term identity
// (pointer equality), so queries sharing subterms reuse each other's
// encodings, and query roots asserted through Assume are guarded by
// activation literals so retiring a query disables its root constraint
// without deleting any clause.
type Blaster struct {
	S *sat.Solver
	// bits caches the literal vector (LSB first) of every blasted term.
	bits map[*smt.Term][]sat.Lit
	// gates structurally hashes AND/XOR gates.
	gates gateTable
	// acts maps an asserted query root to its activation literal, so a
	// repeated identical query reuses the existing guard clause.
	acts  map[*smt.Term]sat.Lit
	lTrue sat.Lit
	// Stop, when non-nil, is polled before every term the blast encodes
	// afresh; once it reports true the blast unwinds and
	// AssertTrue or Assume returns ErrStopped. Every encoding finished
	// before the stop stays cached — it is complete and correct — but the
	// terms on the unwound path are never memoized and an unfinished query
	// root gets no clause and no activation literal, so the Blaster stays
	// reusable. A nil Stop leaves the gate sequence untouched.
	Stop func() bool
}

// ErrStopped reports a blast cut short by the Blaster's Stop predicate.
var ErrStopped = errors.New("bitblast: stopped")

// stopped is the panic value that unwinds a stopped blast to its entry
// point; it never escapes the package.
type stopped struct{}

// guarded runs one blast entry point, turning the unwinding of a stopped
// blast into ErrStopped. Without a Stop predicate nothing can unwind, so
// fn runs bare and a genuine panic keeps its original stack.
func (b *Blaster) guarded(fn func()) (err error) {
	if b.Stop == nil {
		fn()
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stopped); !ok {
				panic(r)
			}
			err = ErrStopped
		}
	}()
	fn()
	return nil
}

// New returns a Blaster over the given solver. It allocates one variable
// pinned to true for constant literals.
func New(s *sat.Solver) *Blaster {
	b := &Blaster{
		S:    s,
		bits: map[*smt.Term][]sat.Lit{},
		acts: map[*smt.Term]sat.Lit{},
	}
	v := s.NewVar()
	b.lTrue = sat.MkLit(v, false)
	s.AddClause(b.lTrue)
	return b
}

// NumTerms returns the number of distinct terms whose encodings are cached.
func (b *Blaster) NumTerms() int { return len(b.bits) }

func (b *Blaster) litFalse() sat.Lit { return b.lTrue.Flip() }

func (b *Blaster) isTrue(l sat.Lit) bool  { return l == b.lTrue }
func (b *Blaster) isFalse(l sat.Lit) bool { return l == b.litFalse() }

func (b *Blaster) fresh() sat.Lit {
	return sat.MkLit(b.S.NewVar(), false)
}

// and2 returns a literal equivalent to a AND b.
func (b *Blaster) and2(x, y sat.Lit) sat.Lit {
	switch {
	case b.isFalse(x) || b.isFalse(y):
		return b.litFalse()
	case b.isTrue(x):
		return y
	case b.isTrue(y):
		return x
	case x == y:
		return x
	case x == y.Flip():
		return b.litFalse()
	}
	if x > y {
		x, y = y, x
	}
	k := gateKey(gateAnd, x, y)
	if g, ok := b.gates.get(k); ok {
		return g
	}
	g := b.fresh()
	b.S.AddClause(g.Flip(), x)
	b.S.AddClause(g.Flip(), y)
	b.S.AddClause(g, x.Flip(), y.Flip())
	b.gates.put(k, g)
	return g
}

func (b *Blaster) or2(x, y sat.Lit) sat.Lit {
	return b.and2(x.Flip(), y.Flip()).Flip()
}

// xor2 returns a literal equivalent to a XOR b.
func (b *Blaster) xor2(x, y sat.Lit) sat.Lit {
	switch {
	case b.isFalse(x):
		return y
	case b.isFalse(y):
		return x
	case b.isTrue(x):
		return y.Flip()
	case b.isTrue(y):
		return x.Flip()
	case x == y:
		return b.litFalse()
	case x == y.Flip():
		return b.lTrue
	}
	// Canonicalize polarity: xor(¬a, b) = ¬xor(a, b).
	flip := false
	if x.Neg() {
		x = x.Flip()
		flip = !flip
	}
	if y.Neg() {
		y = y.Flip()
		flip = !flip
	}
	if x > y {
		x, y = y, x
	}
	k := gateKey(gateXor, x, y)
	g, ok := b.gates.get(k)
	if !ok {
		g = b.fresh()
		b.S.AddClause(g.Flip(), x, y)
		b.S.AddClause(g.Flip(), x.Flip(), y.Flip())
		b.S.AddClause(g, x.Flip(), y)
		b.S.AddClause(g, x, y.Flip())
		b.gates.put(k, g)
	}
	if flip {
		return g.Flip()
	}
	return g
}

// mux returns c ? x : y.
func (b *Blaster) mux(c, x, y sat.Lit) sat.Lit {
	switch {
	case b.isTrue(c):
		return x
	case b.isFalse(c):
		return y
	case x == y:
		return x
	}
	return b.or2(b.and2(c, x), b.and2(c.Flip(), y))
}

// fullAdder returns (sum, carry) of x + y + cin.
func (b *Blaster) fullAdder(x, y, cin sat.Lit) (sum, cout sat.Lit) {
	sum = b.xor2(b.xor2(x, y), cin)
	cout = b.or2(b.and2(x, y), b.and2(cin, b.xor2(x, y)))
	return sum, cout
}

// addVec returns x + y + cin, LSB first, and the carry out.
func (b *Blaster) addVec(x, y []sat.Lit, cin sat.Lit) ([]sat.Lit, sat.Lit) {
	out := make([]sat.Lit, len(x))
	c := cin
	for i := range x {
		out[i], c = b.fullAdder(x[i], y[i], c)
	}
	return out, c
}

func (b *Blaster) notVec(x []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(x))
	for i, l := range x {
		out[i] = l.Flip()
	}
	return out
}

func (b *Blaster) constVec(v uint32, w int) []sat.Lit {
	out := make([]sat.Lit, w)
	for i := 0; i < w; i++ {
		if v>>uint(i)&1 == 1 {
			out[i] = b.lTrue
		} else {
			out[i] = b.litFalse()
		}
	}
	return out
}

// ult returns the literal for unsigned x < y: the complement of the carry
// out of x + ~y + 1.
func (b *Blaster) ult(x, y []sat.Lit) sat.Lit {
	_, cout := b.addVec(x, b.notVec(y), b.lTrue)
	return cout.Flip()
}

// eqVec returns the literal for x = y.
func (b *Blaster) eqVec(x, y []sat.Lit) sat.Lit {
	acc := b.lTrue
	for i := range x {
		acc = b.and2(acc, b.xor2(x[i], y[i]).Flip())
	}
	return acc
}

// isZero returns the literal for x = 0.
func (b *Blaster) isZero(x []sat.Lit) sat.Lit {
	acc := b.litFalse()
	for _, l := range x {
		acc = b.or2(acc, l)
	}
	return acc.Flip()
}

// muxVec returns c ? x : y elementwise.
func (b *Blaster) muxVec(c sat.Lit, x, y []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(x))
	for i := range x {
		out[i] = b.mux(c, x[i], y[i])
	}
	return out
}

// shifter builds a barrel shifter. left selects the direction.
func (b *Blaster) shifter(x, amt []sat.Lit, left bool) []sat.Lit {
	w := len(x)
	// Bits of amt at positions >= log2ceil(w) force a zero result.
	stages := 0
	for 1<<uint(stages) < w {
		stages++
	}
	cur := x
	for k := 0; k < stages; k++ {
		sh := 1 << uint(k)
		shifted := make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			var src int
			if left {
				src = i - sh
			} else {
				src = i + sh
			}
			if src < 0 || src >= w {
				shifted[i] = b.litFalse()
			} else {
				shifted[i] = cur[src]
			}
		}
		cur = b.muxVec(amt[k], shifted, cur)
	}
	// If any high bit of amt is set, the result is zero.
	high := b.litFalse()
	for k := stages; k < len(amt); k++ {
		high = b.or2(high, amt[k])
	}
	zero := b.constVec(0, w)
	return b.muxVec(high, zero, cur)
}

// divmod builds restoring division and returns (quotient, remainder) for
// nonzero divisors; zero-divisor semantics are layered on by the caller.
func (b *Blaster) divmod(num, den []sat.Lit) (q, r []sat.Lit) {
	w := len(num)
	r = b.constVec(0, w)
	q = make([]sat.Lit, w)
	for i := w - 1; i >= 0; i-- {
		// r = (r << 1) | num[i]
		nr := make([]sat.Lit, w)
		nr[0] = num[i]
		copy(nr[1:], r[:w-1])
		r = nr
		// q[i] = r >= den; if so r -= den.
		lt := b.ult(r, den)
		ge := lt.Flip()
		q[i] = ge
		diff, _ := b.addVec(r, b.notVec(den), b.lTrue)
		r = b.muxVec(ge, diff, r)
	}
	return q, r
}

// mulVec returns x * y by the shift-add multiplier: one row per bit of x.
func (b *Blaster) mulVec(x, y []sat.Lit) []sat.Lit {
	w := len(x)
	acc := b.constVec(0, w)
	for i := 0; i < w; i++ {
		// acc += (y << i) masked by x[i].
		addend := make([]sat.Lit, w)
		for j := 0; j < w; j++ {
			if j < i {
				addend[j] = b.litFalse()
			} else {
				addend[j] = b.and2(x[i], y[j-i])
			}
		}
		acc, _ = b.addVec(acc, addend, b.litFalse())
	}
	return acc
}

// mulConst returns c * y, adding or subtracting y << k for each nonzero
// signed digit of c at position k, least significant first. The digits
// are c's binary ones, or its non-adjacent form (NAF) when that has
// strictly fewer nonzero digits: 0xFFFFFFFF is −1 in NAF, one
// subtraction instead of 32 additions. The low k bits of y << k are
// constant false and fold away, so a product costs about two gates per
// bit per nonzero digit, where the generic multiplier pays a full
// shift-add row for every bit of the constant.
func (b *Blaster) mulConst(c uint32, y []sat.Lit) []sat.Lit {
	w := len(y)
	c = uint32(uint64(c) & (1<<uint(w) - 1))
	// NAF digits: at an odd remainder take the digit (+1 or −1) that
	// leaves a multiple of 4. A digit at position w is a multiple of 2^w
	// and drops out.
	var digits [32]int8
	nonzero := 0
	for k, n := 0, uint64(c); k < w && n != 0; k, n = k+1, n>>1 {
		switch n & 3 {
		case 1:
			digits[k] = 1
			n--
			nonzero++
		case 3:
			digits[k] = -1
			n++
			nonzero++
		}
	}
	if nonzero >= bits.OnesCount32(c) {
		for k := 0; k < w; k++ {
			digits[k] = int8(c >> uint(k) & 1)
		}
	}
	acc := b.constVec(0, w)
	for k, d := range digits[:w] {
		if d == 0 {
			continue
		}
		sh := make([]sat.Lit, w)
		for j := range sh {
			if j < k {
				sh[j] = b.litFalse()
			} else {
				sh[j] = y[j-k]
			}
		}
		if d > 0 {
			acc, _ = b.addVec(acc, sh, b.litFalse())
		} else {
			acc, _ = b.addVec(acc, b.notVec(sh), b.lTrue)
		}
	}
	return acc
}

// blast returns the literal vector (LSB first) representing t.
func (b *Blaster) blast(t *smt.Term) []sat.Lit {
	if lits, ok := b.bits[t]; ok {
		return lits
	}
	if b.Stop != nil && b.Stop() {
		panic(stopped{})
	}
	var out []sat.Lit
	switch t.Op {
	case smt.OpVar:
		out = make([]sat.Lit, t.Width)
		for i := range out {
			out[i] = b.fresh()
		}
	case smt.OpConst:
		out = b.constVec(t.Const, t.Width)
	case smt.OpNot:
		out = b.notVec(b.blast(t.Args[0]))
	case smt.OpNeg:
		x := b.blast(t.Args[0])
		out, _ = b.addVec(b.constVec(0, t.Width), b.notVec(x), b.lTrue)
	case smt.OpAnd, smt.OpOr:
		out = b.blast(t.Args[0])
		for _, a := range t.Args[1:] {
			y := b.blast(a)
			nxt := make([]sat.Lit, t.Width)
			for i := 0; i < t.Width; i++ {
				if t.Op == smt.OpAnd {
					nxt[i] = b.and2(out[i], y[i])
				} else {
					nxt[i] = b.or2(out[i], y[i])
				}
			}
			out = nxt
		}
	case smt.OpXor:
		x, y := b.blast(t.Args[0]), b.blast(t.Args[1])
		out = make([]sat.Lit, t.Width)
		for i := range out {
			out[i] = b.xor2(x[i], y[i])
		}
	case smt.OpAdd:
		x, y := b.blast(t.Args[0]), b.blast(t.Args[1])
		out, _ = b.addVec(x, y, b.litFalse())
	case smt.OpSub:
		x, y := b.blast(t.Args[0]), b.blast(t.Args[1])
		out, _ = b.addVec(x, b.notVec(y), b.lTrue)
	case smt.OpMul:
		x, y := b.blast(t.Args[0]), b.blast(t.Args[1])
		switch {
		case t.Args[0].Op == smt.OpConst:
			out = b.mulConst(t.Args[0].Const, y)
		case t.Args[1].Op == smt.OpConst:
			out = b.mulConst(t.Args[1].Const, x)
		default:
			out = b.mulVec(x, y)
		}
	case smt.OpUDiv, smt.OpURem:
		x, y := b.blast(t.Args[0]), b.blast(t.Args[1])
		q, r := b.divmod(x, y)
		dz := b.isZero(y)
		if t.Op == smt.OpUDiv {
			out = b.muxVec(dz, b.constVec(^uint32(0), t.Width), q)
		} else {
			out = b.muxVec(dz, x, r)
		}
	case smt.OpShl:
		out = b.shifter(b.blast(t.Args[0]), b.blast(t.Args[1]), true)
	case smt.OpLshr:
		out = b.shifter(b.blast(t.Args[0]), b.blast(t.Args[1]), false)
	case smt.OpEq:
		out = []sat.Lit{b.eqVec(b.blast(t.Args[0]), b.blast(t.Args[1]))}
	case smt.OpUlt:
		out = []sat.Lit{b.ult(b.blast(t.Args[0]), b.blast(t.Args[1]))}
	case smt.OpUle:
		out = []sat.Lit{b.ult(b.blast(t.Args[1]), b.blast(t.Args[0])).Flip()}
	case smt.OpSlt, smt.OpSle:
		x, y := b.blast(t.Args[0]), b.blast(t.Args[1])
		w := len(x)
		// Flip sign bits to map signed comparison onto unsigned.
		fx := append(append([]sat.Lit(nil), x[:w-1]...), x[w-1].Flip())
		fy := append(append([]sat.Lit(nil), y[:w-1]...), y[w-1].Flip())
		if t.Op == smt.OpSlt {
			out = []sat.Lit{b.ult(fx, fy)}
		} else {
			out = []sat.Lit{b.ult(fy, fx).Flip()}
		}
	case smt.OpIte:
		c := b.blast(t.Args[0])[0]
		out = b.muxVec(c, b.blast(t.Args[1]), b.blast(t.Args[2]))
	default:
		panic(fmt.Sprintf("bitblast: unhandled operator %s", t.Op))
	}
	if len(out) != t.Width {
		panic(fmt.Sprintf("bitblast: width mismatch for %s: got %d, want %d", t.Op, len(out), t.Width))
	}
	b.bits[t] = out
	return out
}

// AssertTrue constrains the width-1 term t to be true, permanently. A
// stopped blast asserts nothing and returns ErrStopped.
func (b *Blaster) AssertTrue(t *smt.Term) error {
	if t.Width != 1 {
		panic("bitblast: AssertTrue requires a width-1 term")
	}
	return b.guarded(func() { b.S.AddClause(b.blast(t)[0]) })
}

// Assume blasts the width-1 query root t guarded by an activation literal
// act via the clause (¬act ∨ t): solving under the assumption act enforces
// t, and a call that stops assuming act retires the query — the solver is
// free to set act false, which satisfies the guard clause vacuously.
// Repeated assumptions of the same root reuse its guard. A stopped blast
// registers no activation literal and returns ErrStopped.
func (b *Blaster) Assume(t *smt.Term) (sat.Lit, error) {
	if t.Width != 1 {
		panic("bitblast: Assume requires a width-1 term")
	}
	if act, ok := b.acts[t]; ok {
		return act, nil
	}
	var root sat.Lit
	if err := b.guarded(func() { root = b.blast(t)[0] }); err != nil {
		return 0, err
	}
	act := b.fresh()
	b.S.AddClause(act.Flip(), root)
	b.acts[t] = act
	return act, nil
}

// ModelValue extracts the value of a blasted term from the solver's model
// after a Sat verdict.
func (b *Blaster) ModelValue(t *smt.Term) uint32 {
	bits := b.blast(t)
	var v uint32
	for i, l := range bits {
		bit := b.S.ValueOf(l.Var())
		if l.Neg() {
			bit = !bit
		}
		if bit {
			v |= 1 << uint(i)
		}
	}
	return v
}
