package absint

import (
	"fusion/internal/lang"
	"fusion/internal/pdg"
	"fusion/internal/ssa"
)

// The rule set of the tier, written once for its two clients: the record
// pass (refine.go), whose facts live in a guard environment over SSA
// values, and the slice refuter (refute.go), whose facts live on (value,
// calling context) instantiations with per-round memos. A third, read-only
// store serves the enumeration oracle from the whole-program invariants.
// The clients differ only in where a fact is stored and looked up; every
// real difference between them lives on the side that owns it.

// facts is where a rule looks up what is known about a value at one
// program point.
type facts interface {
	interval(x *ssa.Value) Interval
	// stride is x's congruence; only read when striding.
	stride(x *ssa.Value) Stride
	// striding reports whether the congruence domain is on.
	striding() bool
}

// guardFacts is a fact store the guard rules write into.
type guardFacts interface {
	facts
	// dead reports that the facts are contradictory: the guard chain can
	// never hold, or the query is refuted. Nothing after it is observable.
	dead() bool
	kill()
	// constrain and constrainSt meet a derived fact into x's interval or
	// stride; an empty meet kills the store.
	constrain(x *ssa.Value, with Interval)
	constrainSt(x *ssa.Value, with Stride)
	// relate records x − y ≤ c when the zone is on and both are 32-bit
	// operands; a negative cycle kills the store.
	relate(x, y *ssa.Value, c int64)
	// opaque reports that c's defining equation is not modelled, so its
	// structure must not be walked.
	opaque(c *ssa.Value) bool
	// disjoin derives "a or b evaluates to want".
	disjoin(a, b *ssa.Value, want bool, depth int)
}

// boundFacts adds the zone's view of a sink's arguments, for the bounds
// decisions.
type boundFacts interface {
	facts
	// zoneBound projects the zone's bounds against zero onto x.
	zoneBound(x *ssa.Value) (Interval, bool)
	// zoneDiff is the zone's upper bound on x − y.
	zoneDiff(x, y *ssa.Value) (int64, bool)
}

const maxDeriveDepth = 64

// transferOf evaluates v's defining equation in the interval domain. The
// callers handle first what depends on the calling context: parameters,
// calls and, in the refuter, ite vertices with a pruned edge.
func transferOf[F facts](f F, v *ssa.Value) Interval {
	switch v.Op {
	case ssa.OpConst:
		return SingleW(v.Const, width(v))
	case ssa.OpCopy, ssa.OpReturn, ssa.OpBranch:
		return f.interval(v.Args[0])
	case ssa.OpNot:
		return NotBool(f.interval(v.Args[0]))
	case ssa.OpNeg:
		return fitWidth(Neg(f.interval(v.Args[0])), width(v))
	case ssa.OpIte:
		c := f.interval(v.Args[0])
		switch {
		case c.IsBottom():
			return Bottom()
		case c.Lo == 1:
			return f.interval(v.Args[1])
		case c.Hi == 0:
			return f.interval(v.Args[2])
		default:
			return f.interval(v.Args[1]).Join(f.interval(v.Args[2]))
		}
	case ssa.OpBin:
		return binTransfer(f, v)
	default:
		return Top(width(v))
	}
}

// binTransfer mirrors cond.BinTerm's operator semantics on intervals,
// including the same-operand identities the bit-level encoding enjoys
// (x - x = 0, x ^ x = 0, x == x, ...), which interval arithmetic cannot
// see through correlation.
func binTransfer[F facts](f F, v *ssa.Value) Interval {
	x, y := v.Args[0], v.Args[1]
	if x == y {
		xv := f.interval(x)
		switch v.BinOp {
		case lang.OpSub, lang.OpBitXor:
			if xv.IsBottom() {
				return Bottom()
			}
			return Interval{0, 0}
		case lang.OpEq, lang.OpLe, lang.OpGe:
			if xv.IsBottom() {
				return Bottom()
			}
			return Interval{1, 1}
		case lang.OpNe, lang.OpLt, lang.OpGt:
			if xv.IsBottom() {
				return Bottom()
			}
			return Interval{0, 0}
		case lang.OpAnd, lang.OpOr, lang.OpBitAnd, lang.OpBitOr:
			return xv
		}
	}
	isBool := v.Type == lang.TypeBool && x.Type == lang.TypeBool
	return binInterval(v.BinOp, f.interval(x), f.interval(y), isBool, width(v))
}

// strideOf evaluates v's defining equation in the congruence domain; the
// interval lookups supply the no-overflow proofs the stride transfers
// need. As with transferOf, the callers handle the context-dependent
// cases first. Operators outside the arithmetic fragment stay top.
func strideOf[F facts](f F, v *ssa.Value) Stride {
	switch v.Op {
	case ssa.OpConst:
		return SingleStride(SignExt(v.Const, width(v)))
	case ssa.OpCopy, ssa.OpReturn, ssa.OpBranch:
		return f.stride(v.Args[0])
	case ssa.OpNeg:
		return StNeg(f.stride(v.Args[0]), f.interval(v.Args[0]))
	case ssa.OpIte:
		c := f.interval(v.Args[0])
		switch {
		case c.IsBottom():
			return BotStride()
		case c.Lo == 1:
			return f.stride(v.Args[1])
		case c.Hi == 0:
			return f.stride(v.Args[2])
		default:
			return f.stride(v.Args[1]).Join(f.stride(v.Args[2]))
		}
	case ssa.OpBin:
		x, y := v.Args[0], v.Args[1]
		if x == y && v.BinOp == lang.OpSub {
			return SingleStride(0) // same-operand identity; see binTransfer
		}
		sx, sy := f.stride(x), f.stride(y)
		return stBinOp(v.BinOp, sx, sy, f.interval(x), f.interval(y), width(v))
	default:
		return TopStride()
	}
}

// derive propagates the fact "c evaluates to want" into f, walking the
// condition's structure.
func derive[F guardFacts](f F, c *ssa.Value, want bool, depth int) {
	if f.dead() || depth > maxDeriveDepth {
		return
	}
	// The condition vertex itself is now known.
	if want {
		f.constrain(c, Interval{1, 1})
	} else {
		f.constrain(c, Interval{0, 0})
	}
	if f.dead() || f.opaque(c) {
		return
	}
	switch c.Op {
	case ssa.OpCopy:
		derive(f, c.Args[0], want, depth+1)
	case ssa.OpNot:
		derive(f, c.Args[0], !want, depth+1)
	case ssa.OpBin:
		switch c.BinOp {
		case lang.OpAnd:
			if want {
				derive(f, c.Args[0], true, depth+1)
				derive(f, c.Args[1], true, depth+1)
			} else {
				f.disjoin(c.Args[0], c.Args[1], false, depth) // ¬(a ∧ b) = ¬a ∨ ¬b
			}
		case lang.OpOr:
			if !want {
				derive(f, c.Args[0], false, depth+1)
				derive(f, c.Args[1], false, depth+1)
			} else {
				f.disjoin(c.Args[0], c.Args[1], true, depth)
			}
		case lang.OpLt, lang.OpLe, lang.OpGt, lang.OpGe, lang.OpEq, lang.OpNe:
			deriveCmp(f, c.BinOp, c.Args[0], c.Args[1], want)
		}
	}
}

// deriveCmp refines both operands of a comparison known to evaluate to
// want. All comparisons are signed, matching the SMT encoding.
func deriveCmp[F guardFacts](f F, op lang.BinOp, x, y *ssa.Value, want bool) {
	rl, swap := normalizeRel(op, want)
	if swap {
		x, y = y, x
	}
	cx, cy := f.interval(x), f.interval(y)
	if cx.IsBottom() || cy.IsBottom() {
		f.kill()
	}
	if f.dead() {
		return
	}
	nx, ny := relConstraints(rl, cx, cy)
	f.constrain(x, nx)
	if f.dead() {
		return
	}
	f.constrain(y, ny)
	if f.dead() {
		return
	}
	if f.striding() {
		switch rl {
		case relEq:
			// Equal values share a stride, and a `%`-equality guard
			// fixes the dividend's congruence class.
			sx, sy := f.stride(x), f.stride(y)
			if f.dead() {
				return
			}
			f.constrainSt(x, sy)
			f.constrainSt(y, sx)
			deriveRem(f, x, y, true)
			deriveRem(f, y, x, true)
		case relNe:
			deriveRem(f, x, y, false)
			deriveRem(f, y, x, false)
		}
		if f.dead() {
			return
		}
	}
	// The relation itself becomes a zone edge — the fact the interval
	// domain necessarily throws away when neither endpoint is constant.
	switch rl {
	case relLt:
		f.relate(x, y, -1)
	case relLe:
		f.relate(x, y, 0)
	case relEq:
		equate(f, x, y)
	}
}

// deriveRem propagates a `%`-equality guard backward to the dividend:
// (d % K) == R with constant K >= 2 and known R ∈ [0, K) gives
// d ≡ R (mod K) when d is provably non-negative, and the always-sound
// d ≡ R (mod gcd(K, 2^w)) otherwise, where w is the dividend's width
// (the machine remainder sees d's unsigned view, which agrees with d
// modulo 2^w). With eq false, only parity flips: (d % 2) != R gives
// d ≡ 1−R (mod 2).
func deriveRem[F guardFacts](f F, e, val *ssa.Value, eq bool) {
	if f.dead() || e.Op != ssa.OpBin || e.BinOp != lang.OpRem || f.opaque(e) {
		return
	}
	kv := e.Args[1]
	if kv.Op != ssa.OpConst {
		return
	}
	k := SignExt(kv.Const, width(kv))
	if k < 2 {
		return
	}
	cv := f.interval(val)
	if f.dead() || cv.Lo != cv.Hi || cv.Lo < 0 || cv.Lo >= k {
		return
	}
	rem := cv.Lo
	d := e.Args[0]
	if eq {
		mod := gcd64(k, wrapModulus(width(d)))
		if f.interval(d).Lo >= 0 {
			mod = k
		}
		f.constrainSt(d, mkStride(mod, rem))
		return
	}
	if k == 2 {
		f.constrainSt(d, mkStride(2, 1-rem))
	}
}

// equate records the zone edges of x == y.
func equate[F guardFacts](f F, x, y *ssa.Value) {
	f.relate(x, y, 0)
	f.relate(y, x, 0)
}

// defEdges records the zone edges implied by v's defining equation where
// it does not depend on the calling context. Gated SSA equations are
// pure, so a copy always yields exact equality edges; machine addition
// and subtraction only yield edges when the operand intervals prove the
// operation cannot wrap. The caller has checked that v is a non-constant
// 32-bit value.
func defEdges[F guardFacts](f F, v *ssa.Value) {
	switch v.Op {
	case ssa.OpCopy, ssa.OpReturn:
		equate(f, v, v.Args[0])
	case ssa.OpBin:
		x, y := v.Args[0], v.Args[1]
		switch v.BinOp {
		case lang.OpAdd:
			ix, iy := f.interval(x), f.interval(y)
			if ix.IsBottom() || iy.IsBottom() || ix.Lo+iy.Lo < minI32 || ix.Hi+iy.Hi > maxI32 {
				return // may wrap: no integer edge is sound
			}
			f.relate(v, x, iy.Hi)
			f.relate(x, v, -iy.Lo)
			f.relate(v, y, ix.Hi)
			f.relate(y, v, -ix.Lo)
		case lang.OpSub:
			if x == y {
				return // handled exactly by the interval transfer
			}
			ix, iy := f.interval(x), f.interval(y)
			if ix.IsBottom() || iy.IsBottom() || ix.Lo-iy.Hi < minI32 || ix.Hi-iy.Lo > maxI32 {
				return
			}
			f.relate(v, x, -iy.Lo)
			f.relate(x, v, iy.Hi)
		}
	}
}

// zoneOperand normalizes a 32-bit operand to a DBM node plus a constant
// offset; constants fold into the distinguished zero node (nil).
func zoneOperand(v *ssa.Value) (n *ssa.Value, off int64, ok bool) {
	if width(v) != 32 {
		return nil, 0, false
	}
	if v.Op == ssa.OpConst {
		return nil, int64(int32(v.Const)), true
	}
	return v, 0, true
}

// constInBounds reports whether the facts prove that the index v of a
// constant-bound sink stays in [0, vc.Bound): its interval, met with the
// zone's bounds and reduced against its stride, lies within. empty
// reports that the reduction leaves no value.
func constInBounds[F boundFacts](f F, v *ssa.Value, vc pdg.ValueConstraint) (in, empty bool) {
	iv := f.interval(v)
	if zb, ok := f.zoneBound(v); ok {
		iv = iv.Meet(zb)
	}
	if f.striding() {
		// The reduction snaps the endpoints to the index's lattice
		// points — an aligned index can be in bounds even when its raw
		// interval hull is not.
		var st Stride
		iv, st = reduce(iv, f.stride(v))
		if st.IsBottom() {
			return false, true
		}
	}
	return iv.Within(0, int64(int32(vc.Bound))-1), false
}

// dynInBounds reports whether the facts prove 0 ≤ idx < bound for a
// dynamic-bound sink v, whose constraint names the index and bound among
// v's arguments. The zone earns its keep here, since an interval cannot
// relate an index to an unbounded runtime length. empty reports that the
// facts leave no value for the index or the bound.
func dynInBounds[F boundFacts](f F, v *ssa.Value, vc pdg.ValueConstraint) (in, empty bool) {
	if vc.Arg < 0 || vc.Arg >= len(v.Args) || vc.BoundArg < 0 || vc.BoundArg >= len(v.Args) {
		return false, false
	}
	idx, bnd := v.Args[vc.Arg], v.Args[vc.BoundArg]
	ii, ib := f.interval(idx), f.interval(bnd)
	if zb, ok := f.zoneBound(idx); ok {
		ii = ii.Meet(zb)
	}
	if zb, ok := f.zoneBound(bnd); ok {
		ib = ib.Meet(zb)
	}
	if f.striding() {
		ii, _ = reduce(ii, f.stride(idx))
	}
	if ii.IsBottom() || ib.IsBottom() {
		return false, true
	}
	below := ii.Hi < ib.Lo
	if c, ok := f.zoneDiff(idx, bnd); ok && c <= -1 {
		below = true
	}
	return ii.Lo >= 0 && below, false
}

// rel is a canonical comparison relation after polarity normalization.
type rel int

const (
	relLt rel = iota // x < y
	relLe            // x <= y
	relEq            // x == y
	relNe            // x != y
)

// normalizeRel maps a comparison operator known to evaluate to want onto a
// canonical relation, possibly with swapped operands:
// ¬(x<y) = y<=x, ¬(x<=y) = y<x, ¬(x==y) = x!=y, ¬(x!=y) = x==y.
func normalizeRel(op lang.BinOp, want bool) (rl rel, swap bool) {
	switch op {
	case lang.OpLt:
		rl = relLt
	case lang.OpLe:
		rl = relLe
	case lang.OpGt:
		rl, swap = relLt, true
	case lang.OpGe:
		rl, swap = relLe, true
	case lang.OpEq:
		rl = relEq
	case lang.OpNe:
		rl = relNe
	}
	if !want {
		switch rl {
		case relLt:
			rl, swap = relLe, !swap
		case relLe:
			rl, swap = relLt, !swap
		case relEq:
			rl = relNe
		case relNe:
			rl = relEq
		}
	}
	return rl, swap
}

// relConstraints returns the intervals to meet into x and y given that
// "x rl y" holds and the operands currently lie in cx and cy. A bottom
// result signals a contradiction.
//
// Invariant: the relLt endpoints cy.Hi − 1 and cx.Lo + 1 are deliberately
// NOT clamped. When cy.Hi == minI32 the then-branch result {minI32,
// minI32 − 1} has Lo > Hi, which is exactly the bottom encoding — x < y
// with y at the minimum is unsatisfiable — and symmetrically for cx.Lo ==
// maxI32. A clamp or normalize pass here would silently turn these
// contradictions into wraparound intervals; see TestRelConstraintsEndpoints.
func relConstraints(rl rel, cx, cy Interval) (nx, ny Interval) {
	switch rl {
	case relLt:
		return Interval{minI32, cy.Hi - 1}, Interval{cx.Lo + 1, maxI32}
	case relLe:
		return Interval{minI32, cy.Hi}, Interval{cx.Lo, maxI32}
	case relEq:
		return cy, cx
	case relNe:
		nx, ny = cx, cy
		if cy.Lo == cy.Hi {
			nx = trimmed(cx, cy.Lo)
		}
		if cx.Lo == cx.Hi {
			ny = trimmed(cy, cx.Lo)
		}
		return nx, ny
	}
	return Top(32), Top(32)
}

// trimmed removes a single excluded value from an interval when it sits on
// an endpoint (intervals cannot represent interior holes).
func trimmed(c Interval, excluded int64) Interval {
	switch {
	case c.Lo == c.Hi && c.Lo == excluded:
		return Bottom()
	case c.Lo == excluded:
		return Interval{c.Lo + 1, c.Hi}
	case c.Hi == excluded:
		return Interval{c.Lo, c.Hi - 1}
	}
	return c
}
