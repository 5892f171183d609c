package absint

import (
	"context"

	"fusion/internal/cond"
	"fusion/internal/lang"
	"fusion/internal/pdg"
	"fusion/internal/poll"
	"fusion/internal/ssa"
)

// The refuter decides one slice query in the interval domain before any
// formula is built. It models exactly the constraint system fusioncore
// emits — defining equations for sliced vertices (with rule (1)'s pruned
// ite edges), the paths' guard-chain assertions, and the value
// constraints — so "the abstract system has no solution" implies the SMT
// query is unsatisfiable. Because the domain over-approximates, a failed
// refutation decides nothing.

type ctxVal struct {
	v   *ssa.Value
	ctx *cond.Ctx
}

type refuter struct {
	a    *Analysis
	sl   *pdg.Slice
	tree *cond.CtxTree
	// refined holds facts derived from the asserted guards and equality
	// constraints; entries only ever tighten.
	refined map[ctxVal]Interval
	// memo caches equation evaluation within one round; it is dropped
	// between rounds so new refinements propagate.
	memo map[ctxVal]Interval
	// asserted marks path-step instantiations whose guard chains the
	// formula asserts; the whole-program invariants (which assume exactly
	// those guards) apply to them.
	asserted map[ctxVal]bool
	// stride enables the congruence tier: stRefined holds derived stride
	// facts (only ever tightening), stMemo the per-round equation cache.
	stride    bool
	stRefined map[ctxVal]Stride
	stMemo    map[ctxVal]Stride
	// zone, when non-nil, tracks difference bounds over value
	// instantiations; the zero node ctxVal{} stands for the constant 0.
	// Every edge is implied by the emitted formula (asserted guards and
	// defining equations), so a negative cycle refutes the query.
	zone    *dbm[ctxVal]
	refuted bool
	changed bool
	// stop, when non-nil, cuts the refutation rounds short on
	// cancellation; an interrupted refutation simply decides nothing.
	stop func() bool
}

const (
	maxEvalDepth    = 48
	maxRefuteRounds = 4
)

// RefuteSlice reports whether the query represented by the slice — its
// paths' guard assertions plus its value constraints — is provably
// unsatisfiable in the abstract (intervals, then the congruence tier,
// then the zone relational tier when enabled). False decides nothing.
func (a *Analysis) RefuteSlice(sl *pdg.Slice) bool {
	refuted, _, _ := a.RefuteSliceTiered(sl)
	return refuted
}

// RefuteSliceTiered runs the refutation tiers in ascending cost order:
// the interval domain alone; then — when intervals fail and the
// congruence domain is enabled — the interval×stride reduced product;
// then the full product with the zone. byStride and byZone report which
// tier was needed (at most one is set, and only on refutation), which
// are the ablation's per-tier decision counts.
func (a *Analysis) RefuteSliceTiered(sl *pdg.Slice) (refuted, byStride, byZone bool) {
	return a.refuteTiered(sl, nil)
}

// RefuteSliceTieredCtx is RefuteSliceTiered with cooperative
// cancellation: once ctx expires the refuter stops deriving and decides
// nothing further (an incomplete refutation is simply a failed one).
func (a *Analysis) RefuteSliceTieredCtx(ctx context.Context, sl *pdg.Slice) (refuted, byStride, byZone bool) {
	return a.refuteTiered(sl, poll.Stop(ctx, 64))
}

func (a *Analysis) refuteTiered(sl *pdg.Slice, stop func() bool) (refuted, byStride, byZone bool) {
	if a.refuteOnce(sl, false, false, stop) {
		return true, false, false
	}
	if a.stride && !(stop != nil && stop()) && a.refuteOnce(sl, true, false, stop) {
		return true, true, false
	}
	if !a.zone || (stop != nil && stop()) {
		return false, false, false
	}
	refuted = a.refuteOnce(sl, a.stride, true, stop)
	return refuted, false, refuted
}

func (a *Analysis) refuteOnce(sl *pdg.Slice, useStride, useZone bool, stop func() bool) bool {
	r := &refuter{
		a: a, sl: sl, tree: cond.NewCtxTree(),
		refined:   map[ctxVal]Interval{},
		asserted:  map[ctxVal]bool{},
		stride:    useStride,
		stRefined: map[ctxVal]Stride{},
		stop:      stop,
	}
	if useZone {
		r.zone = newDBM[ctxVal]()
		r.zone.stop = stop
	}
	return r.run()
}

func (r *refuter) run() bool {
	// Collect the asserted guard instantiations, mirroring
	// cond.GuardAssertions / fusioncore.buildResidual.
	type guardAt struct {
		gd  *ssa.Value
		ctx *cond.Ctx
	}
	var guards []guardAt
	pathCtxs := make([][]*cond.Ctx, len(r.sl.Paths))
	for pi, p := range r.sl.Paths {
		ctxs := cond.AssignContexts(r.tree, p)
		pathCtxs[pi] = ctxs
		for i, step := range p {
			r.asserted[ctxVal{step.V, ctxs[i]}] = true
			for gd := step.V.Guard; gd != nil; gd = gd.Guard {
				guards = append(guards, guardAt{gd, ctxs[i]})
			}
			if step.Kind == pdg.StepCall {
				if c := r.sl.G.SiteCall[step.Site]; c != nil {
					r.asserted[ctxVal{c, ctxs[i].Parent}] = true
					for gd := c.Guard; gd != nil; gd = gd.Guard {
						guards = append(guards, guardAt{gd, ctxs[i].Parent})
					}
				}
			}
		}
	}

	for round := 0; round < maxRefuteRounds && !r.refuted; round++ {
		r.memo = map[ctxVal]Interval{}
		r.stMemo = map[ctxVal]Stride{}
		r.changed = false
		for _, g := range guards {
			if r.stop != nil && r.stop() {
				return r.refuted
			}
			r.derive(g.gd, true, g.ctx, 0)
			if r.refuted {
				return true
			}
		}
		for _, vc := range r.sl.Constraints {
			r.applyConstraint(vc, pathCtxs)
			if r.refuted {
				return true
			}
		}
		if !r.changed {
			break
		}
	}
	return r.refuted
}

// applyConstraint checks (and, for equalities, adopts) one value
// constraint.
func (r *refuter) applyConstraint(vc pdg.ValueConstraint, pathCtxs [][]*cond.Ctx) {
	if vc.Path >= len(r.sl.Paths) {
		return
	}
	p := r.sl.Paths[vc.Path]
	if vc.Step >= len(p) {
		return
	}
	v, ctx := p[vc.Step].V, pathCtxs[vc.Path][vc.Step]
	switch vc.Kind {
	case pdg.ConstraintOutOfBounds:
		iv := r.eval(v, ctx, 0)
		if r.zone != nil && !r.zone.dead {
			if n, off, ok := r.ctxNode(v, ctx); ok {
				iv = iv.Meet(r.zone.unary(n, off))
			}
		}
		if r.stride {
			// The reduction snaps the endpoints to the index's lattice
			// points — an aligned index can be in bounds even when its
			// raw interval hull is not.
			var st Stride
			iv, st = reduce(iv, r.evalSt(v, ctx, 0))
			if st.IsBottom() {
				r.refuted = true
				return
			}
		}
		if iv.Within(0, int64(int32(vc.Bound))-1) {
			r.refuted = true // the index provably stays in bounds
		}
	case pdg.ConstraintOutOfBoundsDyn:
		r.applyDynBound(v, ctx, vc)
	default:
		r.constrain(v, ctx, SingleW(vc.Value, width(v)))
		if !r.refuted {
			// Adopt the equality into the stride view too: a congruence
			// excluding the constrained value (an odd divisor forced to
			// zero, say) bottoms out here.
			r.constrainSt(v, ctx, SingleStride(SignExt(vc.Value, width(v))))
		}
	}
}

// applyDynBound handles a dynamic-bound sink: the constraint asserts the
// index argument escapes [0, bound), where the bound is itself a sink
// argument. The query is refuted when 0 ≤ idx and idx < bound are both
// proven — the latter is where the zone earns its keep, since an interval
// cannot relate an index to an unbounded runtime length.
func (r *refuter) applyDynBound(v *ssa.Value, ctx *cond.Ctx, vc pdg.ValueConstraint) {
	if vc.Arg < 0 || vc.Arg >= len(v.Args) || vc.BoundArg < 0 || vc.BoundArg >= len(v.Args) {
		return
	}
	idx, bnd := v.Args[vc.Arg], v.Args[vc.BoundArg]
	ii, ib := r.eval(idx, ctx, 0), r.eval(bnd, ctx, 0)
	if r.refuted {
		return
	}
	in, io, okI := r.ctxNode(idx, ctx)
	bn, bo, okB := r.ctxNode(bnd, ctx)
	if r.zone != nil && !r.zone.dead {
		if okI {
			ii = ii.Meet(r.zone.unary(in, io))
		}
		if okB {
			ib = ib.Meet(r.zone.unary(bn, bo))
		}
	}
	if r.stride {
		ii, _ = reduce(ii, r.evalSt(idx, ctx, 0))
	}
	if ii.IsBottom() || ib.IsBottom() {
		r.refuted = true
		return
	}
	nonneg := ii.Lo >= 0
	below := ii.Hi < ib.Lo
	if r.zone != nil && !r.zone.dead && okI && okB {
		if c, ok := r.zone.diff(in, io, bn, bo); ok && c <= -1 {
			below = true
		}
	}
	if nonneg && below {
		r.refuted = true
	}
}

// eval computes the interval of v instantiated in ctx under the emitted
// equation system, meeting in derived refinements and — for instantiations
// whose guard chains are asserted — the whole-program invariants.
func (r *refuter) eval(v *ssa.Value, ctx *cond.Ctx, depth int) Interval {
	vc := ctxVal{v, ctx}
	if iv, ok := r.memo[vc]; ok {
		return iv
	}
	iv := Top(width(v))
	if depth < maxEvalDepth {
		iv = r.equationOf(v, ctx, depth)
	}
	if rv, ok := r.refined[vc]; ok {
		iv = iv.Meet(rv)
	}
	if r.asserted[vc] {
		if inv, ok := r.a.vals[v]; ok {
			iv = iv.Meet(inv)
		}
	}
	if iv.IsBottom() {
		r.refuted = true
	}
	r.memo[vc] = iv
	// The memo entry is stored first so the zone hook's operand
	// evaluations cannot re-enter this instantiation.
	if r.zone != nil && depth < maxEvalDepth {
		r.zoneDef(v, ctx, depth)
	}
	return iv
}

// evalSt computes the stride of v instantiated in ctx under the emitted
// equation system, meeting in derived stride refinements, the
// whole-program stride invariants of asserted instantiations, and the
// Granger reduction against the interval view. Top when the congruence
// tier is off.
func (r *refuter) evalSt(v *ssa.Value, ctx *cond.Ctx, depth int) Stride {
	if !r.stride {
		return TopStride()
	}
	vc := ctxVal{v, ctx}
	if st, ok := r.stMemo[vc]; ok {
		return st
	}
	st := TopStride()
	if depth < maxEvalDepth {
		st = stFitWidth(r.stEquationOf(v, ctx, depth), width(v))
	}
	if rv, ok := r.stRefined[vc]; ok {
		st = st.Meet(rv)
	}
	if r.asserted[vc] {
		if inv, ok := r.a.strides[v]; ok {
			st = st.Meet(inv)
		}
	}
	if _, st2 := reduce(r.eval(v, ctx, depth), st); st2.IsBottom() {
		r.refuted = true
		st = BotStride()
	} else {
		st = st2
	}
	r.stMemo[vc] = st
	return st
}

// stEquationOf mirrors equationOf in the congruence domain: vertices
// outside the slice have no defining equation and stay free.
func (r *refuter) stEquationOf(v *ssa.Value, ctx *cond.Ctx, depth int) Stride {
	if v.Op == ssa.OpConst {
		return SingleStride(SignExt(v.Const, width(v)))
	}
	if !r.sl.Values[v] {
		return TopStride()
	}
	g := r.sl.G
	switch v.Op {
	case ssa.OpParam:
		if ctx.Parent == nil {
			return TopStride()
		}
		c := g.SiteCall[ctx.Site]
		idx := pdg.ParamIndex(v)
		if c == nil || idx < 0 || idx >= len(c.Args) {
			return TopStride()
		}
		return r.evalSt(c.Args[idx], ctx.Parent, depth+1)
	case ssa.OpCopy, ssa.OpReturn, ssa.OpBranch:
		return r.evalSt(v.Args[0], ctx, depth+1)
	case ssa.OpNeg:
		return StNeg(r.evalSt(v.Args[0], ctx, depth+1), r.eval(v.Args[0], ctx, depth+1))
	case ssa.OpIte:
		thenIn, elseIn := r.sl.IteTaken(v)
		switch {
		case thenIn && elseIn:
			c := r.eval(v.Args[0], ctx, depth+1)
			switch {
			case c.IsBottom():
				return BotStride()
			case c.Lo == 1:
				return r.evalSt(v.Args[1], ctx, depth+1)
			case c.Hi == 0:
				return r.evalSt(v.Args[2], ctx, depth+1)
			default:
				return r.evalSt(v.Args[1], ctx, depth+1).Join(r.evalSt(v.Args[2], ctx, depth+1))
			}
		case thenIn:
			return r.evalSt(v.Args[1], ctx, depth+1)
		case elseIn:
			return r.evalSt(v.Args[2], ctx, depth+1)
		default:
			return BotStride() // eval already refuted this shape
		}
	case ssa.OpCall:
		callee := g.Callee(v)
		if callee == nil || callee.Ret == nil {
			return TopStride()
		}
		return r.evalSt(callee.Ret, r.tree.Child(ctx, v.Site), depth+1)
	case ssa.OpBin:
		return r.stBinEval(v, ctx, depth)
	default:
		return TopStride()
	}
}

func (r *refuter) stBinEval(v *ssa.Value, ctx *cond.Ctx, depth int) Stride {
	x, y := v.Args[0], v.Args[1]
	if x == y && v.BinOp == lang.OpSub {
		// Same-operand identity; see binEval.
		return SingleStride(0)
	}
	sx := r.evalSt(x, ctx, depth+1)
	sy := r.evalSt(y, ctx, depth+1)
	ix := r.eval(x, ctx, depth+1)
	iy := r.eval(y, ctx, depth+1)
	return stBinOp(v.BinOp, sx, sy, ix, iy, width(v))
}

// constrainSt meets a derived stride fact into (v, ctx), reducing the
// interval view against it; an empty combination refutes the query.
func (r *refuter) constrainSt(v *ssa.Value, ctx *cond.Ctx, with Stride) {
	if !r.stride || r.refuted {
		return
	}
	m := r.evalSt(v, ctx, 0).Meet(with)
	iv, m2 := reduce(r.eval(v, ctx, 0), m)
	if iv.IsBottom() {
		r.refuted = true
		return
	}
	if v.Op == ssa.OpConst {
		return
	}
	vc := ctxVal{v, ctx}
	if old, ok := r.stRefined[vc]; !ok || old != m2 {
		r.stRefined[vc] = m2
		r.changed = true
		delete(r.stMemo, vc)
	}
	r.constrain(v, ctx, iv) // the reduced interval is a fact too
}

// ctxNode normalizes a 32-bit instantiation to a DBM node plus constant
// offset; constants fold into the distinguished zero node ctxVal{}.
func (r *refuter) ctxNode(v *ssa.Value, ctx *cond.Ctx) (ctxVal, int64, bool) {
	if width(v) != 32 {
		return ctxVal{}, 0, false
	}
	if v.Op == ssa.OpConst {
		return ctxVal{}, int64(int32(v.Const)), true
	}
	return ctxVal{v, ctx}, 0, true
}

// zoneAdd records (xn + xo) − (yn + yo) ≤ c; a negative cycle means the
// emitted formula is contradictory, refuting the query.
func (r *refuter) zoneAdd(xn ctxVal, xo int64, yn ctxVal, yo int64, c int64) {
	if r.zone == nil {
		return
	}
	if r.zone.addNorm(xn, xo, yn, yo, c) {
		r.changed = true
	}
	if r.zone.dead {
		r.refuted = true
	}
}

// zoneDef mirrors refiner.noteDef context-sensitively: the zone edges
// implied by v's defining equation in ctx. Copies, returns, parameter
// bindings, and call results are exact equalities; machine addition and
// subtraction contribute edges only when the operand intervals prove the
// operation cannot wrap.
func (r *refuter) zoneDef(v *ssa.Value, ctx *cond.Ctx, depth int) {
	if r.refuted || v.Op == ssa.OpConst || width(v) != 32 || !r.sl.Values[v] {
		return
	}
	vn := ctxVal{v, ctx}
	eq := func(x *ssa.Value, xctx *cond.Ctx) {
		xn, xo, ok := r.ctxNode(x, xctx)
		if !ok {
			return
		}
		r.zoneAdd(vn, 0, xn, xo, 0)
		r.zoneAdd(xn, xo, vn, 0, 0)
	}
	g := r.sl.G
	switch v.Op {
	case ssa.OpParam:
		if ctx.Parent == nil {
			return
		}
		c := g.SiteCall[ctx.Site]
		idx := pdg.ParamIndex(v)
		if c == nil || idx < 0 || idx >= len(c.Args) {
			return
		}
		eq(c.Args[idx], ctx.Parent)
	case ssa.OpCopy, ssa.OpReturn:
		eq(v.Args[0], ctx)
	case ssa.OpCall:
		callee := g.Callee(v)
		if callee == nil || callee.Ret == nil {
			return
		}
		eq(callee.Ret, r.tree.Child(ctx, v.Site))
	case ssa.OpBin:
		x, y := v.Args[0], v.Args[1]
		switch v.BinOp {
		case lang.OpAdd:
			ix, iy := r.eval(x, ctx, depth+1), r.eval(y, ctx, depth+1)
			if ix.IsBottom() || iy.IsBottom() ||
				ix.Lo+iy.Lo < minI32 || ix.Hi+iy.Hi > maxI32 {
				return // may wrap: no integer edge is sound
			}
			if xn, xo, ok := r.ctxNode(x, ctx); ok {
				r.zoneAdd(vn, 0, xn, xo, iy.Hi)
				r.zoneAdd(xn, xo, vn, 0, -iy.Lo)
			}
			if yn, yo, ok := r.ctxNode(y, ctx); ok {
				r.zoneAdd(vn, 0, yn, yo, ix.Hi)
				r.zoneAdd(yn, yo, vn, 0, -ix.Lo)
			}
		case lang.OpSub:
			if x == y {
				return
			}
			ix, iy := r.eval(x, ctx, depth+1), r.eval(y, ctx, depth+1)
			if ix.IsBottom() || iy.IsBottom() ||
				ix.Lo-iy.Hi < minI32 || ix.Hi-iy.Lo > maxI32 {
				return
			}
			if xn, xo, ok := r.ctxNode(x, ctx); ok {
				r.zoneAdd(vn, 0, xn, xo, -iy.Lo)
				r.zoneAdd(xn, xo, vn, 0, iy.Hi)
			}
		}
	}
}

// equationOf mirrors cond.Translator.Equation: vertices outside the slice
// have no defining equation and stay free.
func (r *refuter) equationOf(v *ssa.Value, ctx *cond.Ctx, depth int) Interval {
	if v.Op == ssa.OpConst {
		return SingleW(v.Const, width(v))
	}
	if !r.sl.Values[v] {
		return Top(width(v))
	}
	g := r.sl.G
	switch v.Op {
	case ssa.OpParam:
		if ctx.Parent == nil {
			return Top(width(v))
		}
		c := g.SiteCall[ctx.Site]
		idx := pdg.ParamIndex(v)
		if c == nil || idx < 0 || idx >= len(c.Args) {
			return Top(width(v))
		}
		return r.eval(c.Args[idx], ctx.Parent, depth+1)
	case ssa.OpCopy, ssa.OpReturn, ssa.OpBranch:
		return r.eval(v.Args[0], ctx, depth+1)
	case ssa.OpNot:
		return NotBool(r.eval(v.Args[0], ctx, depth+1))
	case ssa.OpNeg:
		return fitWidth(Neg(r.eval(v.Args[0], ctx, depth+1)), width(v))
	case ssa.OpIte:
		thenIn, elseIn := r.sl.IteTaken(v)
		switch {
		case thenIn && elseIn:
			c := r.eval(v.Args[0], ctx, depth+1)
			switch {
			case c.IsBottom():
				return Bottom()
			case c.Lo == 1:
				return r.eval(v.Args[1], ctx, depth+1)
			case c.Hi == 0:
				return r.eval(v.Args[2], ctx, depth+1)
			default:
				return r.eval(v.Args[1], ctx, depth+1).Join(r.eval(v.Args[2], ctx, depth+1))
			}
		case thenIn:
			// Rule (1) pruned the else edge: the equation additionally
			// asserts the condition, which only strengthens — ignoring it
			// here stays sound for refutation.
			return r.eval(v.Args[1], ctx, depth+1)
		case elseIn:
			return r.eval(v.Args[2], ctx, depth+1)
		default:
			// Both edges pruned by conflicting paths: the equation is
			// literally false.
			r.refuted = true
			return Bottom()
		}
	case ssa.OpCall:
		callee := g.Callee(v)
		if callee == nil || callee.Ret == nil {
			return Top(width(v))
		}
		return r.eval(callee.Ret, r.tree.Child(ctx, v.Site), depth+1)
	case ssa.OpExtern:
		return Top(width(v))
	case ssa.OpBin:
		return r.binEval(v, ctx, depth)
	default:
		return Top(width(v))
	}
}

func (r *refuter) binEval(v *ssa.Value, ctx *cond.Ctx, depth int) Interval {
	x, y := v.Args[0], v.Args[1]
	if x == y {
		// Same-operand identities; see binTransfer.
		xv := r.eval(x, ctx, depth+1)
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
	l, rr := r.eval(x, ctx, depth+1), r.eval(y, ctx, depth+1)
	isBool := v.Type == lang.TypeBool && x.Type == lang.TypeBool
	return binInterval(v.BinOp, l, rr, isBool, width(v))
}

// constrain meets a derived fact into (v, ctx); an empty meet refutes the
// query.
func (r *refuter) constrain(v *ssa.Value, ctx *cond.Ctx, with Interval) {
	cur := r.eval(v, ctx, 0)
	m := cur.Meet(with)
	if m.IsBottom() {
		r.refuted = true
		return
	}
	if v.Op == ssa.OpConst {
		return
	}
	vc := ctxVal{v, ctx}
	if old, ok := r.refined[vc]; !ok || old != m {
		r.refined[vc] = m
		r.changed = true
		delete(r.memo, vc) // downstream evals must see the tighter fact
	}
}

// derive propagates "c evaluates to want in ctx" through the condition's
// structure, mirroring refiner.derive but context-sensitively.
func (r *refuter) derive(c *ssa.Value, want bool, ctx *cond.Ctx, depth int) {
	if r.refuted || depth > maxDeriveDepth {
		return
	}
	if want {
		r.constrain(c, ctx, Interval{1, 1})
	} else {
		r.constrain(c, ctx, Interval{0, 0})
	}
	if r.refuted {
		return
	}
	// Vertices outside the slice have no defining equation, so their
	// structure is not in the formula.
	if !r.sl.Values[c] && c.Op != ssa.OpConst {
		return
	}
	switch c.Op {
	case ssa.OpCopy, ssa.OpBranch:
		r.derive(c.Args[0], want, ctx, depth+1)
	case ssa.OpNot:
		r.derive(c.Args[0], !want, ctx, depth+1)
	case ssa.OpBin:
		switch c.BinOp {
		case lang.OpAnd:
			if want {
				r.derive(c.Args[0], true, ctx, depth+1)
				r.derive(c.Args[1], true, ctx, depth+1)
			}
		case lang.OpOr:
			if !want {
				r.derive(c.Args[0], false, ctx, depth+1)
				r.derive(c.Args[1], false, ctx, depth+1)
			}
		case lang.OpLt, lang.OpLe, lang.OpGt, lang.OpGe, lang.OpEq, lang.OpNe:
			r.deriveCmp(c.BinOp, c.Args[0], c.Args[1], want, ctx)
		}
	}
}

func (r *refuter) deriveCmp(op lang.BinOp, x, y *ssa.Value, want bool, ctx *cond.Ctx) {
	rl, swap := normalizeRel(op, want)
	if swap {
		x, y = y, x
	}
	cx, cy := r.eval(x, ctx, 0), r.eval(y, ctx, 0)
	if r.refuted {
		return
	}
	nx, ny := relConstraints(rl, cx, cy)
	r.constrain(x, ctx, nx)
	if r.refuted {
		return
	}
	r.constrain(y, ctx, ny)
	if r.refuted {
		return
	}
	if r.stride {
		switch rl {
		case relEq:
			// Equal values share a stride; a `%`-equality guard fixes
			// the dividend's congruence class. See refiner.deriveCmp.
			sx, sy := r.evalSt(x, ctx, 0), r.evalSt(y, ctx, 0)
			if r.refuted {
				return
			}
			r.constrainSt(x, ctx, sy)
			r.constrainSt(y, ctx, sx)
			r.deriveRemCtx(x, y, true, ctx)
			r.deriveRemCtx(y, x, true, ctx)
		case relNe:
			r.deriveRemCtx(x, y, false, ctx)
			r.deriveRemCtx(y, x, false, ctx)
		}
		if r.refuted {
			return
		}
	}
	if r.zone == nil {
		return
	}
	// Record the relation itself as a zone edge; see refiner.deriveCmp.
	xn, xo, okx := r.ctxNode(x, ctx)
	yn, yo, oky := r.ctxNode(y, ctx)
	if !okx || !oky {
		return
	}
	switch rl {
	case relLt:
		r.zoneAdd(xn, xo, yn, yo, -1)
	case relLe:
		r.zoneAdd(xn, xo, yn, yo, 0)
	case relEq:
		r.zoneAdd(xn, xo, yn, yo, 0)
		r.zoneAdd(yn, yo, xn, xo, 0)
	}
}

// deriveRemCtx mirrors refiner.deriveRem context-sensitively: the rem
// expression's defining equation is only in the formula when the vertex
// is sliced.
func (r *refuter) deriveRemCtx(e, val *ssa.Value, eq bool, ctx *cond.Ctx) {
	if r.refuted || e.Op != ssa.OpBin || e.BinOp != lang.OpRem || !r.sl.Values[e] {
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
	cv := r.eval(val, ctx, 0)
	if r.refuted || cv.Lo != cv.Hi || cv.Lo < 0 || cv.Lo >= k {
		return
	}
	rem := cv.Lo
	d := e.Args[0]
	if eq {
		mod := gcd64(k, wrapModulus(width(d)))
		if r.eval(d, ctx, 0).Lo >= 0 {
			mod = k
		}
		r.constrainSt(d, ctx, mkStride(mod, rem))
		return
	}
	if k == 2 {
		r.constrainSt(d, ctx, mkStride(2, 1-rem))
	}
}

// PrunePath reports whether a candidate path (with its sink constraints,
// which reference path index 0) is provably infeasible from the
// whole-program invariants alone: either a step runs through code whose
// guard chain can never hold, or a sink constraint contradicts the sink
// value's invariant. This is the sparse engine's pruning oracle — much
// cheaper than RefuteSlice since it needs no slice or context tree.
func (a *Analysis) PrunePath(p pdg.Path, vcs ...pdg.ValueConstraint) bool {
	for _, step := range p {
		if iv, ok := a.vals[step.V]; ok && iv.IsBottom() {
			return true
		}
	}
	for _, vc := range vcs {
		if vc.Path != 0 || vc.Step >= len(p) {
			continue
		}
		v := p[vc.Step].V
		switch vc.Kind {
		case pdg.ConstraintOutOfBounds:
			// The sink only executes when its guard chain holds, so the
			// facts of its guard environment — including zone bounds — are
			// valid for any real hit on this path.
			iv := a.invariantOf(v)
			if z := a.zoneOf(v); z != nil && !z.dead {
				if n, off, ok := zoneOperand(v); ok {
					iv = iv.Meet(z.unary(n, off))
				}
			}
			if a.stride {
				iv, _ = reduce(iv, a.strideInvariantOf(v))
			}
			if iv.Within(0, int64(int32(vc.Bound))-1) {
				return true
			}
		case pdg.ConstraintOutOfBoundsDyn:
			if a.pruneDynBound(v, vc) {
				return true
			}
		default:
			iv, ok := a.vals[v]
			if ok && !iv.Contains(SignExt(vc.Value, width(v))) {
				return true
			}
			if a.stride {
				if st, found := a.strides[v]; found && !st.IsBottom() && !st.Contains(SignExt(vc.Value, width(v))) {
					return true
				}
			}
		}
	}
	return false
}

// invariantOf returns v's whole-program invariant, defaulting to top.
func (a *Analysis) invariantOf(v *ssa.Value) Interval {
	if v.Op == ssa.OpConst {
		return SingleW(v.Const, width(v))
	}
	if iv, ok := a.vals[v]; ok {
		return iv
	}
	return Top(width(v))
}

// pruneDynBound mirrors refuter.applyDynBound against the whole-program
// invariants and the sink's guard-environment zone.
func (a *Analysis) pruneDynBound(v *ssa.Value, vc pdg.ValueConstraint) bool {
	if vc.Arg < 0 || vc.Arg >= len(v.Args) || vc.BoundArg < 0 || vc.BoundArg >= len(v.Args) {
		return false
	}
	idx, bnd := v.Args[vc.Arg], v.Args[vc.BoundArg]
	ii, ib := a.invariantOf(idx), a.invariantOf(bnd)
	in, io, okI := zoneOperand(idx)
	bn, bo, okB := zoneOperand(bnd)
	z := a.zoneOf(v)
	if z != nil && (z.dead || !okI || !okB) {
		z = nil
	}
	if z != nil {
		ii = ii.Meet(z.unary(in, io))
		ib = ib.Meet(z.unary(bn, bo))
	}
	if a.stride {
		ii, _ = reduce(ii, a.strideInvariantOf(idx))
	}
	if ii.IsBottom() || ib.IsBottom() {
		return false // invariants say the sink is unreachable-ish; leave to RefuteSlice
	}
	nonneg := ii.Lo >= 0
	below := ii.Hi < ib.Lo
	if z != nil {
		if c, ok := z.diff(in, io, bn, bo); ok && c <= -1 {
			below = true
		}
	}
	return nonneg && below
}
