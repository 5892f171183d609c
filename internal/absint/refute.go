package absint

import (
	"context"

	"fusion/internal/cond"
	"fusion/internal/pdg"
	"fusion/internal/poll"
	"fusion/internal/ssa"
)

// The refuter decides one slice query in the interval domain without
// building its formula. It models exactly the constraint system fusioncore
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
// unsatisfiable in the abstract. It runs the tiers in ascending cost
// order: the interval domain alone; then — when intervals fail and the
// congruence domain is enabled — the interval×stride reduced product;
// then the full product with the zone. byStride and byZone report which
// tier was needed (at most one is set, and only on refutation), which are
// the ablation's per-tier decision counts. False decides nothing. Once
// ctx is done the refuter stops deriving and decides nothing further (an
// incomplete refutation is simply a failed one).
func (a *Analysis) RefuteSlice(ctx context.Context, sl *pdg.Slice) (refuted, byStride, byZone bool) {
	stop := poll.Stop(ctx, 64)
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
			r.assertGuard(g.gd, g.ctx)
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

// assertGuard asserts a guard vertex in ctx. The formula defines the
// branch vertex as a copy of its condition, so the refuter constrains the
// branch itself and then derives its condition, where the record pass
// derives the condition alone.
func (r *refuter) assertGuard(gd *ssa.Value, ctx *cond.Ctx) {
	f := ctxFacts{r: r, ctx: ctx}
	f.constrain(gd, Interval{1, 1})
	if !f.dead() && !f.opaque(gd) {
		derive(f, gd.Args[0], true, 1)
	}
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
	f := ctxFacts{r: r, ctx: ctx}
	switch vc.Kind {
	case pdg.ConstraintOutOfBounds:
		// An index with no value left is a contradiction in the formula.
		if in, empty := constInBounds(f, v, vc); in || empty {
			r.refuted = true
		}
	case pdg.ConstraintOutOfBoundsDyn:
		if in, empty := dynInBounds(f, v, vc); in || empty {
			r.refuted = true
		}
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
		if inv, ok := r.a.IntervalOf(v); ok {
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
		if inv, ok := r.a.StrideOf(v); ok {
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

// stEquationOf is equationOf in the congruence domain.
func (r *refuter) stEquationOf(v *ssa.Value, ctx *cond.Ctx, depth int) Stride {
	f := ctxFacts{r, ctx, depth + 1}
	switch {
	case f.opaque(v):
		return TopStride()
	case v.Op == ssa.OpParam || v.Op == ssa.OpCall:
		if x, xctx := r.binding(v, ctx); x != nil {
			return r.evalSt(x, xctx, depth+1)
		}
		return TopStride()
	case v.Op == ssa.OpIte:
		switch thenIn, elseIn := r.sl.IteTaken(v); {
		case thenIn && !elseIn:
			return f.stride(v.Args[1])
		case elseIn && !thenIn:
			return f.stride(v.Args[2])
		case !thenIn && !elseIn:
			return BotStride() // eval already refuted this shape
		}
	}
	return strideOf(f, v)
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

// ctxNode names x's zone operand in ctx; constants fold into the
// distinguished zero node ctxVal{}.
func ctxNode(x *ssa.Value, ctx *cond.Ctx) (ctxVal, int64, bool) {
	n, off, ok := zoneOperand(x)
	if n == nil {
		return ctxVal{}, off, ok
	}
	return ctxVal{n, ctx}, off, ok
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

// zoneDef records the zone edges implied by v's defining equation in ctx:
// defEdges, plus the exact equalities of parameter bindings and call
// results across contexts.
func (r *refuter) zoneDef(v *ssa.Value, ctx *cond.Ctx, depth int) {
	if r.refuted || v.Op == ssa.OpConst || width(v) != 32 || !r.sl.Values[v] {
		return
	}
	x, xctx := r.binding(v, ctx)
	if x == nil {
		defEdges(ctxFacts{r, ctx, depth + 1}, v)
		return
	}
	if xn, xo, ok := ctxNode(x, xctx); ok {
		vn := ctxVal{v, ctx}
		r.zoneAdd(vn, 0, xn, xo, 0)
		r.zoneAdd(xn, xo, vn, 0, 0)
	}
}

// binding returns the instantiation that a parameter or call result
// equals in the emitted formula: a parameter, its argument at the call
// site in the parent context; a call result, the callee's return in the
// call's child context. x is nil for any other vertex or when the binding
// is unknown.
func (r *refuter) binding(v *ssa.Value, ctx *cond.Ctx) (x *ssa.Value, xctx *cond.Ctx) {
	g := r.sl.G
	switch v.Op {
	case ssa.OpParam:
		if ctx.Parent == nil {
			return nil, nil
		}
		c := g.SiteCall[ctx.Site]
		idx := pdg.ParamIndex(v)
		if c == nil || idx < 0 || idx >= len(c.Args) {
			return nil, nil
		}
		return c.Args[idx], ctx.Parent
	case ssa.OpCall:
		callee := g.Callee(v)
		if callee == nil || callee.Ret == nil {
			return nil, nil
		}
		return callee.Ret, r.tree.Child(ctx, v.Site)
	}
	return nil, nil
}

// equationOf mirrors cond.Translator.Equation: vertices outside the slice
// have no defining equation and stay free.
func (r *refuter) equationOf(v *ssa.Value, ctx *cond.Ctx, depth int) Interval {
	f := ctxFacts{r, ctx, depth + 1}
	switch {
	case f.opaque(v):
		return Top(width(v))
	case v.Op == ssa.OpParam || v.Op == ssa.OpCall:
		if x, xctx := r.binding(v, ctx); x != nil {
			return r.eval(x, xctx, depth+1)
		}
		return Top(width(v))
	case v.Op == ssa.OpIte:
		switch thenIn, elseIn := r.sl.IteTaken(v); {
		case thenIn && !elseIn:
			// Rule (1) pruned the else edge: the equation additionally
			// asserts the condition, which only strengthens — ignoring it
			// here stays sound for refutation.
			return f.interval(v.Args[1])
		case elseIn && !thenIn:
			return f.interval(v.Args[2])
		case !thenIn && !elseIn:
			// Both edges pruned by conflicting paths: the equation is
			// literally false.
			r.refuted = true
			return Bottom()
		}
	}
	return transferOf(f, v)
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

// ctxFacts is the refuter's fact store at one calling context: facts live
// on (value, ctx) instantiations, and lookups evaluate the emitted
// equations at the given depth.
type ctxFacts struct {
	r     *refuter
	ctx   *cond.Ctx
	depth int
}

func (f ctxFacts) interval(x *ssa.Value) Interval { return f.r.eval(x, f.ctx, f.depth) }
func (f ctxFacts) stride(x *ssa.Value) Stride     { return f.r.evalSt(x, f.ctx, f.depth) }
func (f ctxFacts) striding() bool                 { return f.r.stride }
func (f ctxFacts) dead() bool                     { return f.r.refuted }
func (f ctxFacts) kill()                          { f.r.refuted = true }

func (f ctxFacts) constrain(x *ssa.Value, with Interval) { f.r.constrain(x, f.ctx, with) }
func (f ctxFacts) constrainSt(x *ssa.Value, with Stride) { f.r.constrainSt(x, f.ctx, with) }

// opaque holds for vertices outside the slice: they have no defining
// equation, so their structure is not in the formula.
func (f ctxFacts) opaque(c *ssa.Value) bool { return c.Op != ssa.OpConst && !f.r.sl.Values[c] }

// disjoin derives nothing: the refuter does not join disjunctions.
func (ctxFacts) disjoin(*ssa.Value, *ssa.Value, bool, int) {}

func (f ctxFacts) relate(x, y *ssa.Value, c int64) {
	xn, xo, okx := ctxNode(x, f.ctx)
	yn, yo, oky := ctxNode(y, f.ctx)
	if okx && oky {
		f.r.zoneAdd(xn, xo, yn, yo, c)
	}
}

func (f ctxFacts) zoneBound(x *ssa.Value) (Interval, bool) { return f.r.zone.bound(ctxNode(x, f.ctx)) }

func (f ctxFacts) zoneDiff(x, y *ssa.Value) (int64, bool) {
	xn, xo, okx := ctxNode(x, f.ctx)
	yn, yo, oky := ctxNode(y, f.ctx)
	if !okx || !oky || f.r.zone == nil || f.r.zone.dead {
		return 0, false
	}
	return f.r.zone.diff(xn, xo, yn, yo)
}

// PrunePath reports whether a candidate path (with its sink constraints,
// which reference path index 0) is provably infeasible from the
// whole-program invariants alone: either a step runs through code whose
// guard chain can never hold, or a sink constraint contradicts the sink
// value's invariant. This is the sparse engine's pruning oracle — much
// cheaper than RefuteSlice since it needs no slice or context tree.
func (a *Analysis) PrunePath(p pdg.Path, vcs ...pdg.ValueConstraint) bool {
	for _, step := range p {
		if iv, ok := a.IntervalOf(step.V); ok && iv.IsBottom() {
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
			// An index with no value left decides nothing here.
			if in, _ := constInBounds(a.sinkFacts(v), v, vc); in {
				return true
			}
		case pdg.ConstraintOutOfBoundsDyn:
			// Nor does an empty index or bound: the invariants say the
			// sink is unreachable-ish, which RefuteSlice decides.
			if in, _ := dynInBounds(a.sinkFacts(v), v, vc); in {
				return true
			}
		default:
			iv, ok := a.IntervalOf(v)
			if ok && !iv.Contains(SignExt(vc.Value, width(v))) {
				return true
			}
			if st, found := a.StrideOf(v); found && !st.IsBottom() && !st.Contains(SignExt(vc.Value, width(v))) {
				return true
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
	if iv, ok := a.IntervalOf(v); ok {
		return iv
	}
	return Top(width(v))
}

// sinkFacts is the oracle's read-only fact store at a sink: the
// whole-program invariants, with the zone of the sink's guard
// environment. The sink only executes when its guard chain holds, so
// those zone facts are valid for any real hit.
type sinkFacts struct {
	a *Analysis
	z *dbm[*ssa.Value] // nil when the domain is off
}

func (a *Analysis) sinkFacts(v *ssa.Value) sinkFacts { return sinkFacts{a, a.zoneOf(v)} }

func (f sinkFacts) interval(x *ssa.Value) Interval { return f.a.invariantOf(x) }
func (f sinkFacts) stride(x *ssa.Value) Stride     { return f.a.strideInvariantOf(x) }
func (f sinkFacts) striding() bool                 { return f.a.stride }

func (f sinkFacts) zoneBound(x *ssa.Value) (Interval, bool) { return f.z.bound(zoneOperand(x)) }

func (f sinkFacts) zoneDiff(x, y *ssa.Value) (int64, bool) {
	xn, xo, okx := zoneOperand(x)
	yn, yo, oky := zoneOperand(y)
	if !okx || !oky || f.z == nil || f.z.dead {
		return 0, false
	}
	return f.z.diff(xn, xo, yn, yo)
}
