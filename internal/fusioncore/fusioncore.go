// Package fusioncore implements the paper's contribution: IR-based SMT
// solving fused with the sparse analysis. Instead of eagerly computing,
// cloning, and caching path conditions, the solver works on the program
// dependence graph:
//
//   - ir_based_smt_solve (Algorithm 4): slice, clone, translate, solve —
//     available via Options{Unoptimized: true} as the ablation baseline;
//   - the optimized solution (Algorithm 6): per-function local conditions
//     preprocessed with interface variables preserved
//     (intraprocedural_preprocess), inter-procedural propagation of closed
//     return forms over the graph's modular structure — the "quick paths"
//     that let a caller skip a callee entirely (interprocedural_preprocess,
//     Figures 3 and 9) — and context cloning delayed until only the
//     conditions that still need it remain.
package fusioncore

import (
	"context"
	"sort"
	"time"

	"fusion/internal/sat"

	"fusion/internal/absint"
	"fusion/internal/cond"
	"fusion/internal/pdg"
	"fusion/internal/smt"
	"fusion/internal/solver"
	"fusion/internal/ssa"
)

// Options configure the fused solve.
type Options struct {
	// Solver configures the final standalone solve on the residual
	// formula.
	Solver solver.Options
	// DisableQuickPaths turns off inter-procedural propagation of closed
	// return forms (ablation).
	DisableQuickPaths bool
	// DisableLocalPreprocess turns off per-function preprocessing
	// (ablation).
	DisableLocalPreprocess bool
	// Unoptimized selects Algorithm 4: eager cloning with no local or
	// inter-procedural preprocessing.
	Unoptimized bool
	// DisableGraphProbe turns off the graph-level concrete-execution probe
	// that runs on the raw residual before Algorithm 6 (ablation).
	DisableGraphProbe bool
	// Constraints pins path-step values in the condition (see
	// pdg.ValueConstraint), e.g. the zero divisor of a division-by-zero
	// candidate.
	Constraints []pdg.ValueConstraint
	// Absint, when set, adds the interval abstract interpretation as the
	// first preprocessing tier: queries it refutes are decided unsat with
	// no formula built at all, its decided singletons pre-simplify the
	// per-function local conditions, and its invariant bounds on
	// path-step vertices are exported as extra conjuncts of the residual.
	Absint *absint.Analysis
	// DisableAbsintSimplify turns off the absint-guided pre-simplification
	// of local conditions (the `-absint=nosimplify` ablation); refutation
	// and fact export stay on.
	DisableAbsintSimplify bool
	// MaxHeapDelta, when positive, bounds how many bytes of new formula
	// the residual construction may allocate in the shared builder. A
	// query whose residual grows past the bound is not solved: the
	// result reports Unknown with Exhausted set instead of risking the
	// batch's memory.
	MaxHeapDelta int64
}

// inlineThreshold is the maximum DAG size of a closed return form that
// may be propagated across call edges (quick path).
const inlineThreshold = 64

// Result reports the fused solve outcome and its cost accounting.
type Result struct {
	solver.Result
	// SliceSize is the vertex count of G[Π].
	SliceSize int
	// Clones is the number of (function, context) instances actually
	// materialized; the eager translation's clone count bounds it.
	Clones int
	// QuickPaths counts call edges crossed via a closed return form
	// instead of a cloned instance.
	QuickPaths int
	// LocalPreprocessTime is the total time spent in per-function
	// preprocessing.
	LocalPreprocessTime time.Duration
	// BuildTime is the wall time of residual-formula construction (graph
	// emission through local preprocessing), reported separately so the
	// telemetry layer can attribute translate cost apart from search cost.
	BuildTime time.Duration
	// RawBuildTime is the wall time of the graph probe's raw-residual
	// construction, its affordability check included.
	RawBuildTime time.Duration
	// DecidedByAbsint reports the query was refuted by the abstract
	// interpretation before any formula was built.
	DecidedByAbsint bool
	// DecidedByStride reports the refutation needed the congruence
	// (stride) tier — the interval domain alone could not decide it.
	DecidedByStride bool
	// DecidedByZone reports the refutation needed the zone relational
	// tier — neither intervals nor the congruence tier could decide it.
	DecidedByZone bool
	// AbsintBounds counts the invariant bound conjuncts exported into the
	// residual formula.
	AbsintBounds int
	// AbsintDiffs counts the difference-bound conjuncts exported into the
	// residual formula by the zone domain.
	AbsintDiffs int
	// AbsintStrides counts the congruence conjuncts exported into the
	// residual formula by the stride domain.
	AbsintStrides int
	// Simplified counts vertices whose decided singleton invariants were
	// folded into the local conditions by the pre-simplification pass.
	Simplified int
	// PrunedGuards counts decided branch conditions among them — guards
	// the pass rewrote to literals before the quick-path search.
	PrunedGuards int
	// Phi is the residual formula handed to the final solve (after
	// emission, before its global preprocessing), for inspection.
	Phi *smt.Term
}

// instKey identifies a materialized (function, context) instance.
type instKey struct {
	f   *ssa.Function
	ctx *cond.Ctx
}

// boundKey identifies a vertex instantiation whose invariant bounds were
// exported.
type boundKey struct {
	v   *ssa.Value
	ctx *cond.Ctx
}

type state struct {
	b     *smt.Builder
	g     *pdg.Graph
	sl    *pdg.Slice
	tr    *cond.Translator
	opts  Options
	conjs []*smt.Term

	// Per-function local conditions over root-context variable names.
	summary map[*ssa.Function]*smt.Term
	// closed maps a function to its return value expressed purely over
	// its parameters (the quick-path form), when one exists.
	closed map[*ssa.Function]*smt.Term

	emitted   map[instKey]bool
	quickUses int
	sliceVals map[*ssa.Function][]*ssa.Value
	// forcedSites are call sites the paths pass through; their callee
	// instances are materialized regardless of quick paths.
	forcedSites   map[int]bool
	localPrep     time.Duration
	absintBounds  int
	absintDiffs   int
	absintStrides int
	simplified    int
	prunedGuards  int
}

// Solve decides the feasibility of a set of data-dependence paths directly
// on the program dependence graph. It honors ctx cooperatively: the absint
// refuters, the graph probe, local preprocessing, and every phase of the
// residual's solve poll it, Solve checks it between those stages, and a
// cancelled ctx yields Unknown.
func Solve(ctx context.Context, b *smt.Builder, g *pdg.Graph, paths []pdg.Path, opts Options) Result {
	opts.Solver.Ctx = ctx
	sl := pdg.ComputeSlice(g, paths)
	sl.Constraints = append(sl.Constraints, opts.Constraints...)
	var res Result
	res.SliceSize = sl.Size()
	if ctx.Err() != nil {
		return res // Status zero value is Unknown
	}

	// Interval tier: the abstract interpretation models the very equation
	// system emitted below, so an abstract contradiction proves the query
	// unsat without building a formula (and soundness tests hold it to
	// that).
	if opts.Absint != nil {
		if refuted, byStride, byZone := opts.Absint.RefuteSlice(ctx, sl); refuted {
			res.Status = sat.Unsat
			res.DecidedByAbsint = true
			res.DecidedByStride = byStride
			res.DecidedByZone = byZone
			return res
		}
	}

	if opts.Unoptimized {
		// Algorithm 4: eager translation, then the conventional solver.
		tr := cond.Translate(b, sl)
		res.Result = solver.Solve(b, tr.Phi, opts.Solver)
		res.Clones = tr.Clones
		return res
	}

	// Graph-level model probing: the residual over *raw* (unpreprocessed)
	// local conditions keeps the graph's equational shape, which concrete-
	// execution probing decides very effectively — value propagation on
	// the dependence graph, in the spirit of §2's quick-path propagation.
	// The raw residual is delayed-cloning sized, so this is cheap.
	var graphProbeTime time.Duration
	if !opts.DisableGraphProbe && !opts.Solver.NoProbe {
		tr := time.Now()
		rawSt, affordable := rawResidual(b, g, sl, opts)
		res.RawBuildTime = time.Since(tr)
		if affordable {
			if ctx.Err() != nil {
				return res
			}
			t0 := time.Now()
			_, ok := solver.Probe(ctx, b, rawSt.phi, 32)
			graphProbeTime = time.Since(t0)
			if ok {
				res.Status = sat.Sat
				res.DecidedByProbe = true
				res.ProbeTime = graphProbeTime
				res.Phi = rawSt.phi
				res.Clones = len(rawSt.st.emitted)
				return res
			}
			if ctx.Err() != nil {
				res.ProbeTime = graphProbeTime
				return res
			}
		}
	}

	heapBefore := b.EstimatedBytes()
	tb := time.Now()
	r := buildResidual(b, g, sl, opts)
	res.BuildTime = time.Since(tb)
	res.LocalPreprocessTime = r.st.localPrep
	res.AbsintBounds = r.st.absintBounds
	res.AbsintDiffs = r.st.absintDiffs
	res.AbsintStrides = r.st.absintStrides
	res.Simplified = r.st.simplified
	res.PrunedGuards = r.st.prunedGuards
	res.Phi = r.phi
	if opts.MaxHeapDelta > 0 && b.EstimatedBytes()-heapBefore > opts.MaxHeapDelta {
		res.Status = sat.Unknown
		res.Exhausted = true
		res.Clones = len(r.st.emitted)
		res.QuickPaths = r.st.quickUses
		return res
	}
	if ctx.Err() != nil {
		res.ProbeTime = graphProbeTime
		return res
	}
	res.Result = solver.Solve(b, r.phi, opts.Solver)
	res.ProbeTime += graphProbeTime
	res.Clones = len(r.st.emitted)
	res.QuickPaths = r.st.quickUses
	return res
}

// GraphProbeFormula returns the formula Solve's graph-level probe runs on
// for paths under opts (see rawResidual); ok is false where Solve skips
// the probe as unaffordable.
func GraphProbeFormula(b *smt.Builder, g *pdg.Graph, paths []pdg.Path, opts Options) (phi *smt.Term, ok bool) {
	sl := pdg.ComputeSlice(g, paths)
	sl.Constraints = append(sl.Constraints, opts.Constraints...)
	r, ok := rawResidual(b, g, sl, opts)
	return r.phi, ok
}

// rawResidual builds the graph probe's formula: the residual over raw
// (unpreprocessed) local conditions, without exported bound conjuncts,
// which only slow the concrete execution down. ok is false, and nothing
// is built, when rawProbeAffordable rejects the slice.
func rawResidual(b *smt.Builder, g *pdg.Graph, sl *pdg.Slice, opts Options) (r residual, ok bool) {
	if !rawProbeAffordable(sl) {
		return residual{}, false
	}
	opts.DisableLocalPreprocess = true
	opts.Absint = nil
	return buildResidual(b, g, sl, opts), true
}

// rawProbeAffordable bounds the raw-residual probe: without quick paths,
// emission instantiates one clone per calling context, which explodes on
// deep call chains — exactly the cloning problem Algorithm 6 avoids. The
// probe is only worth its cost when the context tree is small.
func rawProbeAffordable(sl *pdg.Slice) bool {
	fcs := cond.FuncContexts(cond.NewCtxTree(), sl)
	total := 0
	for _, cs := range fcs {
		total += len(cs)
		if total > 256 {
			return false
		}
	}
	return true
}

// residual is the outcome of summarization and emission.
type residual struct {
	st  *state
	phi *smt.Term
}

// buildResidual runs Algorithm 6's condition construction: per-function
// local conditions (preprocessed unless disabled), instance emission with
// delayed cloning, and the paths' assertions.
func buildResidual(b *smt.Builder, g *pdg.Graph, sl *pdg.Slice, opts Options) residual {
	st := &state{
		b: b, g: g, sl: sl, opts: opts,
		tr:          cond.NewTranslator(b, sl),
		summary:     map[*ssa.Function]*smt.Term{},
		closed:      map[*ssa.Function]*smt.Term{},
		emitted:     map[instKey]bool{},
		sliceVals:   map[*ssa.Function][]*ssa.Value{},
		forcedSites: map[int]bool{},
	}
	// Call sites on the paths' context chains force their callee instances
	// to be emitted even when a quick path covers the return value; their
	// actuals must then survive local preprocessing for the parameter
	// links.
	for _, p := range sl.Paths {
		for _, ctx := range cond.AssignContexts(st.tr.T, p) {
			for q := ctx; q != nil && q.Parent != nil; q = q.Parent {
				st.forcedSites[q.Site] = true
			}
		}
	}
	for v := range sl.Values {
		st.sliceVals[v.Fn] = append(st.sliceVals[v.Fn], v)
	}
	for _, vs := range st.sliceVals {
		sort.Slice(vs, func(i, j int) bool { return vs[i].ID < vs[j].ID })
	}

	// Per-function local conditions, callee-first so quick paths cascade
	// upward (a collapsed callee lets its caller collapse too).
	for _, f := range st.topoFuncs() {
		st.summarize(f)
	}

	// Emit instances needed by the paths' guard assertions, pulling in
	// callee and caller instances on demand (delayed cloning). When absint
	// ran, its invariant bounds on path-step vertices become extra
	// conjuncts: the invariants hold exactly under the guard chains
	// asserted here, so they are implied facts that sharpen the residual
	// for the probe-free solve without changing satisfiability.
	var asserts []*smt.Term
	// exportBounds reports whether v's interval endpoints were (or already
	// had been) asserted at this instantiation: stride and diff exports
	// use the bounds as their no-wrap / non-negativity side condition and
	// must not fire when the endpoints were inexpressible at v's width.
	boundDone := map[boundKey]bool{}
	exportBounds := func(v *ssa.Value, ctx *cond.Ctx) bool {
		if opts.Absint == nil {
			return false
		}
		if done, seen := boundDone[boundKey{v, ctx}]; seen {
			return done
		}
		boundDone[boundKey{v, ctx}] = false
		lo, hi, ok := opts.Absint.Bounds(v)
		if !ok {
			return false
		}
		bits := pdg.TypeBits(v.Type)
		loC, hiC, ok := exportableBounds(lo, hi, bits)
		if !ok {
			return false
		}
		term := st.tr.Var(v, ctx)
		asserts = append(asserts,
			b.Sle(b.Const(loC, bits), term),
			b.Sle(term, b.Const(hiC, bits)))
		st.absintBounds++
		boundDone[boundKey{v, ctx}] = true
		return true
	}
	// Difference facts from the zone domain are exported alongside the
	// unary bounds: x − y ≤ c becomes x ≤s y + c, which is only faithful
	// to the integer fact when y + c cannot wrap — guaranteed by also
	// asserting y's interval bounds and checking [lo+c, hi+c] stays in
	// the signed range of x's own width (exportableDiff).
	// Congruence facts from the stride domain join the unary bounds:
	// v ≡ r (mod m) becomes URem(v, m) == r. The invariant is over the
	// MATHEMATICAL value while URem sees the unsigned machine view; the
	// two agree exactly when m divides 2^bits (a power of two below the
	// width bound), and otherwise only for non-negative v — so for
	// non-power-of-two moduli the export requires a proven non-negative
	// lower bound and asserts the interval bounds as the side condition.
	// All of it is judged at v's own width (exportableStride): a modulus
	// at or above 2^bits would be masked into a different constant.
	strideDone := map[boundKey]bool{}
	exportStride := func(v *ssa.Value, ctx *cond.Ctx) {
		if opts.Absint == nil || strideDone[boundKey{v, ctx}] {
			return
		}
		strideDone[boundKey{v, ctx}] = true
		m, r, ok := opts.Absint.StrideFact(v)
		if !ok {
			return
		}
		bits := pdg.TypeBits(v.Type)
		mC, rC, needNonneg, ok := exportableStride(m, r, bits)
		if !ok {
			return
		}
		if needNonneg {
			lo, _, okB := opts.Absint.Bounds(v)
			if !okB || lo < 0 || !exportBounds(v, ctx) {
				return
			}
		}
		asserts = append(asserts, b.Eq(
			b.URem(st.tr.Var(v, ctx), b.Const(mC, bits)),
			b.Const(rC, bits)))
		st.absintStrides++
	}
	diffDone := map[[2]boundKey]bool{}
	exportDiff := func(x, y *ssa.Value, ctx *cond.Ctx) {
		if opts.Absint == nil || x == y {
			return
		}
		k := [2]boundKey{{x, ctx}, {y, ctx}}
		if diffDone[k] {
			return
		}
		diffDone[k] = true
		c, ok := opts.Absint.DiffBound(x, y)
		if !ok {
			return
		}
		lo, hi, ok := opts.Absint.Bounds(y)
		if !ok {
			return
		}
		bits := pdg.TypeBits(x.Type)
		cC, ok := exportableDiff(c, lo, hi, bits)
		if !ok {
			return
		}
		if !exportBounds(y, ctx) {
			return // the no-wrap side condition needs y's range asserted
		}
		asserts = append(asserts, b.Sle(
			st.tr.Var(x, ctx),
			b.Add(st.tr.Var(y, ctx), b.Const(cC, bits))))
		st.absintDiffs++
	}
	for _, p := range sl.Paths {
		ctxs := cond.AssignContexts(st.tr.T, p)
		for i, step := range p {
			st.emit(step.V.Fn, ctxs[i])
			exportBounds(step.V, ctxs[i])
			exportStride(step.V, ctxs[i])
			if i > 0 && ctxs[i] == ctxs[i-1] {
				exportDiff(p[i-1].V, step.V, ctxs[i])
				exportDiff(step.V, p[i-1].V, ctxs[i])
			}
			for gd := step.V.Guard; gd != nil; gd = gd.Guard {
				asserts = append(asserts, st.tr.Var(gd, ctxs[i]))
			}
			if step.Kind == pdg.StepCall {
				if c := g.SiteCall[step.Site]; c != nil {
					st.emit(c.Fn, ctxs[i].Parent)
					for gd := c.Guard; gd != nil; gd = gd.Guard {
						asserts = append(asserts, st.tr.Var(gd, ctxs[i].Parent))
					}
				}
			}
		}
	}
	// Dynamic-bound sinks relate two call arguments; seed the residual
	// with their bounds and any proven difference between them.
	for _, vc := range sl.Constraints {
		if vc.Kind != pdg.ConstraintOutOfBoundsDyn ||
			vc.Path >= len(sl.Paths) || vc.Step >= len(sl.Paths[vc.Path]) {
			continue
		}
		p := sl.Paths[vc.Path]
		v := p[vc.Step].V
		if vc.Arg < 0 || vc.Arg >= len(v.Args) || vc.BoundArg < 0 || vc.BoundArg >= len(v.Args) {
			continue
		}
		ctxs := cond.AssignContexts(st.tr.T, p)
		idx, bnd := v.Args[vc.Arg], v.Args[vc.BoundArg]
		exportBounds(idx, ctxs[vc.Step])
		exportBounds(bnd, ctxs[vc.Step])
		exportStride(idx, ctxs[vc.Step])
		exportDiff(idx, bnd, ctxs[vc.Step])
		exportDiff(bnd, idx, ctxs[vc.Step])
	}
	asserts = append(asserts, st.tr.ValueConstraints()...)
	st.conjs = append(st.conjs, asserts...)
	return residual{st: st, phi: b.And(st.conjs...)}
}

// topoFuncs orders sliced functions callee-first along sliced call edges.
func (st *state) topoFuncs() []*ssa.Function {
	funcs := make([]*ssa.Function, 0, len(st.sliceVals))
	for f := range st.sliceVals {
		funcs = append(funcs, f)
	}
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Name < funcs[j].Name })
	var order []*ssa.Function
	seen := map[*ssa.Function]bool{}
	var visit func(f *ssa.Function)
	visit = func(f *ssa.Function) {
		if seen[f] {
			return
		}
		seen[f] = true
		for _, v := range st.sliceVals[f] {
			if v.Op == ssa.OpCall {
				if callee := st.g.Callee(v); st.sliceVals[callee] != nil {
					visit(callee)
				}
			}
		}
		order = append(order, f)
	}
	for _, f := range funcs {
		visit(f)
	}
	return order
}

// summarize computes and preprocesses the local condition of f
// (Algorithm 6, lines 3-5).
func (st *state) summarize(f *ssa.Function) {
	b, tr := st.b, st.tr
	root := tr.T.Root
	keep := map[string]bool{}
	var conjs []*smt.Term
	var linkedCalls []*ssa.Value // calls whose callee instances need the actuals

	for _, v := range st.sliceVals[f] {
		switch v.Op {
		case ssa.OpParam:
			keep[cond.VarName(v, root)] = true
		case ssa.OpBranch:
			keep[cond.VarName(v, root)] = true
			conjs = append(conjs, tr.Equation(v, root))
		case ssa.OpCall:
			callee := st.g.Callee(v)
			if callee.Ret == nil {
				continue
			}
			if cf := st.closed[callee]; cf != nil && !st.opts.DisableQuickPaths {
				// Quick path: bind the receiver to the callee's closed
				// return form with actuals substituted — no instance, no
				// parentheses left on this edge (Figure 9).
				st.quickUses++
				conjs = append(conjs, b.Eq(tr.Var(v, root), st.instantiateClosed(callee, cf, v, root)))
				if st.forcedSites[v.Site] {
					// A path still enters the callee here, so its
					// instance will be emitted with parameter links to
					// the actuals: keep them alive.
					linkedCalls = append(linkedCalls, v)
				}
				// The receiver can now be eliminated locally if nothing
				// external needs it.
				continue
			}
			// Interface to a callee instance: the receiver stays free
			// locally and is linked at emission time.
			keep[cond.VarName(v, root)] = true
			linkedCalls = append(linkedCalls, v)
		case ssa.OpExtern, ssa.OpConst:
			// Free or constant: nothing to emit.
		default:
			conjs = append(conjs, tr.Equation(v, root))
		}
	}
	if f.Ret != nil && st.sl.Values[f.Ret] {
		keep[cond.VarName(f.Ret, root)] = true
	}
	// Vertices pinned by value constraints are referenced from the final
	// assertions and must survive local preprocessing. A dynamic-bound
	// constraint references the sink call's index and bound arguments
	// rather than the step vertex itself.
	for _, vc := range st.sl.Constraints {
		if vc.Path < len(st.sl.Paths) && vc.Step < len(st.sl.Paths[vc.Path]) {
			v := st.sl.Paths[vc.Path][vc.Step].V
			if v.Fn != f {
				continue
			}
			if vc.Kind == pdg.ConstraintOutOfBoundsDyn {
				for _, ai := range [2]int{vc.Arg, vc.BoundArg} {
					if ai >= 0 && ai < len(v.Args) {
						if a := v.Args[ai]; st.sl.Values[a] && a.Op != ssa.OpConst {
							keep[cond.VarName(a, root)] = true
						}
					}
				}
				continue
			}
			keep[cond.VarName(v, root)] = true
		}
	}
	// Actuals referenced by callee instances' parameter links must
	// survive; quick-pathed calls have no instance, so their actuals are
	// free to be inlined away (which is what lets closures cascade up
	// deep call chains).
	for _, v := range linkedCalls {
		for _, a := range v.Args {
			if st.sl.Values[a] && a.Op != ssa.OpConst {
				keep[cond.VarName(a, root)] = true
			}
		}
	}
	// A path can enter a callee through a call edge without the call
	// vertex itself being in the slice (the receiver is never used); the
	// callee instance still links its parameters to this function's
	// actuals, and those must survive too.
	for _, sites := range st.sl.Entered {
		for site := range sites {
			c := st.g.SiteCall[site]
			if c == nil || c.Fn != f || st.sl.Values[c] {
				continue // sliced calls are handled by the quick-path logic
			}
			for _, a := range c.Args {
				if st.sl.Values[a] && a.Op != ssa.OpConst {
					keep[cond.VarName(a, root)] = true
				}
			}
		}
	}

	if st.opts.Absint != nil && !st.opts.DisableAbsintSimplify {
		conjs = st.presimplify(f, conjs)
	}
	local := b.And(conjs...)
	if !st.opts.DisableLocalPreprocess {
		// A cut-short rewrite is still equisatisfiable, and it lives only
		// in this query's state: Solve discards the residual once it sees
		// the cancellation.
		t0 := time.Now()
		local = smt.Preprocess(st.opts.Solver.Ctx, b, local, smt.PassesWithKeep(keep))
		st.localPrep += time.Since(t0)
	}
	st.summary[f] = local
	st.closed[f] = st.closedRet(f, local)
}

// instantiateClosed rewrites a closed return form (over the callee's
// root-context parameter variables) in terms of the actuals at call vertex
// c under ctx.
func (st *state) instantiateClosed(callee *ssa.Function, cf *smt.Term, c *ssa.Value, ctx *cond.Ctx) *smt.Term {
	sub := map[*smt.Term]*smt.Term{}
	for i, p := range callee.Params {
		if i >= len(c.Args) {
			break
		}
		pv := st.b.Var(cond.VarName(p, st.tr.T.Root), pdg.TypeBits(p.Type))
		sub[pv] = st.tr.Term(c.Args[i], ctx)
	}
	return smt.Substitute(st.b, cf, sub)
}

// closedRet extracts f's return value as a pure function of its parameters
// from the preprocessed local condition, when the condition is a plain
// system of definitions (no residual assertions, which pruned ite edges
// introduce and which a quick path must not drop).
func (st *state) closedRet(f *ssa.Function, local *smt.Term) *smt.Term {
	if f.Ret == nil || !st.sl.Values[f.Ret] {
		return nil
	}
	retVar := st.b.Var(cond.VarName(f.Ret, st.tr.T.Root), pdg.TypeBits(f.Ret.Type))
	params := map[*smt.Term]bool{}
	for _, p := range f.Params {
		params[st.b.Var(cond.VarName(p, st.tr.T.Root), pdg.TypeBits(p.Type))] = true
	}
	var form *smt.Term
	for _, cj := range smt.Conjuncts(local) {
		if cj.IsTrue() {
			continue
		}
		if cj.Op != smt.OpEq {
			return nil // residual assertion: unsafe to shortcut
		}
		x, y := cj.Args[0], cj.Args[1]
		var def *smt.Term
		switch {
		case x == retVar:
			def = y
		case y == retVar:
			def = x
		}
		if def == nil {
			// A definition of some other interface variable; irrelevant
			// to the quick path as long as it is an equation.
			if x.Op != smt.OpVar && y.Op != smt.OpVar {
				return nil
			}
			continue
		}
		if form != nil {
			return nil // multiple constraints on the return value
		}
		form = def
	}
	if form == nil || st.b.Size(form) > inlineThreshold {
		return nil
	}
	for _, v := range smt.Vars(form) {
		if !params[v] {
			return nil // depends on something beyond the parameters
		}
	}
	return form
}

// emit materializes the (f, ctx) instance: the preprocessed local
// condition renamed into the context, parameter links to the caller, and
// receiver links (or quick paths) to callees.
func (st *state) emit(f *ssa.Function, ctx *cond.Ctx) {
	key := instKey{f, ctx}
	if st.emitted[key] {
		return
	}
	st.emitted[key] = true
	b, tr := st.b, st.tr

	// The summary over root names, renamed into this context.
	local := st.summary[f]
	if ctx != tr.T.Root && local != nil && !local.IsTrue() {
		local = smt.RenameVars(b, local, func(name string) string {
			return renameIntoCtx(name, f.Name, ctx)
		})
	}
	if local != nil && !local.IsTrue() {
		st.conjs = append(st.conjs, local)
	}

	for _, v := range st.sliceVals[f] {
		switch v.Op {
		case ssa.OpParam:
			if ctx.Parent == nil {
				continue
			}
			c := st.g.SiteCall[ctx.Site]
			idx := pdg.ParamIndex(v)
			if c == nil || idx < 0 || idx >= len(c.Args) {
				continue
			}
			// The actual lives in the caller instance.
			st.emit(c.Fn, ctx.Parent)
			st.conjs = append(st.conjs, b.Eq(tr.Var(v, ctx), tr.Term(c.Args[idx], ctx.Parent)))
		case ssa.OpCall:
			callee := st.g.Callee(v)
			if callee.Ret == nil {
				continue
			}
			if st.closed[callee] != nil && !st.opts.DisableQuickPaths {
				continue // already bound through the quick path in the summary
			}
			child := tr.T.Child(ctx, v.Site)
			st.emit(callee, child)
			st.conjs = append(st.conjs, b.Eq(tr.Var(v, ctx), tr.Var(callee.Ret, child)))
		}
	}
}

// renameIntoCtx maps a root-context variable name of function fn into ctx.
// Only the function's own variables are renamed; fresh preprocessing
// variables (u!N) must be renamed too, since each clone makes independent
// choices.
func renameIntoCtx(name, fn string, ctx *cond.Ctx) string {
	return name + "@" + ctxSuffix(ctx)
}

func ctxSuffix(ctx *cond.Ctx) string {
	// Context IDs are unique within a tree; the numeric ID suffices and
	// matches cond.VarName's naming.
	return itoa(ctx.ID)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
