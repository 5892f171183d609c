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
	// formula, which never probes: the graph probe has already run on the
	// slice's program, or found it unaffordable. NoProbe turns the graph
	// probe off too, so that Fusion does not probe at all; under
	// Unoptimized it governs the eager translation's solve, whose probe
	// is the only one on that path.
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
	// Constraints pins path-step values in the condition (see
	// pdg.ValueConstraint), e.g. the zero divisor of a division-by-zero
	// candidate.
	Constraints []pdg.ValueConstraint
	// Absint, when set, adds the abstract interpretation as a tier:
	// queries its slice refuter refutes are decided unsat before the
	// preprocessed residual is built, and its decided singletons
	// pre-simplify the per-function local conditions. Beyond that
	// pre-simplification it leaves the residual formula unchanged.
	Absint *absint.Analysis
	// DisableAbsintSimplify turns off the absint-guided pre-simplification
	// of local conditions (the `-absint=nosimplify` ablation); refutation
	// stays on.
	DisableAbsintSimplify bool
	// MaxHeapDelta, when positive, bounds how many bytes of new formula
	// the residual construction may allocate in the query's builder. A
	// query whose residual grows past the bound is not solved: the
	// result reports Unknown with Exhausted set instead of risking the
	// run's memory.
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
	// RawBuildTime is the wall time of compiling the slice into the graph
	// probe's program (cond.CompileSlice), its bound check included.
	RawBuildTime time.Duration
	// ProbeBytes is the heap the graph probe's program held
	// (smt.Program.Bytes); zero when the probe did not run.
	ProbeBytes int64
	// SliceTime is the wall time of computing the paths' slice G[Π].
	SliceTime time.Duration
	// RefuteTime is the wall time of the abstract slice refuter; zero
	// when the tier is off.
	RefuteTime time.Duration
	// DecidedByAbsint reports the query was refuted by the abstract
	// interpretation: after the graph probe found no model or was
	// skipped, and before the preprocessed residual was built (before
	// the eager translation under Unoptimized).
	DecidedByAbsint bool
	// DecidedByStride reports the refutation needed the congruence
	// (stride) tier — the interval domain alone could not decide it.
	DecidedByStride bool
	// DecidedByZone reports the refutation needed the zone relational
	// tier — neither intervals nor the congruence tier could decide it.
	DecidedByZone bool
	// Simplified counts vertices whose decided singleton invariants were
	// folded into the local conditions by the pre-simplification pass.
	Simplified int
	// PrunedGuards counts decided branch conditions among them — guards
	// the pass rewrote to literals before the quick-path search.
	PrunedGuards int
}

// instKey identifies a materialized (function, context) instance.
type instKey struct {
	f   *ssa.Function
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
	forcedSites  map[int]bool
	localPrep    time.Duration
	simplified   int
	prunedGuards int
}

// Solve decides the feasibility of a set of data-dependence paths directly
// on the program dependence graph. Each stage does one job, in this
// order: the graph probe executes the slice, compiled into a program of
// one slot per (value, context), and finds models; then, only where it
// found none, found the slice unaffordable or is disabled, the absint
// slice refuter refutes; absint pre-simplification folds decided
// singletons into the local conditions of the preprocessed residual; and
// the probe-free solve of that residual decides whatever is left.
// Unoptimized has no graph probe and refutes before its eager
// translation, whose solve keeps the solver's own probe. Solve honors
// ctx cooperatively: the graph probe, the absint refuters, local
// preprocessing, and every phase of the residual's solve poll it, Solve
// checks it between those stages, and a cancelled ctx yields Unknown.
func Solve(ctx context.Context, b *smt.Builder, g *pdg.Graph, paths []pdg.Path, opts Options) Result {
	opts.Solver.Ctx = ctx
	var res Result
	ts := time.Now()
	sl := pdg.ComputeSlice(g, paths)
	res.SliceTime = time.Since(ts)
	sl.Constraints = append(sl.Constraints, opts.Constraints...)
	res.SliceSize = sl.Size()
	if ctx.Err() != nil {
		return res // Status zero value is Unknown
	}

	if opts.Unoptimized {
		// Algorithm 4: eager translation, then the conventional solver.
		if refute(ctx, sl, opts, &res) {
			return res
		}
		tr := cond.Translate(b, sl)
		res.Result = solver.Solve(b, tr.Phi, opts.Solver)
		res.Clones = tr.Clones
		return res
	}

	// Graph-level model probing: the slice itself, executed forward from
	// its free inputs, decides most satisfiable queries without a term
	// built. A failed probe's time stays in ProbeTime on every later
	// return.
	if !opts.Solver.NoProbe {
		if sp, _, ok := graphProbe(ctx, sl, &res); ok {
			res.Status = sat.Sat
			res.DecidedByProbe = true
			res.Clones = sp.Instances()
			return res
		}
		if ctx.Err() != nil {
			return res
		}
	}

	if refute(ctx, sl, opts, &res) {
		return res
	}

	heapBefore := b.EstimatedBytes()
	tb := time.Now()
	r := buildResidual(b, g, sl, opts)
	res.BuildTime = time.Since(tb)
	res.LocalPreprocessTime = r.st.localPrep
	res.Simplified = r.st.simplified
	res.PrunedGuards = r.st.prunedGuards
	if opts.MaxHeapDelta > 0 && b.EstimatedBytes()-heapBefore > opts.MaxHeapDelta {
		res.Status = sat.Unknown
		res.Exhausted = true
		res.Clones = len(r.st.emitted)
		res.QuickPaths = r.st.quickUses
		return res
	}
	if ctx.Err() != nil {
		return res
	}
	graphProbeTime := res.ProbeTime
	opts.Solver.NoProbe = true // the graph probe has run or been skipped
	res.Result = solver.Solve(b, r.phi, opts.Solver)
	res.ProbeTime = graphProbeTime
	res.Clones = len(r.st.emitted)
	res.QuickPaths = r.st.quickUses
	return res
}

// refute runs the absint slice refuter when the tier is on, recording its
// time in res; on a refutation it decides res unsat and reports true. The
// interval tier models the very equation system the residual emits, so an
// abstract contradiction proves the query unsat without building that
// formula (and soundness tests hold it to that).
func refute(ctx context.Context, sl *pdg.Slice, opts Options, res *Result) bool {
	if opts.Absint == nil {
		return false
	}
	tr := time.Now()
	refuted, byStride, byZone := opts.Absint.RefuteSlice(ctx, sl)
	res.RefuteTime = time.Since(tr)
	if !refuted {
		return false
	}
	res.Status = sat.Unsat
	res.DecidedByAbsint = true
	res.DecidedByStride = byStride
	res.DecidedByZone = byZone
	return true
}

// GraphProbe runs Solve's graph probe on sl: it compiles the slice into a
// program (cond.CompileSlice) and probes it (solver.ProbeProgram). sp is
// nil where the slice is unaffordable; in holds the raw input values of
// a model the probe found, and the program computes every other slot
// from them.
func GraphProbe(ctx context.Context, sl *pdg.Slice) (sp *cond.SliceProgram, in []uint32, ok bool) {
	return graphProbe(ctx, sl, &Result{})
}

// graphProbe is GraphProbe, recording the compile and probe times and
// the program's bytes in res.
func graphProbe(ctx context.Context, sl *pdg.Slice, res *Result) (*cond.SliceProgram, []uint32, bool) {
	tc := time.Now()
	sp, affordable := cond.CompileSlice(ctx, sl)
	res.RawBuildTime = time.Since(tc)
	res.ProbeBytes = sp.Prog.Bytes()
	if !affordable || ctx.Err() != nil {
		return nil, nil, false
	}
	tp := time.Now()
	// The seed is a stable property of the slice: no formula term exists
	// to take an ID from.
	in, ok := solver.ProbeProgram(ctx, sp.Prog, int64(sl.Size()), 32)
	res.ProbeTime = time.Since(tp)
	res.ProbeBytes = sp.Prog.Bytes() // the probe appends spans
	return sp, in, ok
}

// residual is the outcome of summarization and emission.
type residual struct {
	st  *state
	phi *smt.Term
}

// buildResidual runs Algorithm 6's condition construction: per-function
// local conditions (absint pre-simplified and preprocessed unless
// disabled), instance emission with delayed cloning, and the paths'
// assertions. The residual is the slice's own conditions and nothing
// more.
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
	// callee and caller instances on demand (delayed cloning).
	var asserts []*smt.Term
	for _, p := range sl.Paths {
		ctxs := cond.AssignContexts(st.tr.T, p)
		for i, step := range p {
			st.emit(step.V.Fn, ctxs[i])
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
			return renameIntoCtx(name, ctx)
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

// renameIntoCtx maps a root-context variable name of a summary into ctx.
// Every variable is renamed: the function's own, and the fresh ones (u!N)
// that preprocessing introduced, since each clone makes independent
// choices.
func renameIntoCtx(name string, ctx *cond.Ctx) string {
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
