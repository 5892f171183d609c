// Package engines implements the analysis engines the evaluation compares:
//
//   - Fusion: the fused design (Algorithm 5 + 6) — no condition caching, no
//     eager cloning;
//   - Pinpoint: the conventional design (Algorithm 2) — explicit path
//     conditions, cloned per calling context and retained in a long-lived
//     term cache as function summaries;
//   - Pinpoint+QE / +LFS / +HFS / +AR: the condition-size-reduction
//     variants of §5.1 (quantifier elimination, lightweight and heavyweight
//     formula simplification, abstraction refinement);
//   - Infer: a compositional, path-insensitive summary-based analyzer in
//     the style of bi-abduction tools (§5.2).
//
// All engines share the sparse propagation of package sparse; they differ
// only in how path feasibility is decided, which is exactly the comparison
// the paper makes.
package engines

import (
	"context"
	"sort"
	"sync"
	"time"
	"unsafe"

	"fusion/internal/cond"
	"fusion/internal/driver"
	"fusion/internal/failure"
	"fusion/internal/faultinject"
	"fusion/internal/fusioncore"
	"fusion/internal/pdg"
	"fusion/internal/sat"
	"fusion/internal/smt"
	"fusion/internal/solver"
	"fusion/internal/sparse"
	"fusion/internal/ssa"
	"fusion/internal/telemetry"
)

// Verdict is the decision for one candidate flow.
type Verdict struct {
	Cand   sparse.Candidate
	Status sat.Status // Sat = feasible = reported bug
	// Preprocessed reports the solve was decided during preprocessing.
	Preprocessed bool
	// DecidedByAbsint reports the query was refuted by the
	// abstract-interpretation tier before any formula was built.
	DecidedByAbsint bool
	// DecidedByStride reports the refutation needed the congruence
	// (stride) product but not the zone tier (implies DecidedByAbsint).
	DecidedByStride bool
	// DecidedByZone reports the refutation needed the zone relational
	// tier (implies DecidedByAbsint).
	DecidedByZone bool
	// Simplified counts vertices whose decided singleton invariants the
	// absint-guided pre-simplification folded into local conditions;
	// PrunedGuards is the subset that were branch conditions.
	Simplified   int
	PrunedGuards int
	// SolveTime is the feasibility-decision time for this candidate.
	SolveTime time.Duration
	// Conflicts, Decisions, and Props are the SAT search counters of this
	// candidate's solve. They are cost-only: they feed the telemetry Sched
	// section and must never influence a verdict.
	Conflicts int64
	Decisions int64
	Props     int64
	// Vars and Clauses are the size of the CNF this candidate's solve
	// blasted (see solver.Result), cost-only like Conflicts.
	Vars    int
	Clauses int
	// ConditionSize is the DAG size of the condition solved (0 when the
	// engine never materializes one).
	ConditionSize int
	// Tier is the precision tier that produced Status (see Tier).
	Tier Tier
	// Degraded reports the candidate exhausted its budget (see Budget):
	// Status is then Unknown and Tier is TierUnknown.
	Degraded bool
	// Failure records a contained crash while checking this candidate;
	// Status is then Unknown and every other field is zero.
	Failure *failure.UnitFailure
}

// Engine decides candidate feasibility.
type Engine interface {
	Name() string
	// Check decides every candidate. Implementations may keep state
	// (caches) across calls, as the conventional design does. Check
	// honors ctx cooperatively: once it is cancelled, the remaining
	// candidates are returned promptly as Unknown partial verdicts —
	// the result always has one verdict per candidate, in input order.
	Check(ctx context.Context, g *pdg.Graph, cands []sparse.Candidate) []Verdict
	// ConditionBytes estimates the memory retained for conditions and
	// summaries after Check.
	ConditionBytes() int64
}

// callTimeout bounds each SAT search by wall clock: the paper limits
// every SMT call to 10 seconds.
const callTimeout = 10 * time.Second

// SortVerdicts orders verdicts by source position — sink line/column
// first, then source line/column, then argument index — so reports are
// stable however the candidates were enumerated and checked.
func SortVerdicts(vs []Verdict) {
	sort.SliceStable(vs, func(i, j int) bool {
		a, b := vs[i].Cand, vs[j].Cand
		if a.Sink.Pos != b.Sink.Pos {
			if a.Sink.Pos.Line != b.Sink.Pos.Line {
				return a.Sink.Pos.Line < b.Sink.Pos.Line
			}
			return a.Sink.Pos.Col < b.Sink.Pos.Col
		}
		if a.Source.Pos != b.Source.Pos {
			if a.Source.Pos.Line != b.Source.Pos.Line {
				return a.Source.Pos.Line < b.Source.Pos.Line
			}
			return a.Source.Pos.Col < b.Source.Pos.Col
		}
		if a.ArgIdx != b.ArgIdx {
			return a.ArgIdx < b.ArgIdx
		}
		return len(a.Path) < len(b.Path)
	})
}

// options renders the SAT-level part of a per-candidate budget.
func options(b Budget) solver.Options {
	return solver.Options{Timeout: callTimeout, MaxDecisions: b.Steps}
}

// --- Fusion ---

// Fusion is the fused engine: per-candidate solving directly on the
// dependence graph, nothing cached between candidates. Candidates are
// independent, so checking parallelizes trivially — the paper runs its
// analyses with fifteen threads.
type Fusion struct {
	// Budget is the per-candidate resource budget; a candidate that
	// exhausts it, or the 10 s limit on each SAT call, ends a degraded
	// Unknown.
	Budget Budget
	// Opts tunes the fused solver (ablations). Opts.Absint is the
	// engine's abstract-interpretation tier, consulted before every
	// solve: the caller builds it once per graph (driver.Analyze or
	// Program.Absint) and it must analyze the graph Check is given; nil
	// means the tier is off.
	Opts fusioncore.Options
	// Parallel is the worker count for Check; 0 or 1 means sequential.
	Parallel int
	// Telemetry, when non-nil, receives per-candidate spans, solve spans
	// (on the candidate's worker track), and the verdict-derived counters
	// of every Check. Nil — the default — costs one pointer check per
	// site.
	Telemetry *telemetry.Recorder
	mu        sync.Mutex
	peak      int64
}

// NewFusion returns the fused engine with default options.
func NewFusion() *Fusion { return &Fusion{} }

// Name implements Engine.
func (e *Fusion) Name() string { return "fusion" }

// Check implements Engine.
func (e *Fusion) Check(ctx context.Context, g *pdg.Graph, cands []sparse.Candidate) []Verdict {
	s := &supervised{engine: e.Name(), rec: e.Telemetry, workers: e.Parallel, attempt: e.attempt}
	return s.checkAll(ctx, g, cands)
}

// solveOptions is the fused-solver configuration under the engine's
// per-candidate budget, shared by candidates and joint queries.
func (e *Fusion) solveOptions() fusioncore.Options {
	opts := e.Opts
	opts.Solver = options(e.Budget)
	opts.MaxHeapDelta = e.Budget.MaxHeapDelta
	return opts
}

// attempt decides c on a builder of its own under the per-candidate
// deadline, derived from the run's context parent: the candidate is
// solved one-shot, and nothing outlives it.
func (e *Fusion) attempt(parent context.Context, g *pdg.Graph, c sparse.Candidate) Verdict {
	ctx, cancel := withDeadline(parent, e.Budget.Deadline)
	defer cancel()
	b := smt.NewBuilder()
	if faultinject.Enabled() {
		unit := UnitLabel(c)
		faultinject.Fire("panic.check", unit)
		faultinject.Delay(unit, 50*time.Millisecond)
	}
	opts := e.solveOptions()
	opts.Solver.Unit = UnitLabel(c)
	opts.Constraints = c.Constraints(0)
	if faultinject.Exhaust(UnitLabel(c)) {
		// Artificial solver-step exhaustion: the real budget machinery
		// runs and exhausts on the first branching decision.
		opts.Solver.MaxDecisions = 1
	}
	t0 := time.Now()
	r := fusioncore.Solve(ctx, b, g, []pdg.Path{c.Path}, opts)
	v := Verdict{
		Cand: c, Status: r.Status, Preprocessed: r.Preprocessed,
		DecidedByAbsint: r.DecidedByAbsint,
		DecidedByStride: r.DecidedByStride,
		DecidedByZone:   r.DecidedByZone,
		Simplified:      r.Simplified,
		PrunedGuards:    r.PrunedGuards,
		Conflicts:       r.Conflicts,
		Decisions:       r.Decisions,
		Props:           r.Props,
		Vars:            r.Vars,
		Clauses:         r.Clauses,
		SolveTime:       time.Since(t0), ConditionSize: r.SizeBefore,
		Tier: tierOf(r.Status, r.DecidedByAbsint, r.DecidedByStride, r.DecidedByZone),
	}
	if rec := e.Telemetry; rec != nil {
		// Wall breakdown of the fused solve: residual construction vs the
		// solver stages, so a trace plus snapshot attributes cost without
		// per-candidate keys.
		rec.Wall("solve.raw_build", r.RawBuildTime)
		rec.Wall("solve.build", r.BuildTime)
		rec.Wall("solve.local_preprocess", r.LocalPreprocessTime)
		rec.Wall("solve.preprocess", r.PreprocessTime)
		rec.Wall("solve.search", r.SearchTime)
		rec.Wall("solve.blast", r.BlastTime)
		rec.Wall("solve.probe", r.ProbeTime)
	}
	// The per-candidate deadline firing (run still alive) is budget
	// exhaustion too, even though the solver saw it as ctx cancellation.
	v.Degraded = r.Exhausted ||
		(r.Status == sat.Unknown && ctx.Err() != nil && parent.Err() == nil)
	e.notePeak(b)
	return v
}

// notePeak folds a candidate's builder into the memory figure.
func (e *Fusion) notePeak(b *smt.Builder) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.peak = max(e.peak, b.EstimatedBytes())
}

// ConditionBytes implements Engine: the fused design caches nothing, so
// the figure is the largest builder any one candidate (or joint query)
// filled — the estimated bytes of every term its solve built, in a
// builder created for it alone.
func (e *Fusion) ConditionBytes() int64 { return e.peak }

// --- Pinpoint ---

// Variant selects a Pinpoint condition-reduction strategy.
type Variant int

// Pinpoint variants.
const (
	Plain Variant = iota
	QE            // quantifier elimination on each condition
	LFS           // lightweight formula simplification
	HFS           // heavyweight (context) formula simplification
	AR            // abstraction refinement
)

func (v Variant) String() string {
	switch v {
	case QE:
		return "pinpoint+qe"
	case LFS:
		return "pinpoint+lfs"
	case HFS:
		return "pinpoint+hfs"
	case AR:
		return "pinpoint+ar"
	default:
		return "pinpoint"
	}
}

// Pinpoint is the conventional engine: eager per-context condition cloning
// (cond.Translate) over a long-lived builder that models the function
// summary cache — every condition ever computed stays resident, which is
// the memory behaviour Figure 1(c) measures.
type Pinpoint struct {
	// Budget is the per-candidate resource budget, as for Fusion.
	Budget  Budget
	Variant Variant
	// Parallel is the worker count for Check; 0 or 1 means sequential.
	// The shared summary cache is single-writer, so candidates serialize
	// on mu around translation and solving — parallelism only overlaps
	// the per-candidate slicing with a running solve, faithfully to the
	// design's memory behaviour.
	Parallel int
	// Telemetry mirrors the Fusion field: per-candidate and solve spans
	// plus verdict counters.
	Telemetry *telemetry.Recorder
	// cache is the shared term store standing in for the summary cache.
	cache *smt.Builder
	// mu guards cache across concurrent candidates.
	mu sync.Mutex
}

// NewPinpoint returns a conventional engine of the given variant.
func NewPinpoint(v Variant) *Pinpoint {
	return &Pinpoint{Variant: v, cache: smt.NewBuilder()}
}

// Name implements Engine.
func (e *Pinpoint) Name() string { return e.Variant.String() }

// ConditionBytes implements Engine.
func (e *Pinpoint) ConditionBytes() int64 { return e.cache.EstimatedBytes() }

// Check implements Engine. Candidates serialize on the summary-cache
// lock, so the per-candidate deadline starts only once the lock is held
// (see checkOne): time queued behind another candidate's solve is not
// charged to this one.
func (e *Pinpoint) Check(ctx context.Context, g *pdg.Graph, cands []sparse.Candidate) []Verdict {
	s := &supervised{engine: e.Name(), rec: e.Telemetry, workers: e.Parallel, attempt: e.attempt}
	return s.checkAll(ctx, g, cands)
}

// attempt decides c under the run's context ctx on a session of its own;
// only the summary-cache builder carries over between candidates.
func (e *Pinpoint) attempt(ctx context.Context, g *pdg.Graph, c sparse.Candidate) Verdict {
	if faultinject.Enabled() {
		unit := UnitLabel(c)
		faultinject.Fire("panic.check", unit)
		faultinject.Delay(unit, 50*time.Millisecond)
	}
	t0 := time.Now()
	r, size := e.checkOne(ctx, g, c)
	v := Verdict{
		Cand: c, Status: r.Status, Preprocessed: r.Preprocessed,
		Conflicts: r.Conflicts,
		Decisions: r.Decisions,
		Props:     r.Props,
		Vars:      r.Vars,
		Clauses:   r.Clauses,
		SolveTime: time.Since(t0), ConditionSize: size,
		Tier: tierOf(r.Status, false, false, false),
	}
	if rec := e.Telemetry; rec != nil {
		rec.Wall("solve.preprocess", r.PreprocessTime)
		rec.Wall("solve.search", r.SearchTime)
		rec.Wall("solve.blast", r.BlastTime)
		rec.Wall("solve.probe", r.ProbeTime)
	}
	v.Degraded = r.Exhausted
	return v
}

// checkOne decides one candidate. parent is the run's context; the
// per-candidate deadline is derived from it once the cache lock is held,
// so time spent queued behind other candidates' solves is not charged to
// this one.
func (e *Pinpoint) checkOne(parent context.Context, g *pdg.Graph, c sparse.Candidate) (solver.Result, int) {
	sl := pdg.ComputeSlice(g, []pdg.Path{c.Path})
	c.ApplyConstraint(sl, 0)

	// The shared summary cache is a single-writer term store: everything
	// from translation on runs under the cache lock.
	e.mu.Lock()
	defer e.mu.Unlock()
	ctx, cancel := withDeadline(parent, e.Budget.Deadline)
	defer cancel()
	opts := options(e.Budget)
	opts.Ctx = ctx
	opts.Unit = UnitLabel(c)
	if faultinject.Exhaust(opts.Unit) {
		opts.MaxDecisions = 1
	}
	b := e.cache
	// Every query of this candidate — final solves and the variants'
	// internal ones alike — shares one session over the summary cache, so
	// HFS, QE and AR reuse encodings and learned clauses across their
	// queries. The session is dropped with the candidate.
	solve := solver.NewSession(b).Solve

	var r solver.Result
	var size int
	if e.Variant == AR {
		r, size = e.checkRefined(b, sl, opts, solve)
	} else {
		tr := cond.Translate(b, sl)
		phi := tr.Phi
		switch e.Variant {
		case QE:
			phi = e.eliminate(ctx, b, phi, sl, solve)
		case LFS:
			phi = smt.SimplifyLocal(b, phi)
		case HFS:
			cs := &smt.ContextSimplifier{
				Solve: func(_ *smt.Builder, q *smt.Term) (bool, bool) {
					return solver.Decide(solve(q, opts))
				},
				MaxQueries: 32,
			}
			phi = cs.Simplify(b, phi)
		}
		r = solve(phi, opts)
		size = r.SizeBefore
	}
	// The per-candidate deadline firing (parent still alive) counts as
	// budget exhaustion, not outside cancellation.
	if r.Status == sat.Unknown && !r.Exhausted &&
		ctx.Err() != nil && parent.Err() == nil {
		r.Exhausted = true
	}
	return r, size
}

// eliminate projects the condition onto the root functions' variables —
// what a QE tactic is used for in summary-based analyzers. Projection over
// bit-vectors blows up; on budget exhaustion the original condition is
// solved instead (the time and memory have already been spent, which is
// the point the evaluation makes).
func (e *Pinpoint) eliminate(ctx context.Context, b *smt.Builder, phi *smt.Term, sl *pdg.Slice, solve func(*smt.Term, solver.Options) solver.Result) *smt.Term {
	roots := map[string]bool{}
	for _, f := range sl.Roots() {
		roots[f.Name+"."] = true
	}
	isRootVar := func(name string) bool {
		for p := range roots {
			if len(name) > len(p) && name[:len(p)] == p {
				return true
			}
		}
		return false
	}
	var drop []*smt.Term
	for _, v := range smt.Vars(phi) {
		if !isRootVar(v.Name) {
			drop = append(drop, v)
		}
	}
	opts := options(e.Budget)
	opts.Ctx = ctx
	opts.Passes = solver.NoPasses
	opts.WantModel = true
	res, err := smt.Eliminate(b, phi, drop, smt.QEOptions{
		Solve: func(bb *smt.Builder, q *smt.Term) (sat.Status, smt.Assignment) {
			r := solve(q, opts)
			return r.Status, r.Model
		},
	})
	if err != nil {
		return phi
	}
	return res
}

// checkRefined is the abstraction-refinement loop: solve the condition
// truncated at increasing context depths, stopping early on unsat (the
// truncation over-approximates) and refining on sat until nothing was
// truncated.
func (e *Pinpoint) checkRefined(b *smt.Builder, sl *pdg.Slice, opts solver.Options, solve func(*smt.Term, solver.Options) solver.Result) (solver.Result, int) {
	size := 0
	for depth := 1; ; depth++ {
		tr := cond.TranslateDepth(b, sl, depth)
		r := solve(tr.Phi, opts)
		size = r.SizeBefore
		if r.Status == sat.Unsat || r.Status == sat.Unknown || !tr.Truncated {
			return r, size
		}
		if depth > 64 {
			// Refinement ran out of depth: the truncated Sat answers are
			// inconclusive, which is a budget-shaped outcome.
			r.Status, r.Preprocessed, r.Exhausted = sat.Unknown, false, true
			return r, size
		}
	}
}

// --- Infer ---

// Infer is a compositional, path-insensitive analyzer in the bi-abduction
// style: per-function specs are computed bottom-up over the whole program
// with callee specs inlined into callers — which duplicates them along
// every call chain, the memory behaviour §5.2 observes — and every
// syntactic flow is reported without a feasibility check (the precision
// loss behind its false-positive rate).
type Infer struct {
	// Parallel is the worker count for scoring candidates; 0 or 1 means
	// sequential. The spec join stays single-writer either way.
	Parallel int
	// Telemetry mirrors the Fusion field; Infer never solves, so only
	// verdict counters apply.
	Telemetry *telemetry.Recorder
	bytes     int64
	// specs holds the materialized per-function spec tables, kept alive
	// for the engine's lifetime like a summary cache.
	specs map[string][]specEntry
}

const (
	// maxSummaryDepth bounds how many calls or returns a flow may cross;
	// deeper flows are missed (the recall loss of limited cross-file
	// reasoning).
	maxSummaryDepth = 3
	// specBudget caps the total materialized spec entries; exceeding it
	// models running out of memory (the paper's wine result).
	specBudget = 32 << 20
)

// specEntry is one pre/post fact of a compositional function spec.
type specEntry struct {
	vertexID int32
	kind     int8
	depth    int8
}

// NewInfer returns the Infer-like engine.
func NewInfer() *Infer { return &Infer{} }

// Name implements Engine.
func (e *Infer) Name() string { return "infer" }

// ConditionBytes implements Engine.
func (e *Infer) ConditionBytes() int64 { return e.bytes }

// Check implements Engine.
func (e *Infer) Check(ctx context.Context, g *pdg.Graph, cands []sparse.Candidate) []Verdict {
	// The spec join is single-writer: build it once before fanning out;
	// scoring below only reads it.
	if ctx.Err() == nil {
		e.buildSpecs(g)
	}
	vs, fails := driver.ParallelCheck(ctx, len(cands), e.Parallel, func(i int) Verdict {
		c := cands[i]
		if ctx.Err() != nil {
			return Verdict{Cand: c, Status: sat.Unknown}
		}
		if faultinject.Enabled() {
			faultinject.Fire("panic.check", UnitLabel(c))
		}
		st := sat.Sat // no feasibility check: every flow is reported
		if crossings(c.Path) > maxSummaryDepth {
			st = sat.Unsat // flow too deep for the compositional summary
		}
		return Verdict{Cand: c, Status: st}
	})
	attachFailures(vs, fails, cands)
	recordVerdicts(e.Telemetry, vs)
	return vs
}

func crossings(p pdg.Path) int {
	n := 0
	for _, s := range p {
		if s.Kind != pdg.StepIntra && s.Kind != pdg.StepStart {
			n++
		}
	}
	return n
}

// buildSpecs materializes a compositional spec table for every function:
// its own facts plus an inlined copy of each callee's spec per call site.
// Along deep call DAGs with several sites per callee this duplication is
// multiplicative, which is what makes summary-based analyzers memory-bound
// on large programs.
func (e *Infer) buildSpecs(g *pdg.Graph) {
	if e.specs != nil {
		return
	}
	e.specs = map[string][]specEntry{}
	var total int64
	var build func(f *ssa.Function, depth int) []specEntry
	build = func(f *ssa.Function, depth int) []specEntry {
		if s, ok := e.specs[f.Name]; ok {
			return s
		}
		var spec []specEntry
		for _, v := range f.Values {
			if total > specBudget {
				break
			}
			spec = append(spec, specEntry{vertexID: int32(v.ID), depth: int8(depth % 127)})
			total++
			if v.Op == ssa.OpCall && depth < 32 {
				callee := g.Callee(v)
				sub := build(callee, depth+1)
				if total+int64(len(sub)) > specBudget {
					total = specBudget + 1
					break
				}
				// Inline the callee spec at this call site.
				spec = append(spec, sub...)
				total += int64(len(sub))
			}
		}
		e.specs[f.Name] = spec
		return spec
	}
	for _, f := range g.Prog.Order {
		if total > specBudget {
			break
		}
		build(f, 0)
	}
	e.bytes = total * int64(unsafe.Sizeof(specEntry{}))
}

// SetParallel configures the Check worker count on engines that support
// one; other engines are left unchanged.
func SetParallel(e Engine, workers int) {
	switch x := e.(type) {
	case *Fusion:
		x.Parallel = workers
	case *Pinpoint:
		x.Parallel = workers
	case *Infer:
		x.Parallel = workers
	}
}

// recordVerdicts folds one Check's verdicts into the telemetry recorder.
// Verdict-derived tallies go to the deterministic Counters section — a
// Verdict is byte-identical for any worker count, so anything read off
// one is too. The SAT cost counters go to Sched, and total solve time to
// Wall. Runs after attachFailures so crashed slots are tallied.
func recordVerdicts(r *telemetry.Recorder, vs []Verdict) {
	if r == nil {
		return
	}
	for i := range vs {
		v := &vs[i]
		r.Count("verdicts.total", 1)
		r.Count("verdicts."+v.Status.String(), 1)
		r.Count("tier."+v.Tier.String(), 1)
		if v.Preprocessed {
			r.Count("solve.preprocessed", 1)
		}
		if v.DecidedByAbsint {
			r.Count("absint.decided", 1)
			if v.DecidedByStride {
				r.Count("absint.stride", 1)
			}
			if v.DecidedByZone {
				r.Count("absint.zone", 1)
			}
		}
		r.Count("simplify.vertices", int64(v.Simplified))
		r.Count("simplify.guards", int64(v.PrunedGuards))
		if v.Degraded {
			r.Count("degraded.total", 1)
		}
		if v.Failure != nil {
			r.Count("failures.total", 1)
			r.Count("failure."+v.Failure.Digest(), 1)
		}
		r.Sched("sat.conflicts", v.Conflicts)
		r.Sched("sat.decisions", v.Decisions)
		r.Sched("sat.propagations", v.Props)
		r.Sched("sat.vars", int64(v.Vars))
		r.Sched("sat.clauses", int64(v.Clauses))
		r.Wall("solve.total", v.SolveTime)
	}
}

// SetTelemetry attaches a telemetry recorder to engines that record one;
// other engines are left unchanged.
func SetTelemetry(e Engine, r *telemetry.Recorder) {
	switch x := e.(type) {
	case *Fusion:
		x.Telemetry = r
	case *Pinpoint:
		x.Telemetry = r
	case *Infer:
		x.Telemetry = r
	}
}

// All returns every engine the evaluation compares, freshly constructed.
func All() []Engine {
	return []Engine{
		NewFusion(),
		NewPinpoint(Plain),
		NewPinpoint(QE),
		NewPinpoint(LFS),
		NewPinpoint(HFS),
		NewPinpoint(AR),
		NewInfer(),
	}
}
