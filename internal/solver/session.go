// Incremental solver sessions: a long-lived (Builder, Solver, Blaster)
// triple that answers a stream of related queries through assumption-based
// solving instead of rebuilding the solving stack per formula. This is the
// bottom layer of the paper's amortization story (§3.2): one program graph
// serves every query, so the solver underneath should too — learned clauses,
// variable activity, saved phases, and the Tseitin encoding of shared
// hash-consed subterms all carry over from query to query.

package solver

import (
	"context"
	"time"

	"fusion/internal/bitblast"
	"fusion/internal/poll"
	"fusion/internal/sat"
	"fusion/internal/smt"
)

// SessionConfig bounds the state a Session may retain. The zero value gets
// defaults suitable for the analysis workloads in this repo.
type SessionConfig struct {
	// MaxVars evicts the SAT solver and blaster (keeping the builder) once
	// the variable map outgrows this; <= 0 means the default.
	MaxVars int
	// MaxLearnts evicts once the retained learned-clause database outgrows
	// this; <= 0 means the default. (reduceDB already trims within a solve;
	// this bounds accumulation across queries.)
	MaxLearnts int
	// MaxBuilderBytes retires the hash-consing builder itself — and with it
	// the solver and blaster, whose encodings key on its terms — once its
	// estimated heap outgrows this. Ignored under KeepBuilder. <= 0 means
	// the default.
	MaxBuilderBytes int64
	// KeepBuilder pins the builder across Reset and eviction. Engines whose
	// builder doubles as a summary cache (Pinpoint) must keep it: swapping
	// would orphan every cached term.
	KeepBuilder bool
	// OneShot makes the session stateless between queries: each query
	// that reaches the SAT core starts on a fresh solver and blaster and
	// asserts phi directly instead of under an activation literal. This
	// is the standalone solver of Algorithm 3, and the cold reference the
	// warm path is diffed against.
	OneShot bool
}

const (
	defaultMaxVars         = 1 << 18
	defaultMaxLearnts      = 1 << 16
	defaultMaxBuilderBytes = 64 << 20
)

// Session owns a warm solving stack. It is NOT safe for concurrent use:
// callers give each worker its own session (pool-affine, never shared).
// Verdicts are independent of the warm state — retained clauses and
// encodings change only the cost of a solve, never its answer — which is
// what keeps analysis output byte-identical for any worker count.
type Session struct {
	cfg SessionConfig
	b   *smt.Builder
	s   *sat.Solver
	bl  *bitblast.Blaster
	// inFlight is set by Begin and cleared by Finish. A contained panic
	// between the two leaves it set, marking the session poisoned: the
	// next Begin rebuilds the stack instead of trusting half-updated state.
	inFlight bool

	// Cumulative session statistics.
	Queries       int64 // Solve calls answered
	CacheHits     int64 // cross-query term-encoding reuses (topmost shared nodes)
	Evictions     int64 // solver/blaster evictions (budget exceeded)
	Resets        int64 // full rebuilds after poisoning
	PurgedClauses int64 // learned clauses GC'd for referencing retired activation groups
}

// NewSession returns a warm solving stack with a fresh builder.
func NewSession(cfg SessionConfig) *Session {
	return NewSessionWith(smt.NewBuilder(), cfg)
}

// NewSessionWith wraps an existing builder — for engines that already own
// one (a summary cache) and want its terms to stay valid across the
// session's lifetime. Such callers almost always want cfg.KeepBuilder.
func NewSessionWith(b *smt.Builder, cfg SessionConfig) *Session {
	if cfg.MaxVars <= 0 {
		cfg.MaxVars = defaultMaxVars
	}
	if cfg.MaxLearnts <= 0 {
		cfg.MaxLearnts = defaultMaxLearnts
	}
	if cfg.MaxBuilderBytes <= 0 {
		cfg.MaxBuilderBytes = defaultMaxBuilderBytes
	}
	ss := &Session{cfg: cfg, b: b}
	ss.evictSolver()
	return ss
}

// Builder returns the session's term builder. Every formula passed to
// Solve must be built by it — encodings key on hash-consed term identity.
func (ss *Session) Builder() *smt.Builder { return ss.b }

// Begin opens a unit of work. If the previous unit never called Finish —
// a panic contained above us tore it down mid-solve — the session state is
// untrustworthy and is rebuilt. Begin also applies the builder-size budget,
// since swapping the builder is only safe between units.
func (ss *Session) Begin() {
	if ss.inFlight {
		ss.Reset()
	} else {
		// Between units is the cheapest moment to drop learned clauses
		// that mention activation groups no later query can re-assume.
		ss.gc()
	}
	ss.inFlight = true
	if !ss.cfg.KeepBuilder && ss.b.EstimatedBytes() > ss.cfg.MaxBuilderBytes {
		ss.b = smt.NewBuilder()
		ss.evictSolver()
		ss.Evictions++
	}
}

// Finish marks the unit cleanly completed. It is deliberately not deferred
// by callers: a panic must skip it so the poisoning is observable.
func (ss *Session) Finish() { ss.inFlight = false }

// Reset rebuilds the solving stack from scratch, discarding all warm state.
// The builder survives only under KeepBuilder.
func (ss *Session) Reset() {
	ss.Resets++
	if !ss.cfg.KeepBuilder {
		ss.b = smt.NewBuilder()
	}
	ss.evictSolver()
	ss.inFlight = false
}

// evictSolver replaces the solver and blaster, keeping the builder.
func (ss *Session) evictSolver() {
	ss.s = sat.New()
	ss.bl = bitblast.New(ss.s)
}

// gc purges learned clauses that reference retired activation groups: an
// activation literal or encoding variable untouched by the latest query
// serves only queries that will never be assumed again, so a learnt
// mentioning it cannot earn its residence. Learned clauses are
// consequences of the clause DB alone, so dropping any subset is sound
// and affects cost, never verdicts.
func (ss *Session) gc() {
	retired := ss.bl.RetiredVars()
	if retired == nil {
		return
	}
	ss.PurgedClauses += int64(ss.s.PurgeLearnts(func(l sat.Lit) bool {
		return retired(l.Var())
	}))
}

// Learnts reports the size of the retained learned-clause database,
// for tests asserting that GC keeps it from growing monotonically.
func (ss *Session) Learnts() int { return ss.s.NumLearnts() }

// Solve answers phi over the warm stack: probe, preprocessing with early
// exit, then the CDCL core — reached through an assumption on phi's
// activation literal, so the query can be retired afterwards without
// destroying anything learned (under OneShot, through a direct assertion
// on a fresh stack). With WantModel, a model that preprocessing
// left partial is completed by a second, pass-free solve of phi;
// equisatisfiability guarantees one exists.
func (ss *Session) Solve(phi *smt.Term, opts Options) Result {
	res := ss.solveOnce(phi, opts)
	if opts.WantModel && res.Status == sat.Sat && !modelCovers(res.Model, phi) {
		raw := opts
		raw.Passes = NoPasses
		raw.WantModel = false
		if full := ss.solveOnce(phi, raw); full.Status == sat.Sat {
			res.Model = full.Model
		}
	}
	return res
}

func modelCovers(m smt.Assignment, phi *smt.Term) bool {
	for _, v := range smt.Vars(phi) {
		if _, ok := m[v]; !ok {
			return false
		}
	}
	return true
}

func (ss *Session) solveOnce(phi *smt.Term, opts Options) Result {
	ss.Queries++
	var res Result
	res.SizeBefore = smt.Size(phi)
	if cancelled(opts.Ctx) {
		return res // Status zero value is Unknown
	}
	if !opts.NoProbe && !phi.IsConst() {
		t0 := time.Now()
		m, ok := Probe(opts.Ctx, phi, 32)
		res.ProbeTime = time.Since(t0)
		if ok {
			res.Status = sat.Sat
			res.DecidedByProbe = true
			res.Model = m
			return res
		}
	}
	if cancelled(opts.Ctx) {
		return res // cancelled between probe and preprocessing
	}
	passes := opts.Passes
	if passes == nil {
		passes = smt.DefaultPasses()
	}
	t0 := time.Now()
	phi = smt.Preprocess(opts.Ctx, ss.b, phi, passes)
	res.PreprocessTime = time.Since(t0)
	res.SizeAfter = smt.Size(phi)
	if phi.IsTrue() {
		res.Status = sat.Sat
		res.Preprocessed = true
		return res
	}
	if phi.IsFalse() {
		res.Status = sat.Unsat
		res.Preprocessed = true
		return res
	}
	if cancelled(opts.Ctx) {
		return res // cancelled between preprocessing and blasting
	}

	// Budget eviction happens at solve entry, never mid-query: the builder
	// is kept, so cached terms stay valid and only encodings are rebuilt.
	// A solver that is not Okay derived a root contradiction — impossible
	// from guard and Tseitin clauses alone, so treat it as poisoned state.
	// Clause GC runs first: purging learnts of retired activation groups
	// often brings the database back under budget without paying for a
	// wholesale eviction.
	if ss.s.NumLearnts() > ss.cfg.MaxLearnts {
		ss.gc()
	}
	if ss.s.NumVars() > ss.cfg.MaxVars || ss.s.NumLearnts() > ss.cfg.MaxLearnts || !ss.s.Okay() {
		ss.evictSolver()
		ss.Evictions++
	} else if ss.cfg.OneShot && ss.s.NumVars() > 0 {
		ss.evictSolver() // an earlier query's assertion is permanent
	}

	t1 := time.Now()
	s := ss.s
	if opts.MaxConflicts > 0 {
		s.MaxConflicts = opts.MaxConflicts
	} else {
		s.MaxConflicts = 4_000_000
	}
	s.MaxDecisions = opts.MaxDecisions // also clears a previous query's bound
	if opts.Timeout > 0 {
		s.Deadline = time.Now().Add(opts.Timeout)
	} else {
		s.Deadline = time.Time{}
	}
	s.Ctx = opts.Ctx
	installStallHook(s, opts)

	// Warm-state accounting: what this query inherited from its
	// predecessors, and what it reused while encoding.
	res.ReusedClauses = int64(s.NumLearnts())
	reusedBefore := ss.bl.Reused
	before := s.Stats()

	// A blast the context stops unwinds without memoizing its unfinished
	// terms or registering an activation literal, so the warm stack stays
	// valid for the next query.
	ss.bl.Stop = poll.Stop(opts.Ctx, 1)
	var st sat.Status
	var err error
	if ss.cfg.OneShot {
		err = ss.bl.AssertTrue(phi)
		if err == nil && !cancelled(opts.Ctx) {
			st, err = s.Solve()
		}
	} else {
		ss.bl.BeginQuery()
		var act sat.Lit
		act, err = ss.bl.Assume(phi)
		if err == nil && !cancelled(opts.Ctx) {
			st, err = s.SolveAssuming([]sat.Lit{act})
		}
		res.CacheVars = s.NumVars() // retained for later queries
	}
	res.SearchTime = time.Since(t1)
	after := s.Stats()
	res.Conflicts = after.Conflicts - before.Conflicts
	res.Decisions = after.Decisions - before.Decisions
	res.Props = after.Props - before.Props
	res.CacheHits = ss.bl.Reused - reusedBefore
	ss.CacheHits += res.CacheHits
	if err != nil {
		res.Status = sat.Unknown
		res.Exhausted = err == sat.ErrBudget && !cancelled(opts.Ctx)
		return res
	}
	res.Status = st
	if st == sat.Sat {
		res.Model = smt.Assignment{}
		for _, v := range smt.Vars(phi) {
			res.Model[v] = ss.bl.ModelValue(v)
		}
	}
	return res
}

// cancelled reports whether ctx is non-nil and done.
func cancelled(ctx context.Context) bool { return ctx != nil && ctx.Err() != nil }
