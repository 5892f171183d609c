// Package solver is the standalone SMT solving front-end (Algorithm 3):
// preprocessing passes over the input formula, early exit when they decide
// it, and bit-blasting into the CDCL SAT core otherwise. It plays the role
// of Z3 in the paper's evaluation.
package solver

import (
	"context"
	"time"

	"fusion/internal/faultinject"
	"fusion/internal/sat"
	"fusion/internal/smt"
)

// Options configure a standalone solve (Algorithm 3).
type Options struct {
	// Ctx, when non-nil, cancels the solve cooperatively: every phase —
	// probe, preprocessing, bit-blasting, and the SAT search — polls it,
	// and a cancelled solve returns Unknown.
	Ctx context.Context
	// Passes is the preprocessing pipeline; nil means smt.DefaultPasses. Use
	// NoPasses to disable preprocessing entirely.
	Passes []smt.Pass
	// MaxConflicts bounds the SAT search; <= 0 means the default budget.
	MaxConflicts int64
	// MaxDecisions bounds the SAT search's branching decisions; <= 0
	// means unbounded. Decisions are counted exactly, so unlike Timeout
	// this budget exhausts deterministically on every machine.
	MaxDecisions int64
	// Timeout bounds wall time of the SAT search; 0 means none. The paper
	// runs each solver call with a 10-second limit.
	Timeout time.Duration
	// WantModel requests a model covering every free variable of the
	// original formula. Preprocessing substitutes variables away, so when
	// the model would otherwise be partial, a second pass-free solve
	// reconstructs it; equisatisfiability guarantees one exists.
	WantModel bool
	// NoProbe disables the concrete-execution model probe that runs
	// between preprocessing and bit-blasting.
	NoProbe bool
	// Unit, when non-empty, names the work unit this solve belongs to,
	// for deterministic fault injection (the stall.solve point keys on
	// it). Verdicts never depend on it.
	Unit string
}

// NoPasses is a non-nil empty pipeline that disables preprocessing.
var NoPasses = []smt.Pass{}

// Result reports a solve outcome with the cost breakdown the evaluation
// plots.
type Result struct {
	Status sat.Status
	// Preprocessed reports that preprocessing alone decided the formula
	// (the "21% of cases" statistic of §5.1).
	Preprocessed bool
	// DecidedByProbe reports that the concrete-execution probe found a
	// model, skipping the SAT core.
	DecidedByProbe bool
	// Model holds satisfying values for the formula's free variables when
	// Status is Sat and the SAT solver ran.
	Model smt.Assignment
	// SizeBefore and SizeAfter are the formula DAG sizes around
	// preprocessing.
	SizeBefore, SizeAfter int
	// ProbeTime is the cost of the concrete-execution probe, reported
	// separately so a probe-decided query no longer hides its price in
	// (or zeroes out) the search accounting.
	ProbeTime      time.Duration
	PreprocessTime time.Duration
	SearchTime     time.Duration
	Conflicts      int64
	// Decisions and Props count the SAT search's branching decisions and
	// unit propagations for this solve (deltas on the warm-session path,
	// where the solver's counters accumulate across queries). Cost
	// counters only; they never influence a verdict.
	Decisions int64
	Props     int64
	// CacheHits, CacheVars, and ReusedClauses report warm-session
	// amortization: term encodings reused from earlier queries, the size
	// of the retained SAT variable map, and the learned clauses this query
	// inherited. All zero on the one-shot path.
	CacheHits     int64
	CacheVars     int
	ReusedClauses int64
	// Exhausted reports that the search hit its own resource budget
	// (conflicts, decisions, or deadline) rather than being cancelled
	// from outside. Callers use it to fall back to cheaper tiers: a
	// cancelled run should stop, an exhausted one may still degrade.
	Exhausted bool
}

// Solve implements the conventional SMT solution of Algorithm 3: apply the
// equisatisfiable preprocessing pipeline, return early when it decides the
// formula, and otherwise bit-blast into the CDCL solver. It is a throwaway
// one-shot Session over b: the standalone solver and the warm path run the
// same pipeline, so they cannot drift apart.
func Solve(b *smt.Builder, phi *smt.Term, opts Options) Result {
	return NewSessionWith(b, SessionConfig{KeepBuilder: true, OneShot: true}).Solve(phi, opts)
}

// installStallHook arms the stall.solve fault point on the search: when
// armed for opts.Unit, the search wedges until the solve's context is
// done — its deadline included — or the fault's safety cap expires. Nil
// (the common case) outside fault tests.
func installStallHook(s *sat.Solver, opts Options) {
	s.StallHook = nil
	if faultinject.Enabled() && opts.Unit != "" {
		unit, ctx := opts.Unit, opts.Ctx
		s.StallHook = func() { faultinject.StallSolve(ctx, unit) }
	}
}

// Decide maps a solve outcome to (sat, unknown), the shape the context
// simplifier and the abstraction-refinement loop consume.
func Decide(r Result) (isSat bool, unknown bool) {
	return r.Status == sat.Sat, r.Status == sat.Unknown
}
