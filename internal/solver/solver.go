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
	// SearchTime is the SAT core's share: bit-blasting the formula and
	// the CDCL search. BlastTime is the blasting part of it alone.
	SearchTime time.Duration
	BlastTime  time.Duration
	Conflicts  int64
	// Decisions and Props count the SAT search's branching decisions and
	// unit propagations for this solve (deltas on a Session, where the
	// solver's counters accumulate across a candidate's queries). Cost
	// counters only; they never influence a verdict.
	Decisions int64
	Props     int64
	// Vars and Clauses count the SAT variables and problem clauses this
	// solve's blast added: the size of the CNF it built, zero when the
	// formula was decided before blasting or its encodings were all
	// cached. Cost counters like Conflicts.
	Vars    int
	Clauses int
	// Exhausted reports that the search hit its own resource budget
	// (conflicts, decisions, or deadline) rather than being cancelled
	// from outside; Status is then Unknown. Engines tag such a verdict
	// degraded, while a cancelled run's Unknowns stay untagged.
	Exhausted bool
}

// Solve implements the conventional SMT solution of Algorithm 3: apply the
// equisatisfiable preprocessing pipeline, return early when it decides the
// formula, and otherwise bit-blast into the CDCL solver. It is a throwaway
// one-shot Session over b: the standalone solver and a candidate's Session
// run the same pipeline, so they cannot drift apart.
func Solve(b *smt.Builder, phi *smt.Term, opts Options) Result {
	return (&Session{b: b, oneShot: true}).Solve(phi, opts)
}

// stallFault is the stall.solve fault point, at the SAT core's entry:
// when armed for opts.Unit, the solve wedges until its context is done —
// its deadline included — or the fault's safety cap expires. A no-op
// outside fault tests.
func stallFault(opts Options) {
	if faultinject.Enabled() && opts.Unit != "" {
		faultinject.StallSolve(opts.Ctx, opts.Unit)
	}
}

// Decide maps a solve outcome to (sat, unknown), the shape the context
// simplifier and the abstraction-refinement loop consume.
func Decide(r Result) (isSat bool, unknown bool) {
	return r.Status == sat.Sat, r.Status == sat.Unknown
}
