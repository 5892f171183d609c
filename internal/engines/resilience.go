package engines

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fusion/internal/absint"
	"fusion/internal/driver"
	"fusion/internal/failure"
	"fusion/internal/pdg"
	"fusion/internal/sat"
	"fusion/internal/sparse"
	"fusion/internal/telemetry"
)

// Tier labels the precision of the procedure that produced a verdict,
// in ascending precision order. The zero value is TierUnknown so that
// synthesized verdicts (cancelled or failed slots) carry an honest tag.
type Tier int

// Precision tiers.
const (
	// TierUnknown: nothing decided feasibility — the candidate is
	// undecided, or the engine never consults the tiered stack (Infer).
	TierUnknown Tier = iota
	// TierInterval: the interval abstract domain refuted the query.
	TierInterval
	// TierStride: the congruence (stride) domain, in reduced product
	// with intervals, refuted it — cheaper than the zone tier, more
	// precise than intervals alone.
	TierStride
	// TierRelational: the zone (difference-bound) domain refuted it.
	TierRelational
	// TierExact: the bit-precise solve (preprocessing, probe, or CDCL
	// search) decided it.
	TierExact
)

func (t Tier) String() string {
	switch t {
	case TierInterval:
		return "interval"
	case TierStride:
		return "stride"
	case TierRelational:
		return "relational"
	case TierExact:
		return "exact"
	default:
		return "unknown"
	}
}

// Budget bounds the per-candidate work of the bit-precise tier. Unlike
// a wall-clock timeout, Steps, Conflicts, and MaxHeapDelta are exact
// counts, so exhaustion — and therefore the degradation ladder — is
// deterministic across machines and worker counts. Zero fields are
// unbounded.
type Budget struct {
	// Steps bounds SAT branching decisions per candidate.
	Steps int64
	// Conflicts bounds SAT conflicts per candidate.
	Conflicts int64
	// Deadline bounds each candidate's whole check by wall clock.
	Deadline time.Duration
	// MaxHeapDelta bounds the bytes of new formula a candidate's
	// residual construction may allocate in the shared builder.
	MaxHeapDelta int64
}

// IsZero reports an entirely unbounded budget.
func (b Budget) IsZero() bool { return b == Budget{} }

// SetBudget configures the per-candidate budget on engines that have a
// bit-precise tier; other engines are left unchanged.
func SetBudget(e Engine, b Budget) {
	switch x := e.(type) {
	case *Fusion:
		x.Cfg.Budget = b
	case *Pinpoint:
		x.Cfg.Budget = b
	}
}

// SetSupervision configures the retry ladder on engines that solve;
// other engines are left unchanged. With no fault armed, verdicts are
// byte-identical for any retries value: a clean first attempt never
// re-runs.
func SetSupervision(e Engine, retries int) {
	switch x := e.(type) {
	case *Fusion:
		x.Cfg.Retries = retries
	case *Pinpoint:
		x.Cfg.Retries = retries
	}
}

// UnitLabel names one candidate for failure reports and fault-injection
// matching: checker name, sink position, source position, and argument
// index, all stable under enumeration order and worker count.
func UnitLabel(c sparse.Candidate) string {
	name := ""
	if c.Spec != nil {
		name = c.Spec.Name
	}
	return fmt.Sprintf("%s %d:%d<-%d:%d#%d", name,
		c.Sink.Pos.Line, c.Sink.Pos.Col,
		c.Source.Pos.Line, c.Source.Pos.Col, c.ArgIdx)
}

// tierOf tags a bit-precise tier outcome: a decided status is Exact
// unless the abstract tier short-circuited the solve.
func tierOf(st sat.Status, byAbsint, byStride, byZone bool) Tier {
	switch {
	case st == sat.Unknown:
		return TierUnknown
	case byZone:
		return TierRelational
	case byStride:
		return TierStride
	case byAbsint:
		return TierInterval
	default:
		return TierExact
	}
}

// attachFailures converts contained per-candidate crashes into verdict
// slots: the failed candidate keeps its input slot with an Unknown
// status and the failure attached, so one crash degrades one unit and
// the batch stays index-stable.
func attachFailures(vs []Verdict, fails []*failure.UnitFailure, cands []sparse.Candidate) {
	for i, f := range fails {
		if f == nil {
			continue
		}
		f.Unit, f.Stage = UnitLabel(cands[i]), "check"
		vs[i] = Verdict{Cand: cands[i], Status: sat.Unknown, Failure: f}
	}
}

// fallbackTier lazily builds one abstract interpretation per graph for
// the degradation ladder of engines that do not already run the tier.
type fallbackTier struct {
	mu sync.Mutex
	g  *pdg.Graph
	an *absint.Analysis
}

func (f *fallbackTier) analysis(g *pdg.Graph) *absint.Analysis {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.g != g {
		f.an = driver.Analyze(g, driver.AbsintOn)
		f.g = g
	}
	return f.an
}

// degradeVerdict is the graceful-degradation ladder: after the
// bit-precise tier exhausted its budget, re-check the candidate with
// the zone-then-interval refuters for a best-effort verdict. A
// refutation is sound at any tier (the domains over-approximate), so a
// degraded Unsat is still a real Unsat — it is tagged with the tier
// that earned it instead of collapsing to a bare Unknown. The ladder
// never reports Sat: feasibility claims stay with the exact tier.
//
// The analysis comes from fallback(g), called only once ctx is known to
// be live: building it is a whole-program fixpoint, which a cancelled run
// must not pay for. ctx is the run's context, not the candidate's
// deadline, which has already expired when this rung runs.
func degradeVerdict(ctx context.Context, fallback func(*pdg.Graph) *absint.Analysis, g *pdg.Graph, c sparse.Candidate, v *Verdict) {
	v.Degraded = true
	v.Tier = TierUnknown
	if ctx.Err() != nil {
		return
	}
	an := fallback(g)
	if an == nil {
		return
	}
	sl := pdg.ComputeSlice(g, []pdg.Path{c.Path})
	c.ApplyConstraint(sl, 0)
	if refuted, byStride, byZone := an.RefuteSliceTieredCtx(ctx, sl); refuted {
		v.Status = sat.Unsat
		switch {
		case byZone:
			v.Tier = TierRelational
		case byStride:
			v.Tier = TierStride
		default:
			v.Tier = TierInterval
		}
	}
}

// rung is one attempt of the retry ladder, as an engine's attempt
// function sees it.
type rung struct {
	g *pdg.Graph
	c sparse.Candidate
	// w is the worker slot and n the attempt number: attempt 1 runs on
	// the worker's warm state, every later one on fresh state.
	w, n int
	// parent is the run's context; ctx is parent under the ladder's
	// per-attempt deadline. An attempt tells budget exhaustion (ctx done,
	// parent live) from outside cancellation by comparing the two.
	parent, ctx context.Context
}

// retry runs attempt n = 1, 2, … under panic containment until one
// returns without crashing, 1+retries attempts (at least one) have
// crashed, or parent is cancelled before the next attempt starts. It
// returns the last attempt's value, how many attempts ran, and — when
// none succeeded — the last failure, which carries that count.
func retry[T any](parent context.Context, retries int, unit, stage string, attempt func(n int) T) (v T, n int, fail *failure.UnitFailure) {
	for n < 1+max(retries, 0) && parent.Err() == nil {
		n++
		if v, fail = driver.Contain(unit, stage, func() T { return attempt(n) }); fail == nil {
			return v, n, nil
		}
		fail.Attempts = n
	}
	return v, n, fail
}

// ladder is the retry ladder both solving engines run every candidate
// through: up to 1+retries attempts, warm then fresh, each under panic
// containment and the per-attempt deadline. A ladder exhausted on
// crashes records exactly one UnitFailure carrying the attempt count,
// and the cheap refutation tiers get a last look, so a persistently
// crashing unit can still end with a sound Unsat.
type ladder struct {
	engine  string
	rec     *telemetry.Recorder
	retries int
	// deadline bounds each attempt from its start; 0 leaves the clock to
	// the attempt itself.
	deadline time.Duration
	attempt  func(at rung) Verdict
	// fallback returns the analysis the final degradation rung consults.
	fallback func(g *pdg.Graph) *absint.Analysis
}

// check climbs the ladder for candidate c on worker w. It always runs at
// least one attempt unless parent is already cancelled.
func (l *ladder) check(parent context.Context, g *pdg.Graph, c sparse.Candidate, w int) Verdict {
	unit := UnitLabel(c)
	if l.rec != nil {
		t0 := time.Now()
		// The ladder span encloses every attempt span on the same track, so
		// the trace nests attempts under their candidate by containment.
		defer func() { l.rec.Span(w+1, "candidate", unit, t0, time.Now()) }()
	}
	v, n, fail := retry(parent, l.retries, unit, "check", func(n int) Verdict {
		return l.try(unit, rung{g: g, c: c, w: w, n: n, parent: parent})
	})
	if n > 0 && fail == nil {
		v.Attempts = n
		return v
	}
	v = Verdict{Cand: c, Status: sat.Unknown, Attempts: n}
	if n < 1+max(l.retries, 0) {
		return v // cancelled before the ladder ran out
	}
	v.Failure = fail
	// Final rung: the abstract refuters run outside the crashed solving
	// stack and may still produce a sound Unsat.
	degradeVerdict(parent, l.fallback, g, c, &v)
	return v
}

// try runs one attempt under the ladder's per-attempt deadline. Its solve
// span is recorded even when the attempt crashes (with an unknown status).
func (l *ladder) try(unit string, r rung) (v Verdict) {
	ctx, cancel := withDeadline(r.parent, l.deadline)
	defer cancel()
	r.ctx = ctx
	if rec := l.rec; rec != nil {
		t0 := time.Now()
		defer func() {
			rec.SolveSpan(r.w+1, t0, time.Now(), telemetry.SolveInfo{
				Unit: unit, Engine: l.engine,
				Tier: v.Tier.String(), Status: v.Status.String(),
				Attempt: r.n,
			})
		}()
	}
	return l.attempt(r)
}

// withDeadline bounds ctx by d from now; d <= 0 leaves it unbounded.
func withDeadline(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}
