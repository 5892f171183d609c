package engines

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
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

// SetSupervision configures the retry ladder and watchdog grace window
// on engines that solve; other engines are left unchanged. With no
// fault armed, verdicts are byte-identical for any retries value: a
// clean first attempt never re-runs.
func SetSupervision(e Engine, retries int, grace time.Duration) {
	switch x := e.(type) {
	case *Fusion:
		x.Cfg.Retries, x.Cfg.WatchdogGrace = retries, grace
	case *Pinpoint:
		x.Cfg.Retries, x.Cfg.WatchdogGrace = retries, grace
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
		f.an = absint.Analyze(g)
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
func degradeVerdict(ctx context.Context, an *absint.Analysis, g *pdg.Graph, c sparse.Candidate, v *Verdict) {
	v.Degraded = true
	v.Tier = TierUnknown
	if an == nil || ctx.Err() != nil {
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
	// base is cancelled with the run or when the attempt is torn down,
	// never by a deadline: the injected stall.solve wedge blocks on it,
	// and an attempt tells budget exhaustion from outside cancellation by
	// it. ctx is base under the ladder's per-attempt deadline.
	base, ctx context.Context
	// hb is the heartbeat the watchdog samples.
	hb *atomic.Int64
}

// ladder is the retry ladder both solving engines run every candidate
// through: up to 1+retries attempts, warm then fresh, each under panic
// containment and, when the watchdog is armed, supervision. A ladder
// exhausted on crashes records exactly one UnitFailure carrying the
// attempt count; one exhausted on abandonment yields an Abandoned
// verdict. Either way the cheap refutation tiers get a last look, so a
// persistently crashing unit can still end with a sound Unsat.
type ladder struct {
	engine   string
	rec      *telemetry.Recorder
	retries  int
	watchdog driver.Watchdog
	// deadline bounds each attempt from its start; 0 leaves the clock to
	// the attempt itself.
	deadline time.Duration
	attempt  func(at rung) Verdict
	// abandoned, when set, runs after the watchdog cuts worker w's
	// attempt loose: the orphan still owns that attempt's solving state.
	abandoned func(w int)
	// fallback returns the analysis the final degradation rung consults.
	fallback func(g *pdg.Graph) *absint.Analysis
}

// check climbs the ladder for candidate c on worker w. It always runs at
// least one attempt.
func (l *ladder) check(parent context.Context, g *pdg.Graph, c sparse.Candidate, w int) Verdict {
	unit := UnitLabel(c)
	if l.rec != nil {
		t0 := time.Now()
		// The ladder span encloses every attempt span on the same track, so
		// the trace nests attempts under their candidate by containment.
		defer func() { l.rec.Span(w+1, "candidate", unit, t0, time.Now()) }()
	}
	attempts := 1 + max(l.retries, 0)
	var lastFail *failure.UnitFailure
	abandoned := false
	for n := 1; n <= attempts; n++ {
		if parent.Err() != nil {
			return Verdict{Cand: c, Status: sat.Unknown, Attempts: n - 1}
		}
		v, fail, ab := l.try(parent, unit, rung{g: g, c: c, w: w, n: n})
		if fail == nil && !ab {
			v.Attempts = n
			return v
		}
		if fail != nil {
			lastFail = fail
		}
		abandoned = ab
	}
	if lastFail != nil {
		lastFail.Attempts = attempts
	}
	v := Verdict{Cand: c, Status: sat.Unknown, Attempts: attempts,
		Abandoned: abandoned, Failure: lastFail}
	// Final rung: the abstract refuters run outside the crashed or wedged
	// solving stack and may still produce a sound Unsat.
	degradeVerdict(parent, l.fallback(g), g, c, &v)
	return v
}

// try runs one attempt under the watchdog. On abandonment the attempt's
// contexts are cancelled, so the orphaned goroutine unwinds through the
// solver's cooperative polling.
func (l *ladder) try(parent context.Context, unit string, r rung) (Verdict, *failure.UnitFailure, bool) {
	base, release := context.WithCancel(parent)
	defer release()
	ctx, cancel := withDeadline(base, l.deadline)
	defer cancel()
	r.base, r.ctx, r.hb = base, ctx, new(atomic.Int64)
	deadline, _ := ctx.Deadline()
	var t0 time.Time
	if l.rec != nil {
		t0 = time.Now()
	}
	v, fail, abandoned := driver.Supervise(ctx, l.watchdog, deadline, r.hb, unit, "check",
		func() Verdict { return l.attempt(r) })
	if abandoned && l.abandoned != nil {
		l.abandoned(r.w)
	}
	if rec := l.rec; rec != nil {
		rec.SolveSpan(r.w+1, t0, time.Now(), telemetry.SolveInfo{
			Unit: unit, Engine: l.engine,
			Tier: v.Tier.String(), Status: v.Status.String(),
			Attempt: r.n, Abandoned: abandoned,
		})
		if abandoned {
			// Per-attempt tally: timing-dependent (an earlier rung may or
			// may not have been abandoned before a retry succeeded), so it
			// lives in Sched; the final-verdict Abandoned flag feeds the
			// deterministic watchdog.abandoned counter in recordVerdicts.
			rec.Sched("watchdog.abandoned_attempts", 1)
		}
	}
	return v, fail, abandoned
}

// withDeadline bounds ctx by d from now; d <= 0 leaves it unbounded.
func withDeadline(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}
