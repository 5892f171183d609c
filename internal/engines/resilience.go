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
		x.Budget = b
	case *Pinpoint:
		x.Budget = b
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

// supervised is how both solving engines run a candidate: one attempt
// under panic containment. A crashed attempt records exactly one
// UnitFailure, and the cheap refutation tiers get a last look, so a
// crashing unit can still end with a sound Unsat.
type supervised struct {
	engine string
	rec    *telemetry.Recorder
	// attempt decides c under the run's context ctx; it derives its own
	// per-candidate deadline.
	attempt func(ctx context.Context, g *pdg.Graph, c sparse.Candidate) Verdict
	// fallback returns the analysis the final degradation rung consults.
	fallback func(g *pdg.Graph) *absint.Analysis
}

// check decides candidate c on worker w. It does not run the attempt
// when ctx is already cancelled.
func (s *supervised) check(ctx context.Context, g *pdg.Graph, c sparse.Candidate, w int) Verdict {
	unit := UnitLabel(c)
	if s.rec != nil {
		t0 := time.Now()
		// The candidate span encloses the solve span on the same track, so
		// the trace nests the solve under its candidate by containment.
		defer func() { s.rec.Span(w+1, "candidate", unit, t0, time.Now()) }()
	}
	if ctx.Err() != nil {
		return Verdict{Cand: c, Status: sat.Unknown}
	}
	v, fail := driver.Contain(unit, "check", func() (v Verdict) {
		// The solve span is recorded even when the attempt crashes (with
		// an unknown status).
		if rec := s.rec; rec != nil {
			t0 := time.Now()
			defer func() {
				rec.SolveSpan(w+1, t0, time.Now(), telemetry.SolveInfo{
					Unit: unit, Engine: s.engine,
					Tier: v.Tier.String(), Status: v.Status.String(),
				})
			}()
		}
		return s.attempt(ctx, g, c)
	})
	if fail == nil {
		return v
	}
	v = Verdict{Cand: c, Status: sat.Unknown, Failure: fail}
	// Final rung: the abstract refuters run outside the crashed solving
	// stack and may still produce a sound Unsat.
	degradeVerdict(ctx, s.fallback, g, c, &v)
	return v
}

// withDeadline bounds ctx by d from now; d <= 0 leaves it unbounded.
func withDeadline(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}
