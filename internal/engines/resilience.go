package engines

import (
	"context"
	"fmt"
	"time"

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

// Budget bounds the per-candidate work of the bit-precise tier. A
// candidate that exhausts it ends Unknown with Verdict.Degraded set.
// Unlike a wall-clock deadline, Steps and MaxHeapDelta are exact counts,
// so exhausting them is deterministic across machines and worker counts.
// Zero fields are unbounded.
type Budget struct {
	// Steps bounds SAT branching decisions per candidate.
	Steps int64
	// Deadline bounds each candidate's whole check by wall clock.
	Deadline time.Duration
	// MaxHeapDelta bounds the bytes of new formula a candidate's
	// residual construction may allocate in the shared builder.
	MaxHeapDelta int64
}

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

// supervised is how both solving engines run their candidates: one
// attempt each, on up to workers goroutines. A crashed attempt is
// contained by driver.ParallelCheckWorkers' per-item recover, and
// attachFailures turns it into an Unknown verdict that carries exactly
// one UnitFailure.
type supervised struct {
	engine  string
	rec     *telemetry.Recorder
	workers int
	// attempt decides c under the run's context ctx; it derives its own
	// per-candidate deadline.
	attempt func(ctx context.Context, g *pdg.Graph, c sparse.Candidate) Verdict
}

// checkAll decides every candidate, one verdict per candidate in input
// order, and records the verdicts.
func (s *supervised) checkAll(ctx context.Context, g *pdg.Graph, cands []sparse.Candidate) []Verdict {
	vs, fails := driver.ParallelCheckWorkers(ctx, len(cands), s.workers, func(i, w int) Verdict {
		return s.check(ctx, g, cands[i], w)
	})
	attachFailures(vs, fails, cands)
	recordVerdicts(s.rec, vs)
	return vs
}

// check decides candidate c on worker w. It does not run the attempt
// when ctx is already cancelled.
func (s *supervised) check(ctx context.Context, g *pdg.Graph, c sparse.Candidate, w int) (v Verdict) {
	unit := UnitLabel(c)
	rec := s.rec
	if rec != nil {
		t0 := time.Now()
		// The candidate span encloses the solve span on the same track, so
		// the trace nests the solve under its candidate by containment.
		defer func() { rec.Span(w+1, "candidate", unit, t0, time.Now()) }()
	}
	if ctx.Err() != nil {
		return Verdict{Cand: c, Status: sat.Unknown}
	}
	if rec != nil {
		t0 := time.Now()
		// The solve span is recorded even when the attempt crashes (with
		// an unknown status).
		defer func() {
			rec.SolveSpan(w+1, t0, time.Now(), telemetry.SolveInfo{
				Unit: unit, Engine: s.engine,
				Tier: v.Tier.String(), Status: v.Status.String(),
			})
		}()
	}
	return s.attempt(ctx, g, c)
}

// withDeadline bounds ctx by d from now; d <= 0 leaves it unbounded.
func withDeadline(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}
