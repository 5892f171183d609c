package bench

import (
	"context"

	"fusion/internal/checker"
	"fusion/internal/cond"
	"fusion/internal/fusioncore"
	"fusion/internal/pdg"
	"fusion/internal/progen"
	"fusion/internal/smt"
	"fusion/internal/sparse"
)

// ProbeCorpus returns the formulas both engines hand the model probe on
// the progen subjects at scale, for every null-deref and div-by-zero
// candidate, in a fixed order: the candidate's cond.Translate condition
// (Pinpoint's solver input) and, where Fusion's graph probe affords it,
// Fusion's raw residual. Each candidate's formulas live in a builder of
// their own.
func ProbeCorpus(ctx context.Context, scale float64) ([]*smt.Term, error) {
	subs, err := CompileAll(ctx, progen.Subjects, scale, 2)
	if err != nil {
		return nil, err
	}
	var out []*smt.Term
	for _, sub := range subs {
		for _, spec := range []*sparse.Spec{checker.NullDeref(), checker.DivByZero()} {
			for _, c := range sparse.NewEngine(sub.Graph).RunContext(ctx, spec) {
				b := smt.NewBuilder()
				sl := pdg.ComputeSlice(sub.Graph, []pdg.Path{c.Path})
				c.ApplyConstraint(sl, 0)
				out = append(out, cond.Translate(b, sl).Phi)
				raw, ok := fusioncore.GraphProbeFormula(b, sub.Graph, []pdg.Path{c.Path},
					fusioncore.Options{Constraints: c.Constraints(0)})
				if ok {
					out = append(out, raw)
				}
			}
		}
	}
	return out, nil
}
