package bench

import (
	"context"

	"fusion/internal/checker"
	"fusion/internal/cond"
	"fusion/internal/pdg"
	"fusion/internal/progen"
	"fusion/internal/smt"
	"fusion/internal/sparse"
)

// CorpusQuery is one formula of ProbeCorpus together with the builder
// that made it. A candidate's formulas share one builder, so a pass that
// rewrites one of them must be handed that builder.
type CorpusQuery struct {
	B   *smt.Builder
	Phi *smt.Term
}

// ProbeCorpus returns the formulas the model probe is handed as terms on
// the progen subjects at scale, for every null-deref and div-by-zero
// candidate, in a fixed order: the candidate's cond.Translate condition,
// Pinpoint's solver input. (Fusion's graph probe runs on a program
// compiled from the slice, with no formula.) Each candidate's formula
// lives in a builder of its own.
func ProbeCorpus(ctx context.Context, scale float64) ([]CorpusQuery, error) {
	subs, err := CompileAll(ctx, progen.Subjects, scale, 2)
	if err != nil {
		return nil, err
	}
	var out []CorpusQuery
	for _, sub := range subs {
		for _, spec := range []*sparse.Spec{checker.NullDeref(), checker.DivByZero()} {
			for _, c := range sparse.NewEngine(sub.Graph).RunContext(ctx, spec) {
				b := smt.NewBuilder()
				sl := pdg.ComputeSlice(sub.Graph, []pdg.Path{c.Path})
				c.ApplyConstraint(sl, 0)
				out = append(out, CorpusQuery{b, cond.Translate(b, sl).Phi})
			}
		}
	}
	return out, nil
}
