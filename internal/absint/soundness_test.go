package absint_test

import (
	"context"
	"testing"

	"fusion/internal/absint"
	"fusion/internal/checker"
	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/pdg"
	"fusion/internal/progen"
	"fusion/internal/sat"
	"fusion/internal/sparse"
)

// TestRefutationsAgreeWithSolver is the differential soundness check for
// the interval tier: on generated subjects, every query the abstract
// interpreter refutes (and every candidate the oracle prunes) must be
// judged unsat by the full bit-precise pipeline running without the tier.
// An absint "infeasible" on a CDCL-sat query would be a soundness bug.
func TestRefutationsAgreeWithSolver(t *testing.T) {
	refuted, prunedN := 0, 0
	for _, subIdx := range []int{1, 4, 8} {
		info := progen.Subjects[subIdx]
		src, _, _ := info.Build(0.05)
		pr, err := driver.Compile(context.Background(), driver.Source{Name: info.Name, Text: src}, driver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g := pr.Graph
		an := absint.Analyze(g)
		eng := sparse.NewEngine(g)

		for _, spec := range checker.All() {
			cands := eng.Run(spec)
			if len(cands) == 0 {
				continue
			}
			// Ground truth from the pipeline with the tier disabled.
			plain := engines.NewFusion().Check(context.Background(), g, cands)
			for i, c := range cands {
				sl := pdg.ComputeSlice(g, []pdg.Path{c.Path})
				c.ApplyConstraint(sl, 0)
				if r, _, _ := an.RefuteSlice(context.Background(), sl); r {
					refuted++
					if plain[i].Status == sat.Sat {
						t.Errorf("%s/%s: absint refuted a sat query (%s)",
							info.Name, spec.Name, checker.Describe(c))
					}
				}
				if an.PrunePath(c.Path, c.Constraints(0)...) {
					prunedN++
					if plain[i].Status == sat.Sat {
						t.Errorf("%s/%s: oracle pruned a sat candidate (%s)",
							info.Name, spec.Name, checker.Describe(c))
					}
				}
			}
		}
	}
	// The tier must actually fire on these subjects, or the test is vacuous.
	if refuted == 0 {
		t.Error("no query was refuted: differential test is vacuous")
	}
	t.Logf("refuted %d queries, oracle pruned %d candidates", refuted, prunedN)
}
