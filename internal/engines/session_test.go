package engines

import (
	"context"
	"testing"
)

// TestSessionVerdictsAgreeAcrossWorkers: which candidates share a worker
// depends on the worker count, so verdicts (and tiers) must be identical
// at workers 1 and 8 — for Fusion, which solves each candidate one-shot,
// and for the Pinpoint variants whose candidates each run a multi-query
// session over the shared summary cache.
func TestSessionVerdictsAgreeAcrossWorkers(t *testing.T) {
	g := resGraph(t, resMixedSrc)
	cands := resCands(t, g, 2)
	mk := map[string]func() Engine{
		"fusion":       func() Engine { return NewFusion() },
		"pinpoint+hfs": func() Engine { return NewPinpoint(HFS) },
		"pinpoint+qe":  func() Engine { return NewPinpoint(QE) },
		"pinpoint+ar":  func() Engine { return NewPinpoint(AR) },
	}
	for name, fresh := range mk {
		var base []Verdict
		for _, workers := range []int{1, 8} {
			e := fresh()
			SetParallel(e, workers)
			vs := e.Check(context.Background(), g, cands)
			if base == nil {
				base = vs
				continue
			}
			for i := range vs {
				if vs[i].Status != base[i].Status || vs[i].Tier != base[i].Tier {
					t.Errorf("%s: slot %d differs across worker counts: (%v, %s) vs (%v, %s)",
						name, i, vs[i].Status, vs[i].Tier, base[i].Status, base[i].Tier)
				}
			}
		}
	}
}
