package absint_test

import (
	"context"
	"testing"

	"fusion/internal/checker"
	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/fusioncore"
	"fusion/internal/pdg"
	"fusion/internal/progen"
	"fusion/internal/sat"
	"fusion/internal/smt"
	"fusion/internal/solver"
	"fusion/internal/sparse"
)

// TestProbeModelsNotRefuted is the differential check behind fusioncore's
// stage order, which runs the slice refuter only where the graph probe
// found no model. On every null-deref, cwe-369 and cwe-125 candidate of
// the progen corpus at factsPinScale under AbsintOn, unpruned: a slice
// whose graph-probe formula the probe satisfies must not be refuted, and
// fusioncore.Solve must decide the candidate by that probe without
// running the refuter (RefuteTime 0). A refuted slice must come out of
// Solve refuted at the same tier.
func TestProbeModelsNotRefuted(t *testing.T) {
	ctx := context.Background()
	specs := []*sparse.Spec{checker.NullDeref(), checker.DivByZero(), checker.IndexOOB()}
	probed, refuted := 0, 0
	for _, info := range progen.Subjects {
		pr := compileSubject(t, info, factsPinScale)
		g := pr.Graph
		an := driver.Analyze(g, driver.AbsintOn)
		eng := sparse.NewEngine(g)
		for _, spec := range specs {
			for _, c := range eng.Run(spec) {
				unit := info.Name + " " + engines.UnitLabel(c)
				paths := []pdg.Path{c.Path}
				b := smt.NewBuilder()
				phi, affordable := fusioncore.GraphProbeFormula(b, g, paths, fusioncore.Options{Constraints: c.Constraints(0)})
				found := false
				if affordable {
					_, found = solver.Probe(ctx, b, phi, 32)
				}
				sl := pdg.ComputeSlice(g, paths)
				c.ApplyConstraint(sl, 0)
				isRefuted, byStride, byZone := an.RefuteSlice(ctx, sl)
				if found && isRefuted {
					t.Errorf("%s: the graph probe found a model, yet the slice refuter refuted the slice", unit)
				}

				r := fusioncore.Solve(ctx, smt.NewBuilder(), g, paths, fusioncore.Options{Absint: an, Constraints: c.Constraints(0)})
				if r.DecidedByProbe != found {
					t.Errorf("%s: Solve DecidedByProbe = %t, the probe on GraphProbeFormula found a model: %t", unit, r.DecidedByProbe, found)
				}
				if r.DecidedByProbe && r.RefuteTime != 0 {
					t.Errorf("%s: decided by the graph probe, yet the refuter ran for %v", unit, r.RefuteTime)
				}
				if isRefuted && (r.Status != sat.Unsat || !r.DecidedByAbsint || r.DecidedByStride != byStride || r.DecidedByZone != byZone) {
					t.Errorf("%s: refuted (stride %t, zone %t), but Solve returned %v (absint %t, stride %t, zone %t)",
						unit, byStride, byZone, r.Status, r.DecidedByAbsint, r.DecidedByStride, r.DecidedByZone)
				}
				if found {
					probed++
				}
				if isRefuted {
					refuted++
				}
			}
		}
	}
	t.Logf("%d candidates decided by the graph probe, %d refuted", probed, refuted)
	if probed == 0 || refuted == 0 {
		t.Fatalf("%d probe models and %d refutations: the check is vacuous", probed, refuted)
	}
}
