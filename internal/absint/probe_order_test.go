package absint_test

import (
	"context"
	"testing"

	"fusion/internal/absint"
	"fusion/internal/checker"
	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/fusioncore"
	"fusion/internal/pdg"
	"fusion/internal/progen"
	"fusion/internal/sat"
	"fusion/internal/smt"
	"fusion/internal/sparse"
)

// forEachCandidate calls check on every null-deref, cwe-369 and cwe-125
// candidate of the progen corpus at factsPinScale, with its subject's
// graph and its analysis under AbsintOn; unit names the candidate.
func forEachCandidate(t *testing.T, check func(unit string, g *pdg.Graph, an *absint.Analysis, c sparse.Candidate)) {
	t.Helper()
	specs := []*sparse.Spec{checker.NullDeref(), checker.DivByZero(), checker.IndexOOB()}
	for _, info := range progen.Subjects {
		g := compileSubject(t, info, factsPinScale).Graph
		an := driver.Analyze(g, driver.AbsintOn)
		eng := sparse.NewEngine(g)
		for _, spec := range specs {
			for _, c := range eng.Run(spec) {
				check(info.Name+" "+engines.UnitLabel(c), g, an, c)
			}
		}
	}
}

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
	probed, refuted := 0, 0
	forEachCandidate(t, func(unit string, g *pdg.Graph, an *absint.Analysis, c sparse.Candidate) {
		paths := []pdg.Path{c.Path}
		sl := pdg.ComputeSlice(g, paths)
		c.ApplyConstraint(sl, 0)
		_, _, found := fusioncore.GraphProbe(ctx, sl)
		isRefuted, byStride, byZone := an.RefuteSlice(ctx, sl)
		if found && isRefuted {
			t.Errorf("%s: the graph probe found a model, yet the slice refuter refuted the slice", unit)
		}

		r := fusioncore.Solve(ctx, smt.NewBuilder(), g, paths, fusioncore.Options{Absint: an, Constraints: c.Constraints(0)})
		if r.DecidedByProbe != found {
			t.Errorf("%s: Solve DecidedByProbe = %t, GraphProbe found a model: %t", unit, r.DecidedByProbe, found)
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
	})
	t.Logf("%d candidates decided by the graph probe, %d refuted", probed, refuted)
	if probed == 0 || refuted == 0 {
		t.Fatalf("%d probe models and %d refutations: the check is vacuous", probed, refuted)
	}
}

// TestAbsintFormulaOnlyPresimplified holds the absint tier to its two
// jobs in fusioncore.Solve: refuting slices and pre-simplifying local
// conditions. On every null-deref, cwe-369 and cwe-125 candidate of the
// progen corpus at factsPinScale that the tier does not refute, Solve
// with the tier on but its pre-simplification off must build the very
// formula Solve builds with the tier off: the same verdict and SAT
// conflicts, and builders of the same term count and byte estimate.
func TestAbsintFormulaOnlyPresimplified(t *testing.T) {
	ctx := context.Background()
	compared, solved := 0, 0
	forEachCandidate(t, func(unit string, g *pdg.Graph, an *absint.Analysis, c sparse.Candidate) {
		paths := []pdg.Path{c.Path}
		onB, offB := smt.NewBuilder(), smt.NewBuilder()
		on := fusioncore.Solve(ctx, onB, g, paths, fusioncore.Options{
			Absint: an, DisableAbsintSimplify: true, Constraints: c.Constraints(0)})
		if on.DecidedByAbsint {
			return
		}
		off := fusioncore.Solve(ctx, offB, g, paths, fusioncore.Options{Constraints: c.Constraints(0)})
		if on.Status != off.Status || on.Conflicts != off.Conflicts {
			t.Errorf("%s: tier on %v with %d conflicts, tier off %v with %d",
				unit, on.Status, on.Conflicts, off.Status, off.Conflicts)
		}
		if onB.NumTerms() != offB.NumTerms() || onB.EstimatedBytes() != offB.EstimatedBytes() {
			t.Errorf("%s: tier on built %d terms (%d bytes), tier off %d terms (%d bytes)",
				unit, onB.NumTerms(), onB.EstimatedBytes(), offB.NumTerms(), offB.EstimatedBytes())
		}
		compared++
		if !on.DecidedByProbe {
			solved++
		}
	})
	t.Logf("%d unrefuted candidates compared, %d of them past the graph probe", compared, solved)
	if solved == 0 {
		t.Fatal("no unrefuted candidate reached the residual's solve: the check is vacuous")
	}
}
