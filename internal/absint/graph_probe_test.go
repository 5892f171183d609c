package absint_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"fusion/internal/absint"
	"fusion/internal/checker"
	"fusion/internal/cond"
	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/fusioncore"
	"fusion/internal/pdg"
	"fusion/internal/smt"
	"fusion/internal/sparse"
	"fusion/internal/ssa"
)

// graphProbeParentDecided is how many queries of forEachProbeQuery the
// graph probe decided when it ran on the residual built as terms over
// raw local conditions, and skipped slices of more than 256 (function,
// context) pairs.
const graphProbeParentDecided = 146

// forEachProbeQuery calls check on the slice of every query whose
// verdict the graph probe can decide: every null-deref, cwe-369 and
// cwe-125 candidate of the progen corpus at factsPinScale, with its value
// constraint, and every candidate of every checker on the example
// programs in testdata, with each multi-argument sink's joint query.
func forEachProbeQuery(t *testing.T, check func(unit string, sl *pdg.Slice)) {
	t.Helper()
	forEachCandidate(t, func(unit string, g *pdg.Graph, _ *absint.Analysis, c sparse.Candidate) {
		sl := pdg.ComputeSlice(g, []pdg.Path{c.Path})
		c.ApplyConstraint(sl, 0)
		check(unit, sl)
	})
	for _, name := range []string{"fig1.fl", "hardguard.fl", "jointguard.fl"} {
		text, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		pr, err := driver.Compile(context.Background(), driver.Source{Name: name, Text: string(text)},
			driver.Options{Prelude: true})
		if err != nil {
			t.Fatal(err)
		}
		g := pr.Graph
		for _, spec := range checker.All() {
			cands := sparse.NewEngine(g).Run(spec)
			for _, c := range cands {
				sl := pdg.ComputeSlice(g, []pdg.Path{c.Path})
				c.ApplyConstraint(sl, 0)
				check(name+" "+engines.UnitLabel(c), sl)
			}
			for _, grp := range engines.GroupBySink(cands) {
				paths := make([]pdg.Path, len(grp.Flows))
				for i, f := range grp.Flows {
					paths[i] = f.Path
				}
				check(name+" joint "+engines.UnitLabel(grp.Flows[0]), pdg.ComputeSlice(g, paths))
			}
		}
	}
}

// TestGraphProbeModelsSatisfyTranslate is the differential soundness check
// of the graph probe, which decides a query on a program compiled from
// the slice and never builds its formula. Every model it returns,
// extended to every (value, context) slot by running the program, must
// satisfy cond.Translate's eager condition of the same slice, each pair
// mapped to Translate's variable by its context's site chain. The probe
// must also decide at least as many queries as it did on the term-built
// residual.
func TestGraphProbeModelsSatisfyTranslate(t *testing.T) {
	ctx := context.Background()
	queries, decided := 0, 0
	forEachProbeQuery(t, func(unit string, sl *pdg.Slice) {
		queries++
		sp, in, ok := fusioncore.GraphProbe(ctx, sl)
		if !ok {
			return
		}
		decided++
		prog := sp.Prog
		vals := prog.Slots()
		prog.Run(in, vals, prog.All())
		if vals[prog.Root(0)] != 1 {
			t.Errorf("%s: the probe's model does not satisfy its own program", unit)
		}

		b := smt.NewBuilder()
		tr := cond.Translate(b, sl)
		vars := map[string]*smt.Term{}
		for _, v := range smt.Vars(tr.Phi) {
			vars[v.Name] = v
		}
		m := smt.Assignment{}
		sp.Each(func(v *ssa.Value, c *cond.Ctx, slot int32) {
			if x := vars[cond.VarName(v, sameContext(tr.Contexts, c))]; x != nil {
				m[x] = vals[slot]
			}
		})
		if len(m) != len(vars) {
			t.Errorf("%s: the program assigns %d of the condition's %d variables", unit, len(m), len(vars))
		}
		if smt.Eval(tr.Phi, m) != 1 {
			t.Errorf("%s: the probe's model does not satisfy cond.Translate's condition", unit)
		}
	})
	t.Logf("%d queries, %d decided by the graph probe (%d on the term-built residual)",
		queries, decided, graphProbeParentDecided)
	if decided < graphProbeParentDecided {
		t.Errorf("the graph probe decided %d queries, want at least %d", decided, graphProbeParentDecided)
	}
}

// sameContext returns the context of t with c's site chain.
func sameContext(t *cond.CtxTree, c *cond.Ctx) *cond.Ctx {
	if c.Parent == nil {
		return t.Root
	}
	return t.Child(sameContext(t, c.Parent), c.Site)
}
