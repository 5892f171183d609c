package absint_test

import (
	"context"
	"testing"

	"fusion/internal/absint"
	"fusion/internal/checker"
	"fusion/internal/engines"
	"fusion/internal/pdg"
	"fusion/internal/sat"
	"fusion/internal/sparse"
	"fusion/internal/ssa"
)

// findValue returns the (last) value defining the named source variable.
func findValue(t *testing.T, g *pdg.Graph, fn, name string) *ssa.Value {
	t.Helper()
	f := g.Prog.Funcs[fn]
	if f == nil {
		t.Fatalf("no function %s", fn)
	}
	var out *ssa.Value
	for _, v := range f.Values {
		if v.Name == name {
			out = v
		}
	}
	if out == nil {
		t.Fatalf("no value %s.%s", fn, name)
	}
	return out
}

func TestZoneDiffBound(t *testing.T) {
	g := buildGraph(t, `
fun f() {
    var i: int = user_input();
    var m: int = user_input();
    if (i < m) {
        var y: int = i;
        send(y);
    }
}`)
	a := absint.Analyze(g)
	y, m := findValue(t, g, "f", "y"), findValue(t, g, "f", "m")
	if c, ok := diffFact(a.ZoneFacts(y), y, m); !ok || c > -1 {
		t.Errorf("y − m: got (%d, %v), want bound <= -1 under the guard", c, ok)
	}
	// With the domain disabled, no fact is known.
	a2 := absint.AnalyzeWith(g, absint.Config{DisableZone: true})
	if facts := a2.ZoneFacts(y); len(facts) != 0 {
		t.Errorf("ZoneFacts answered %v with the zone domain disabled", facts)
	}
	if a2.Stats.ZoneEdges != 0 {
		t.Errorf("zone edges recorded while disabled: %d", a2.Stats.ZoneEdges)
	}
}

// diffFact returns the bound c of the fact x − y ≤ c among facts.
func diffFact(facts []absint.DiffFact, x, y *ssa.Value) (c int64, ok bool) {
	for _, d := range facts {
		if d.X == x && d.Y == y {
			return d.C, true
		}
	}
	return 0, false
}

// oobSlices pairs every CWE-125 candidate with its constrained slice.
func oobSlices(t *testing.T, g *pdg.Graph) ([]sparse.Candidate, []*pdg.Slice) {
	t.Helper()
	cands := sparse.NewEngine(g).Run(checker.IndexOOB())
	if len(cands) == 0 {
		t.Fatal("no cwe-125 candidates")
	}
	var slices []*pdg.Slice
	for _, c := range cands {
		sl := pdg.ComputeSlice(g, []pdg.Path{c.Path})
		c.ApplyConstraint(sl, 0)
		slices = append(slices, sl)
	}
	return cands, slices
}

// TestZoneRefutesGuardedDynBound is the acceptance test for the zone tier:
// a dynamically-bounded access fully guarded by 0 <= i && i < m is beyond
// the interval domain (neither bound is constant), so the intervals-only
// tier must pass the query to the solver — and the zone tier must refute
// it, agreeing with the solver's unsat.
func TestZoneRefutesGuardedDynBound(t *testing.T) {
	g := buildGraph(t, `
fun f() {
    var i: int = user_input();
    var m: int = user_input();
    if (0 <= i && i < m) {
        var q: int = buf_read_n(i, m);
        send(q);
    }
}`)
	a := absint.Analyze(g)
	ivOnly := absint.AnalyzeWith(g, absint.Config{DisableZone: true})
	cands, slices := oobSlices(t, g)
	truth := engines.NewFusion().Check(context.Background(), g, cands)
	for i, sl := range slices {
		refuted, _, byZone := a.RefuteSlice(context.Background(), sl)
		if !refuted || !byZone {
			t.Errorf("guarded dyn access: got (refuted=%v, byZone=%v), want (true, true)", refuted, byZone)
		}
		if r, _, _ := ivOnly.RefuteSlice(context.Background(), sl); r {
			t.Error("intervals-only tier refuted a relational query")
		}
		if truth[i].Status != sat.Unsat {
			t.Errorf("solver disagrees: %s", truth[i].Status)
		}
		// The pruning oracle sees the same facts.
		c := cands[i]
		if !a.PrunePath(c.Path, c.Constraints(0)...) {
			t.Error("zone oracle did not prune the guarded access")
		}
		if ivOnly.PrunePath(c.Path, c.Constraints(0)...) {
			t.Error("intervals-only oracle pruned a relational query")
		}
	}
}

// TestZoneRefutesCrossFunction moves the sink into a callee: the guard
// holds in the caller, the access happens in the callee, and the refuter's
// context-sensitive zone must connect the two through the call.
func TestZoneRefutesCrossFunction(t *testing.T) {
	g := buildGraph(t, `
fun use(i: int, m: int): int {
    var q: int = buf_read_n(i, m);
    return q;
}
fun f(a: int) {
    var i: int = user_input();
    var m: int = user_input();
    if (0 <= i && i < m) {
        var q: int = use(i, m);
        send(q + a);
    }
}`)
	a := absint.Analyze(g)
	ivOnly := absint.AnalyzeWith(g, absint.Config{DisableZone: true})
	cands, slices := oobSlices(t, g)
	truth := engines.NewFusion().Check(context.Background(), g, cands)
	for i, sl := range slices {
		refuted, _, byZone := a.RefuteSlice(context.Background(), sl)
		if !refuted || !byZone {
			t.Errorf("cross-function dyn access: got (refuted=%v, byZone=%v), want (true, true)", refuted, byZone)
		}
		if r, _, _ := ivOnly.RefuteSlice(context.Background(), sl); r {
			t.Error("intervals-only tier refuted a relational query")
		}
		if truth[i].Status != sat.Unsat {
			t.Errorf("solver disagrees: %s", truth[i].Status)
		}
	}
}

// TestZoneNoRefuteFeasibleDynBound is the soundness counterpart: with the
// lower guard missing, a negative index reaches the access, and neither
// tier may refute or prune it.
func TestZoneNoRefuteFeasibleDynBound(t *testing.T) {
	g := buildGraph(t, `
fun f() {
    var i: int = user_input();
    var m: int = user_input();
    if (i < m) {
        var q: int = buf_read_n(i, m);
        send(q);
    }
}`)
	a := absint.Analyze(g)
	cands, slices := oobSlices(t, g)
	truth := engines.NewFusion().Check(context.Background(), g, cands)
	for i, sl := range slices {
		if refuted, _, _ := a.RefuteSlice(context.Background(), sl); refuted {
			t.Error("feasible dyn access refuted: unsound")
		}
		c := cands[i]
		if a.PrunePath(c.Path, c.Constraints(0)...) {
			t.Error("feasible dyn access pruned: unsound")
		}
		if truth[i].Status != sat.Sat {
			t.Errorf("expected a sat witness, got %s", truth[i].Status)
		}
	}
}
