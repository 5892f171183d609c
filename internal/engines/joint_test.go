package engines_test

import (
	"context"
	"sync"
	"testing"

	"fusion/internal/checker"
	"fusion/internal/engines"
	"fusion/internal/pdg"
	"fusion/internal/sat"
	"fusion/internal/sparse"
)

// The paper's Figure 6 scenario: a password and a destination flow into
// sendmsg(c, d) together. In jointSrc the two flows are individually
// feasible but mutually exclusive; in jointFeasibleSrc they can co-occur.
const jointSrc = `
fun f(a: int) {
    var pass: int = read_secret();
    var ip: int = read_secret();
    var c: int = 0;
    var d: int = 0;
    if (a > 0) {
        c = pass;
    }
    if (a < 0) {
        d = ip;
    }
    sendmsg(c, d);
}`

const jointFeasibleSrc = `
fun f(a: int) {
    var pass: int = read_secret();
    var ip: int = read_secret();
    var c: int = 0;
    var d: int = 0;
    if (a > 0) {
        c = pass;
        d = ip;
    }
    sendmsg(c, d);
}`

func jointVerdicts(t *testing.T, src string, eng engines.JointChecker) []engines.JointVerdict {
	t.Helper()
	g := buildGraph(t, src)
	cands := sparse.NewEngine(g).Run(checker.PrivateLeak())
	if len(cands) != 2 {
		t.Fatalf("got %d candidates, want 2", len(cands))
	}
	return engines.CheckJoint(context.Background(), eng, g, cands)
}

func TestJointInfeasible(t *testing.T) {
	for _, eng := range []engines.JointChecker{
		engines.NewFusion(),
		engines.NewPinpoint(engines.Plain),
	} {
		vs := jointVerdicts(t, jointSrc, eng)
		if len(vs) != 1 {
			t.Fatalf("got %d joint groups, want 1", len(vs))
		}
		if vs[0].Status != sat.Unsat {
			t.Errorf("mutually exclusive flows must be jointly infeasible, got %s", vs[0].Status)
		}
		if len(vs[0].Group.Flows) != 2 {
			t.Errorf("group should hold both arguments' flows")
		}
	}
}

func TestJointFeasible(t *testing.T) {
	for _, eng := range []engines.JointChecker{
		engines.NewFusion(),
		engines.NewPinpoint(engines.Plain),
	} {
		vs := jointVerdicts(t, jointFeasibleSrc, eng)
		if len(vs) != 1 {
			t.Fatalf("got %d joint groups, want 1", len(vs))
		}
		if vs[0].Status != sat.Sat {
			t.Errorf("co-occurring flows must be jointly feasible, got %s", vs[0].Status)
		}
	}
}

// crashingJoint is a JointChecker whose every query panics.
type crashingJoint struct{ calls int }

func (c *crashingJoint) CheckJointPaths(context.Context, *pdg.Graph, []pdg.Path) sat.Status {
	c.calls++
	panic("joint crash")
}

// TestJointContainsCrash: a crashing joint query is contained to its
// group, which ends Unknown with the failure attached after one attempt;
// a cancelled run checks no group and leaves each Unknown.
func TestJointContainsCrash(t *testing.T) {
	g := buildGraph(t, jointFeasibleSrc)
	cands := sparse.NewEngine(g).Run(checker.PrivateLeak())
	eng := &crashingJoint{}
	vs := engines.CheckJoint(context.Background(), eng, g, cands)
	if len(vs) != 1 || eng.calls != 1 {
		t.Fatalf("got %d groups after %d queries, want 1 after 1", len(vs), eng.calls)
	}
	if f := vs[0].Failure; vs[0].Status != sat.Unknown || f == nil || f.Stage != "joint" {
		t.Errorf("crashed group: status %s, failure %+v", vs[0].Status, f)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	vs = engines.CheckJoint(ctx, eng, g, cands)
	if len(vs) != 1 || eng.calls != 1 || vs[0].Status != sat.Unknown || vs[0].Failure != nil {
		t.Errorf("cancelled run: %d queries, verdicts %+v", eng.calls, vs)
	}
}

// TestJointChecksConcurrentWithCheck: joint queries and per-candidate
// checks own their solver state, so one Fusion may serve both at once.
// Run with -race, this fails if they share anything unsynchronized.
func TestJointChecksConcurrentWithCheck(t *testing.T) {
	g := buildGraph(t, jointSrc)
	cands := sparse.NewEngine(g).Run(checker.PrivateLeak())
	paths := []pdg.Path{cands[0].Path, cands[1].Path}
	e := engines.NewFusion()
	want := e.Check(context.Background(), g, cands)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			for j, v := range e.Check(context.Background(), g, cands) {
				if v.Status != want[j].Status {
					t.Errorf("round %d: candidate %d decided %s, want %s", i, j, v.Status, want[j].Status)
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if st := e.CheckJointPaths(context.Background(), g, paths); st != sat.Unsat {
				t.Errorf("round %d: joint query decided %s, want unsat", i, st)
			}
		}
	}()
	wg.Wait()
}

func TestGroupBySinkShape(t *testing.T) {
	// A single-argument sink never forms a group.
	g := buildGraph(t, `
fun f() {
    var s: int = read_secret();
    send(s);
}`)
	cands := sparse.NewEngine(g).Run(checker.PrivateLeak())
	if got := engines.GroupBySink(cands); len(got) != 0 {
		t.Errorf("single-argument sink formed %d groups", len(got))
	}
	// Two flows into the same argument do not form a group either.
	g2 := buildGraph(t, `
fun f(a: int) {
    var s1: int = read_secret();
    var s2: int = read_secret();
    var x: int = s1;
    if (a > 0) {
        x = s2;
    }
    send(x);
}`)
	cands2 := sparse.NewEngine(g2).Run(checker.PrivateLeak())
	if len(cands2) < 2 {
		t.Fatalf("expected two flows into send, got %d", len(cands2))
	}
	if got := engines.GroupBySink(cands2); len(got) != 0 {
		t.Errorf("same-argument flows formed %d groups", len(got))
	}
}
