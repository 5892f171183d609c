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

// A negative retry count from a library caller still gets one attempt per
// joint group, the same floor the per-candidate ladder keeps.
func TestJointNegativeRetriesStillAttempts(t *testing.T) {
	fu := engines.NewFusion()
	fu.Cfg.Retries = -1
	pp := engines.NewPinpoint(engines.Plain)
	pp.Cfg.Retries = -1
	for _, eng := range []engines.JointChecker{fu, pp} {
		vs := jointVerdicts(t, jointFeasibleSrc, eng)
		if len(vs) != 1 {
			t.Fatalf("got %d joint groups, want 1", len(vs))
		}
		if vs[0].Attempts != 1 || vs[0].Status != sat.Sat {
			t.Errorf("%T: attempts=%d status=%s, want 1 attempt deciding sat",
				eng, vs[0].Attempts, vs[0].Status)
		}
	}
}
