package engines

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"fusion/internal/faultinject"
	"fusion/internal/pdg"
	"fusion/internal/sat"
	"fusion/internal/sparse"
)

// resHardSrc guards its deref with a*a == 1201²: satisfiable, but the
// concrete probe cannot guess a square root and unit propagation cannot
// build one, so the query reliably reaches the SAT core — which is
// where stall.solve wedges.
const resHardSrc = `
fun f(a: int) {
    var p: ptr = null;
    if (a * a == 1442401) {
        deref(p);
    }
}
`

// waitGoroutines polls until the goroutine count settles back to the
// baseline, failing the test if orphans are still alive after 5s.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestDeadlineReleasesStalledSolve wedges the search with stall.solve:
// the wedge waits on the solve's own context, so the per-candidate
// deadline alone must end it — long before the stall's safety cap —
// and the candidate ends degraded. Nothing outlives the batch.
func TestDeadlineReleasesStalledSolve(t *testing.T) {
	g := resGraph(t, resHardSrc)
	cands := resCands(t, g, 1)
	if err := faultinject.ArmSpec("stall.solve"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	defer faultinject.SetStallCap(faultinject.SetStallCap(10 * time.Second))
	before := runtime.NumGoroutine()

	for name, e := range map[string]Engine{"fusion": NewFusion(), "pinpoint": NewPinpoint(Plain)} {
		SetBudget(e, Budget{Deadline: 150 * time.Millisecond})
		start := time.Now()
		vs := e.Check(context.Background(), g, cands)
		elapsed := time.Since(start)
		if len(vs) != 1 {
			t.Fatalf("%s: %d verdicts", name, len(vs))
		}
		if v := vs[0]; !v.Degraded || v.Status == sat.Sat || v.Failure != nil {
			t.Errorf("%s: stalled unit must degrade: %+v", name, v)
		}
		if elapsed > 5*time.Second {
			t.Errorf("%s: stalled solve took %v, want the 150ms deadline's order", name, elapsed)
		}
	}
	waitGoroutines(t, before)
}

// TestRepeatedPoisoningExhaustsLadder arms a panic that fires on every
// check of the feasible unit: its one contained attempt yields exactly
// one UnitFailure, and the slot is Verdict{Cand, Unknown, Failure} with
// every other field zero — also when the run is cancelled while the
// attempt crashes. The healthy unit is decided exactly as in a clean
// run, and no goroutine outlives the batch.
func TestRepeatedPoisoningExhaustsLadder(t *testing.T) {
	g := resGraph(t, resMixedSrc)
	cands := resCands(t, g, 2)
	crashed := func(name string, v Verdict, c sparse.Candidate) {
		t.Helper()
		if v.Failure == nil {
			t.Fatalf("%s: poisoned unit has no failure: %+v", name, v)
		}
		if want := (Verdict{Cand: c, Status: sat.Unknown, Failure: v.Failure}); !reflect.DeepEqual(v, want) {
			t.Errorf("%s: crashed unit must be a bare Unknown with its failure: %+v", name, v)
		}
	}

	mk := map[string]func() Engine{
		"fusion":   func() Engine { return NewFusion() },
		"pinpoint": func() Engine { return NewPinpoint(Plain) },
	}
	clean := map[string][]Verdict{}
	target := ""
	for name, fresh := range mk {
		clean[name] = fresh().Check(context.Background(), g, cands)
		for _, v := range clean[name] {
			if v.Status == sat.Sat {
				target = UnitLabel(v.Cand)
			}
		}
	}
	if target == "" {
		t.Fatal("no feasible candidate to poison")
	}
	if err := faultinject.ArmSpec("panic.check:" + target); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	before := runtime.NumGoroutine()

	for name, fresh := range mk {
		for _, workers := range []int{1, 8} {
			e := fresh()
			SetParallel(e, workers)
			vs := e.Check(context.Background(), g, cands)
			failures := 0
			for i, v := range vs {
				if UnitLabel(cands[i]) != target {
					base := clean[name][i]
					if v.Failure != nil || v.Status != base.Status || v.Tier != base.Tier || v.Degraded != base.Degraded {
						t.Errorf("%s workers=%d: healthy unit %+v differs from its clean run %+v", name, workers, v, base)
					}
					continue
				}
				failures++
				crashed(fmt.Sprintf("%s workers=%d", name, workers), v, cands[i])
			}
			if failures != 1 {
				t.Errorf("%s workers=%d: %d failed verdicts, want exactly 1", name, workers, failures)
			}
		}
	}

	// A crash while the run is being cancelled ends the same way.
	run, stop := context.WithCancel(context.Background())
	defer stop()
	s := &supervised{engine: "test", attempt: func(context.Context, *pdg.Graph, sparse.Candidate) Verdict {
		stop()
		panic("crash while the run is torn down")
	}}
	crashed("cancelled run", s.checkAll(run, g, cands[:1])[0], cands[0])
	waitGoroutines(t, before)
}

// TestSupervisionConfigNeverChangesVerdicts: with no fault armed, the
// worker count must not change a verdict.
func TestSupervisionConfigNeverChangesVerdicts(t *testing.T) {
	g := resGraph(t, resMixedSrc)
	cands := resCands(t, g, 2)
	var base string
	for _, workers := range []int{1, 8} {
		e := NewFusion()
		e.Parallel = workers
		var rows string
		for _, v := range e.Check(context.Background(), g, cands) {
			if v.Failure != nil {
				t.Fatalf("workers=%d: unexpected failure %v", workers, v.Failure)
			}
			rows += fmt.Sprintf("%s %s degraded=%v\n", v.Status, v.Tier, v.Degraded)
		}
		if base == "" {
			base = rows
		} else if rows != base {
			t.Errorf("workers=%d: verdicts differ:\n%s\nvs baseline\n%s", workers, rows, base)
		}
	}
}

// resQueueSrc has four feasible null-deref candidates; only the first,
// guarded like resHardSrc, reaches CDCL search.
const resQueueSrc = `
fun f(a: int, b: int) {
    var p: ptr = null;
    if (a * a == 1442401) {
        deref(p);
    }
    var q: ptr = null;
    if (a > 3) {
        deref(q);
    }
    var r: ptr = null;
    if (b < 7) {
        deref(r);
    }
    var s: ptr = null;
    if (a + b == 12) {
        deref(s);
    }
}
`

// TestPinpointDeadlineStartsAfterCacheLock: Pinpoint's candidates
// serialize on the summary-cache lock, so a candidate queued behind a
// slow solve must not be charged for the wait. stall.solve wedges the
// hard candidate's search until its deadline expires, with the lock
// held; at workers 4 the other candidates queue behind it, and they must
// still be decided exactly as at workers 1.
func TestPinpointDeadlineStartsAfterCacheLock(t *testing.T) {
	g := resGraph(t, resQueueSrc)
	cands := resCands(t, g, 4)
	// The hard candidate's sink comes first in the source; check it first
	// so that parallel workers queue behind its stalled solve.
	hard := 0
	for i, c := range cands {
		if c.Sink.Pos.Line < cands[hard].Sink.Pos.Line {
			hard = i
		}
	}
	cands[0], cands[hard] = cands[hard], cands[0]
	if err := faultinject.ArmSpec("stall.solve:" + UnitLabel(cands[0])); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	defer faultinject.SetStallCap(faultinject.SetStallCap(10 * time.Second))

	check := func(workers int) []Verdict {
		e := NewPinpoint(Plain)
		e.Budget.Deadline = 300 * time.Millisecond
		e.Parallel = workers
		return e.Check(context.Background(), g, cands)
	}
	base := check(1)
	if base[0].Status == sat.Sat || !base[0].Degraded {
		t.Fatalf("stalled candidate was not degraded: %+v", base[0])
	}
	for i := 1; i < len(base); i++ {
		if base[i].Status != sat.Sat || base[i].Tier != TierExact || base[i].Degraded {
			t.Fatalf("workers=1 slot %d: want sat/exact, got %+v", i, base[i])
		}
	}
	// Which worker wins the lock first is up to the scheduler; a few
	// rounds make queueing behind the stalled solve all but certain.
	for round := 0; round < 3; round++ {
		vs := check(4)
		for i := 1; i < len(vs); i++ {
			if vs[i].Status != base[i].Status || vs[i].Tier != base[i].Tier || vs[i].Degraded != base[i].Degraded {
				t.Errorf("round %d slot %d: workers=4 (%v, %s, degraded=%v) vs workers=1 (%v, %s, degraded=%v)",
					round, i, vs[i].Status, vs[i].Tier, vs[i].Degraded,
					base[i].Status, base[i].Tier, base[i].Degraded)
			}
		}
	}
}
