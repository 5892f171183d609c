package engines

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"fusion/internal/faultinject"
	"fusion/internal/sat"
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
// and the candidate falls to the degradation ladder. Nothing outlives
// the batch.
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
		if v := vs[0]; !v.Degraded || v.Status == sat.Sat || v.Failure != nil || v.Attempts != 1 {
			t.Errorf("%s: stalled unit must degrade after one attempt: %+v", name, v)
		}
		if elapsed > 5*time.Second {
			t.Errorf("%s: stalled solve took %v, want the 150ms deadline's order", name, elapsed)
		}
	}
	waitGoroutines(t, before)
}

// TestRetryRecoversInjectedSolvePanic arms panic.solve:1 for one unit:
// its first attempt crashes, the retry on fresh solver state succeeds,
// and the final verdict matches an un-faulted run — identically at
// workers 1 and 8.
func TestRetryRecoversInjectedSolvePanic(t *testing.T) {
	g := resGraph(t, resMixedSrc)
	cands := resCands(t, g, 2)
	target := UnitLabel(cands[0])

	type row struct {
		st       sat.Status
		tier     Tier
		degraded bool
	}
	baseline := func() []row {
		e := NewFusion()
		var rows []row
		for _, v := range e.Check(context.Background(), g, cands) {
			rows = append(rows, row{v.Status, v.Tier, v.Degraded})
		}
		return rows
	}()

	if err := faultinject.ArmSpec("panic.solve:1:" + target); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	for _, workers := range []int{1, 8} {
		e := NewFusion()
		e.Cfg.Retries = 1
		e.Parallel = workers
		vs := e.Check(context.Background(), g, cands)
		for i, v := range vs {
			if v.Failure != nil {
				t.Fatalf("workers=%d slot %d: retry did not recover: %+v", workers, i, v)
			}
			wantAttempts := 1
			if UnitLabel(cands[i]) == target {
				wantAttempts = 2
			}
			if v.Attempts != wantAttempts {
				t.Errorf("workers=%d slot %d: Attempts = %d, want %d", workers, i, v.Attempts, wantAttempts)
			}
			if got := (row{v.Status, v.Tier, v.Degraded}); got != baseline[i] {
				t.Errorf("workers=%d slot %d: recovered verdict %+v differs from baseline %+v", workers, i, got, baseline[i])
			}
		}
	}
}

// TestRepeatedPoisoningExhaustsLadder arms a panic that fires on every
// attempt of one unit: the full ladder (three attempts) is
// climbed and exhausted, yielding exactly one UnitFailure that records
// the attempt count — and no goroutine outlives the batch.
func TestRepeatedPoisoningExhaustsLadder(t *testing.T) {
	g := resGraph(t, resMixedSrc)
	cands := resCands(t, g, 2)
	target := UnitLabel(cands[0])
	if err := faultinject.ArmSpec("panic.check:" + target); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	before := runtime.NumGoroutine()

	mk := map[string]func() Engine{
		"fusion":   func() Engine { return NewFusion() },
		"pinpoint": func() Engine { return NewPinpoint(Plain) },
	}
	for name, fresh := range mk {
		for _, workers := range []int{1, 8} {
			e := fresh()
			SetParallel(e, workers)
			SetSupervision(e, 2)
			vs := e.Check(context.Background(), g, cands)
			failures := 0
			for i, v := range vs {
				if UnitLabel(cands[i]) != target {
					if v.Failure != nil {
						t.Errorf("%s workers=%d: healthy unit failed: %+v", name, workers, v)
					}
					continue
				}
				if v.Failure == nil {
					t.Fatalf("%s workers=%d: poisoned unit has no failure: %+v", name, workers, v)
				}
				failures++
				if v.Failure.Attempts != 3 || v.Attempts != 3 {
					t.Errorf("%s workers=%d: attempts = %d/%d, want 3/3 (retries=2)",
						name, workers, v.Failure.Attempts, v.Attempts)
				}
				if v.Status == sat.Sat {
					t.Errorf("%s workers=%d: exhausted ladder claimed Sat", name, workers)
				}
			}
			if failures != 1 {
				t.Errorf("%s workers=%d: %d failed verdicts, want exactly 1", name, workers, failures)
			}
		}
	}
	waitGoroutines(t, before)
}

// TestSupervisionConfigNeverChangesVerdicts: with no fault armed, every
// combination of worker count and retry budget must produce
// byte-identical verdicts — clean first attempts never re-run, so the
// retry ladder is invisible until something breaks.
func TestSupervisionConfigNeverChangesVerdicts(t *testing.T) {
	g := resGraph(t, resMixedSrc)
	cands := resCands(t, g, 2)
	var base string
	for _, workers := range []int{1, 8} {
		for _, retries := range []int{0, 2} {
			e := NewFusion()
			e.Parallel = workers
			SetSupervision(e, retries)
			var rows string
			for _, v := range e.Check(context.Background(), g, cands) {
				if v.Failure != nil {
					t.Fatalf("workers=%d retries=%d: unexpected failure %v",
						workers, retries, v.Failure)
				}
				rows += fmt.Sprintf("%s %s degraded=%v attempts=%d\n",
					v.Status, v.Tier, v.Degraded, v.Attempts)
			}
			if base == "" {
				base = rows
			} else if rows != base {
				t.Errorf("workers=%d retries=%d: verdicts differ:\n%s\nvs baseline\n%s",
					workers, retries, rows, base)
			}
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
		e.Cfg.Budget.Deadline = 300 * time.Millisecond
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
