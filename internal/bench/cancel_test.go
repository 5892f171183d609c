package bench

import (
	"context"
	"runtime"
	"testing"
	"time"

	"fusion/internal/checker"
	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/faultinject"
	"fusion/internal/progen"
)

// TestRunBudgetCooperativeCancellation: an exhausted time budget makes Run
// return promptly with a scored partial result, and no goroutine keeps
// checking after Run returns (the old implementation leaked the worker).
func TestRunBudgetCooperativeCancellation(t *testing.T) {
	ctx := context.Background()
	sub, err := Compile(ctx, progen.Subjects[5], 0.02)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	start := time.Now()
	c := Run(ctx, sub, checker.NullDeref(), engines.NewFusion(), Budget{Time: time.Nanosecond, CondBytes: 1 << 30})
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("expired budget did not return promptly: %v", elapsed)
	}
	if !c.Failed || c.FailNote != "time out" {
		t.Errorf("expired budget must be scored as a timeout: %+v", c)
	}
	if c.Reports != 0 {
		t.Errorf("no candidate can be decided feasible in zero time: %+v", c)
	}

	// The budget is cooperative cancellation, not an abandoned goroutine:
	// the goroutine count settles back to where it was.
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before {
		t.Errorf("goroutines leaked past Run: %d before, %d after", before, n)
	}
}

// TestRunPartialVerdictsUnderShortBudget: a budget long enough to
// enumerate but too short to check everything still yields one verdict
// per candidate, with the undecided remainder scored as Unknown. The
// short run wedges every solve that reaches the SAT core (stall.solve)
// until the run's budget expires, so it times out on any machine,
// however fast.
func TestRunPartialVerdictsUnderShortBudget(t *testing.T) {
	ctx := context.Background()
	sub, err := Compile(ctx, progen.Subjects[5], 0.02)
	if err != nil {
		t.Fatal(err)
	}
	// Full run for the candidate volume.
	full := Run(ctx, sub, checker.NullDeref(), engines.NewFusion(), Budget{Time: time.Minute, CondBytes: 1 << 30})
	total := full.Reports + full.Unknown + countUnsat(full)
	if total == 0 {
		t.Skip("subject yields no candidates at this scale")
	}
	if err := faultinject.ArmSpec("stall.solve"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	short := Run(ctx, sub, checker.NullDeref(), engines.NewFusion(), Budget{Time: 500 * time.Millisecond, CondBytes: 1 << 30})
	if !short.Failed || short.FailNote != "time out" {
		t.Fatalf("a run wedged past its budget must be scored as a timeout: %+v", short)
	}
	if short.Unknown == 0 {
		t.Errorf("the wedged candidate must be scored Unknown: %+v", short)
	}
	if short.Reports > full.Reports {
		t.Errorf("partial run reported more than the full run: %d > %d", short.Reports, full.Reports)
	}
}

func countUnsat(c Cost) int { return c.SolverCalls + c.AbsintDecided - c.Reports - c.Unknown }

// TestRunParentCancelIsNotFailure: a cancelled caller context stops the
// run but is not scored as a subject budget failure.
func TestRunParentCancelIsNotFailure(t *testing.T) {
	sub, err := Compile(context.Background(), progen.Subjects[5], 0.02)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := Run(ctx, sub, checker.NullDeref(), engines.NewFusion(), Budget{Time: time.Minute, CondBytes: 1 << 30})
	if c.Failed {
		t.Errorf("parent cancellation scored as a budget failure: %+v", c)
	}
	if c.Reports != 0 {
		t.Errorf("cancelled run still produced reports: %+v", c)
	}
}

// TestRunWorkersDeterministic: the same subject, spec, and engine yields
// the same scored result for 1 and 8 workers — enumeration merge and
// verdict slots are index-stable.
func TestRunWorkersDeterministic(t *testing.T) {
	ctx := context.Background()
	sub, err := Compile(ctx, progen.Subjects[9], 0.05)
	if err != nil {
		t.Fatal(err)
	}
	budget := Budget{Time: time.Minute, CondBytes: 1 << 30}
	mk := map[string]func() engines.Engine{
		"fusion": func() engines.Engine {
			e := engines.NewFusion()
			e.Opts.Absint = driver.Analyze(sub.Graph, driver.AbsintOn)
			return e
		},
		"pinpoint": func() engines.Engine { return engines.NewPinpoint(engines.Plain) },
		"infer":    func() engines.Engine { return engines.NewInfer() },
	}
	for name, f := range mk {
		seq := RunWorkers(ctx, sub, checker.NullDeref(), f(), budget, 1)
		par := RunWorkers(ctx, sub, checker.NullDeref(), f(), budget, 8)
		if seq.Reports != par.Reports || seq.TP != par.TP || seq.FP != par.FP ||
			seq.Unknown != par.Unknown || seq.AbsintDecided != par.AbsintDecided ||
			seq.AbsintZone != par.AbsintZone || seq.AbsintPruned != par.AbsintPruned ||
			seq.SolverCalls != par.SolverCalls {
			t.Errorf("%s: workers=1 and workers=8 disagree:\nseq %+v\npar %+v", name, seq, par)
		}
	}
}

// TestRunUnderInjectedPanic: a candidate that panics mid-run is contained
// — Run completes, scores the crash as a unit failure, keeps every other
// verdict, and leaks no goroutine. The scored counters are identical at 1
// and 8 workers.
func TestRunUnderInjectedPanic(t *testing.T) {
	ctx := context.Background()
	sub, err := Compile(ctx, progen.Subjects[9], 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.ArmSpec("panic.check:null-deref"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	before := runtime.NumGoroutine()
	budget := Budget{Time: time.Minute, CondBytes: 1 << 30}

	seq := RunWorkers(ctx, sub, checker.NullDeref(), engines.NewFusion(), budget, 1)
	par := RunWorkers(ctx, sub, checker.NullDeref(), engines.NewFusion(), budget, 8)
	if seq.UnitFailures == 0 {
		t.Fatal("armed panic produced no unit failures")
	}
	if seq.UnitFailures != par.UnitFailures || seq.Reports != par.Reports ||
		seq.Unknown != par.Unknown {
		t.Errorf("workers=1 and workers=8 disagree under injection:\nseq %+v\npar %+v", seq, par)
	}
	for i, f := range seq.Failures {
		if f.Stage != "check" || f.Digest() != par.Failures[i].Digest() {
			t.Errorf("failure %d: stage %q digest %s vs %s", i, f.Stage, f.Digest(), par.Failures[i].Digest())
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before {
		t.Errorf("goroutines leaked past Run: %d before, %d after", before, n)
	}
}

// TestRunMixedTiersUnderInjectedExhaustion: with solver-step exhaustion
// armed, verdicts that needed the bit-precise tier degrade and are scored
// separately, while absint-decided and preprocessed verdicts keep their
// original tiers — the mixed-precision batch still completes and stays
// deterministic across worker counts.
func TestRunMixedTiersUnderInjectedExhaustion(t *testing.T) {
	ctx := context.Background()
	sub, err := Compile(ctx, progen.Subjects[9], 0.05)
	if err != nil {
		t.Fatal(err)
	}
	budget := Budget{Time: time.Minute, CondBytes: 1 << 30}
	clean := RunWorkers(ctx, sub, checker.NullDeref(), engines.NewFusion(), budget, 1)
	if clean.Degraded != 0 || clean.UnitFailures != 0 {
		t.Fatalf("clean run already impaired: %+v", clean)
	}

	if err := faultinject.ArmSpec("solver.exhaust"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	seq := RunWorkers(ctx, sub, checker.NullDeref(), engines.NewFusion(), budget, 1)
	par := RunWorkers(ctx, sub, checker.NullDeref(), engines.NewFusion(), budget, 8)
	if seq.UnitFailures != 0 {
		t.Errorf("exhaustion must degrade, not fail: %+v", seq.Failures)
	}
	if seq.Degraded != par.Degraded || seq.DegradedUnsat != par.DegradedUnsat ||
		seq.Reports != par.Reports || seq.Unknown != par.Unknown {
		t.Errorf("degradation not deterministic across workers:\nseq %+v\npar %+v", seq, par)
	}
	if seq.Reports > clean.Reports {
		t.Errorf("exhausted run reported more than the clean run: %d > %d", seq.Reports, clean.Reports)
	}
}
