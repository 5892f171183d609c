package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/failure"
	"fusion/internal/faultinject"
)

func writeTemp(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.fl")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const testSrc = `
fun f(a: int) {
    var p: ptr = null;
    if (a > 3) {
        deref(p);
    }
    var q: ptr = null;
    if (a > 0) {
        if (a < 0) {
            deref(q);
        }
    }
}
`

func TestRunReportsFeasibleOnly(t *testing.T) {
	path := writeTemp(t, testSrc)
	for _, engine := range []string{"fusion", "pinpoint", "fusion-unopt", "pinpoint+lfs"} {
		var out bytes.Buffer
		_, err := run(config{path: path, checker: "null-deref", engine: engine, prelude: true, out: &out})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		s := out.String()
		if !strings.Contains(s, "1 bug(s) reported") {
			t.Errorf("%s: expected exactly one report:\n%s", engine, s)
		}
	}
}

func TestRunAllCheckers(t *testing.T) {
	path := writeTemp(t, `
fun f(a: int) {
    var s: int = read_secret();
    if (a == 3) {
        send(s);
    }
}`)
	var out bytes.Buffer
	if _, err := run(config{path: path, checker: "all", engine: "fusion", prelude: true, showPaths: true, out: &out}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cwe-402") || !strings.Contains(out.String(), "path:") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

func TestRunJoint(t *testing.T) {
	path := writeTemp(t, `
fun f(a: int) {
    var s1: int = read_secret();
    var s2: int = read_secret();
    var c: int = 0;
    var d: int = 0;
    if (a > 0) {
        c = s1;
    }
    if (a < 0) {
        d = s2;
    }
    sendmsg(c, d);
}`)
	var out bytes.Buffer
	if _, err := run(config{path: path, checker: "cwe-402", engine: "fusion", prelude: true, joint: true, out: &out}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "jointly infeasible") {
		t.Errorf("expected joint infeasibility:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTemp(t, testSrc)
	if _, err := run(config{path: path, checker: "bogus", engine: "fusion", prelude: true, out: &bytes.Buffer{}}); err == nil {
		t.Error("expected unknown-checker error")
	}
	if _, err := run(config{path: path, checker: "null-deref", engine: "bogus", prelude: true, out: &bytes.Buffer{}}); err == nil {
		t.Error("expected unknown-engine error")
	}
	if _, err := run(config{path: "/does/not/exist", checker: "all", engine: "fusion", prelude: true, out: &bytes.Buffer{}}); err == nil {
		t.Error("expected file error")
	}
	bad := writeTemp(t, "fun f( {")
	if _, err := run(config{path: bad, checker: "all", engine: "fusion", prelude: true, out: &bytes.Buffer{}}); err == nil {
		t.Error("expected parse error")
	}
	semabad := writeTemp(t, "fun f() { x = 1; }")
	if _, err := run(config{path: semabad, checker: "all", engine: "fusion", prelude: true, out: &bytes.Buffer{}}); err == nil {
		t.Error("expected sema error")
	}
	// A negative -retries is a usage error (exit 2), not a run whose every
	// candidate crashes or degrades.
	for _, engine := range []string{"fusion", "pinpoint"} {
		if _, err := run(config{path: path, checker: "null-deref", engine: engine, prelude: true, retries: -1, out: &bytes.Buffer{}}); err == nil {
			t.Errorf("%s: expected -retries error", engine)
		}
	}
	// Likewise a negative budget or timeout: it used to mean "unbounded".
	for flag, cfg := range map[string]config{
		"-timeout":          {timeout: -time.Second},
		"-budget-steps":     {budget: engines.Budget{Steps: -1}},
		"-budget-conflicts": {budget: engines.Budget{Conflicts: -1}},
		"-budget-deadline":  {budget: engines.Budget{Deadline: -time.Second}},
		"-budget-heap":      {budget: engines.Budget{MaxHeapDelta: -1}},
	} {
		cfg.path, cfg.checker, cfg.engine, cfg.prelude, cfg.out = path, "null-deref", "fusion", true, &bytes.Buffer{}
		if _, err := run(cfg); err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("negative %s: got error %v", flag, err)
		}
	}
}

func TestEngineFactory(t *testing.T) {
	for _, name := range []string{"fusion", "fusion-unopt", "pinpoint", "pinpoint+qe", "pinpoint+lfs", "pinpoint+hfs", "pinpoint+ar", "infer"} {
		if _, err := newEngine(name); err != nil {
			t.Errorf("engine %s: %v", name, err)
		}
	}
	if _, err := newEngine("nope"); err == nil {
		t.Error("expected error for unknown engine")
	}
}

func TestRunDOT(t *testing.T) {
	path := writeTemp(t, testSrc)
	var out bytes.Buffer
	if _, err := run(config{path: path, checker: "all", engine: "fusion", prelude: true, dot: true, out: &out}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.HasPrefix(s, "digraph pdg {") || !strings.Contains(s, "style=dashed") {
		t.Errorf("unexpected DOT output:\n%.200s", s)
	}
}

func TestRunSummaryEnumeration(t *testing.T) {
	path := writeTemp(t, testSrc)
	var dfs, sum bytes.Buffer
	// The abstract tier prunes during DFS but not during summary
	// enumeration, so compare the two with the tier off.
	if _, err := run(config{path: path, checker: "null-deref", engine: "fusion", prelude: true, enum: "dfs", absint: driver.AbsintOff, out: &dfs}); err != nil {
		t.Fatal(err)
	}
	if _, err := run(config{path: path, checker: "null-deref", engine: "fusion", prelude: true, enum: "summary", absint: driver.AbsintOff, out: &sum}); err != nil {
		t.Fatal(err)
	}
	if dfs.String() != sum.String() {
		t.Errorf("enumerations disagree:\n--- dfs ---\n%s--- summary ---\n%s", dfs.String(), sum.String())
	}
	if _, err := run(config{path: path, checker: "null-deref", engine: "fusion", prelude: true, enum: "bogus", out: &sum}); err == nil {
		t.Error("expected error for unknown enumeration")
	}
}

// TestRunWorkersDeterministic checks the CLI promise that -workers N
// output is byte-identical to the sequential run, across engines.
func TestRunWorkersDeterministic(t *testing.T) {
	path := writeTemp(t, testSrc)
	for _, engine := range []string{"fusion", "pinpoint", "infer"} {
		var seq, par bytes.Buffer
		if _, err := run(config{path: path, checker: "all", engine: engine, prelude: true, showPaths: true, workers: 1, out: &seq}); err != nil {
			t.Fatalf("%s workers=1: %v", engine, err)
		}
		if _, err := run(config{path: path, checker: "all", engine: engine, prelude: true, showPaths: true, workers: 8, out: &par}); err != nil {
			t.Fatalf("%s workers=8: %v", engine, err)
		}
		if seq.String() != par.String() {
			t.Errorf("%s: workers=1 and workers=8 outputs differ:\n--- 1 ---\n%s--- 8 ---\n%s", engine, seq.String(), par.String())
		}
	}
}

// TestRunSessionDeterministic checks end to end that solver state lives
// for one candidate: the CLI output must be byte-identical at any worker
// count — also for the Pinpoint variants whose candidates each run a
// multi-query session — and under an injected check-stage panic, where
// the crashed candidate must not leak into the remaining verdicts.
func TestRunSessionDeterministic(t *testing.T) {
	path := writeTemp(t, testSrc)
	runAt := func(engine string, workers int) string {
		var buf bytes.Buffer
		if _, err := run(config{path: path, checker: "all", engine: engine, prelude: true,
			showPaths: true, workers: workers, out: &buf}); err != nil {
			t.Fatalf("%s workers=%d: %v", engine, workers, err)
		}
		return buf.String()
	}
	engines := []string{"fusion", "pinpoint", "pinpoint+hfs", "pinpoint+qe", "pinpoint+ar"}
	for _, engine := range engines {
		if seq, par := runAt(engine, 1), runAt(engine, 8); seq != par {
			t.Errorf("%s: output varies with -workers:\n--- 1 ---\n%s--- 8 ---\n%s", engine, seq, par)
		}
	}

	// Under FUSION_FAULT=panic.check (here scoped to the null-deref units)
	// the batch still completes, identically at any worker count: a panic
	// takes down its own candidate, nothing else.
	if err := faultinject.ArmSpec("panic.check:null-deref"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	for _, engine := range []string{"fusion", "pinpoint+hfs"} {
		if seq, par := runAt(engine, 1), runAt(engine, 8); seq != par {
			t.Errorf("%s: faulted output varies with -workers:\n--- 1 ---\n%s--- 8 ---\n%s", engine, seq, par)
		}
	}
}

// strideSrc has a parity-infeasible division that only the congruence
// tier can refute: the divisor e is defined before the guard, so the
// whole-program oracle records no stride for it, and the interval tier
// cannot evaluate the guard to a contradiction (two unknowns). Only the
// refuter's backward %-refinement derives e ≡ 1 (mod 2) and kills zero.
const strideSrc = `
fun f(a: int) {
    var d: int = user_input();
    var n: int = user_input();
    var e: int = d + n * 2;
    if (d % 2 == 1) {
        var q: int = 100 / e;
        send(q + a);
    }
}
`

// TestRunStrideDeterministic checks that stride-tier refutations are
// attributed in the CLI summary and that the output is byte-identical
// across worker counts; with -absint=nostride the attribution vanishes
// but the report set stays the same.
func TestRunStrideDeterministic(t *testing.T) {
	path := writeTemp(t, strideSrc)
	var seq, par, nostride bytes.Buffer
	if _, err := run(config{path: path, checker: "cwe-369", engine: "fusion", prelude: true, workers: 1, out: &seq}); err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	if _, err := run(config{path: path, checker: "cwe-369", engine: "fusion", prelude: true, workers: 8, out: &par}); err != nil {
		t.Fatalf("workers=8: %v", err)
	}
	if seq.String() != par.String() {
		t.Errorf("workers=1 and workers=8 outputs differ:\n--- 1 ---\n%s--- 8 ---\n%s", seq.String(), par.String())
	}
	s := seq.String()
	if !strings.Contains(s, "by stride") || strings.Contains(s, "(0 by stride") {
		t.Errorf("no stride-tier attribution in summary:\n%s", s)
	}
	if !strings.Contains(s, "0 bug(s) reported") {
		t.Errorf("parity-infeasible division must not be reported:\n%s", s)
	}
	if _, err := run(config{path: path, checker: "cwe-369", engine: "fusion", prelude: true, absint: driver.AbsintNoStride, out: &nostride}); err != nil {
		t.Fatalf("nostride: %v", err)
	}
	ns := nostride.String()
	if strings.Contains(ns, "by stride") && !strings.Contains(ns, "(0 by stride") {
		t.Errorf("nostride mode attributed a stride refutation:\n%s", ns)
	}
	if !strings.Contains(ns, "0 bug(s) reported") {
		t.Errorf("report set changed under nostride (solver must still refute):\n%s", ns)
	}
}

// TestRunTimeout checks that an already-expired budget still returns
// promptly with an error rather than hanging.
func TestRunTimeout(t *testing.T) {
	path := writeTemp(t, testSrc)
	_, err := run(config{path: path, checker: "all", engine: "fusion", prelude: true, timeout: time.Nanosecond, out: &bytes.Buffer{}})
	if err == nil {
		t.Fatal("expected a deadline error from an expired budget")
	}
}

func TestOutcomeExitCodes(t *testing.T) {
	cases := []struct {
		o    outcome
		want int
	}{
		{outcome{}, 0},
		{outcome{findings: 3}, 1},
		{outcome{degraded: 1}, 2},
		{outcome{failures: []*failure.UnitFailure{{Unit: "u"}}}, 2},
		{outcome{findings: 5, degraded: 1}, 2}, // impairment trumps findings
		{outcome{findings: 5, failures: []*failure.UnitFailure{{Unit: "u"}}}, 2},
	}
	for _, c := range cases {
		if got := c.o.exitCode(); got != c.want {
			t.Errorf("%+v: exit %d, want %d", c.o, got, c.want)
		}
	}
}

// TestRunInjectedFailureSummary arms a forced check-stage panic and checks
// the CLI completes the batch, renders the failure summary table, and maps
// the outcome to exit 2 — identically at workers 1 and 8.
func TestRunInjectedFailureSummary(t *testing.T) {
	path := writeTemp(t, testSrc)
	if err := faultinject.ArmSpec("panic.check:null-deref"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	var seq, par bytes.Buffer
	res, err := run(config{path: path, checker: "all", engine: "fusion", prelude: true, workers: 1, out: &seq})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.failures) == 0 || res.exitCode() != 2 {
		t.Fatalf("armed panic not surfaced: %+v", res)
	}
	s := seq.String()
	for _, want := range []string{"unit failure(s):", "unit", "stage", "digest", "error", "injected fault panic.check"} {
		if !strings.Contains(s, want) {
			t.Errorf("failure summary missing %q:\n%s", want, s)
		}
	}
	// Other checkers' verdicts survive the crashed units.
	if !strings.Contains(s, "bug(s) reported") {
		t.Errorf("batch did not complete:\n%s", s)
	}
	if _, err := run(config{path: path, checker: "all", engine: "fusion", prelude: true, workers: 8, out: &par}); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("workers=1 and workers=8 outputs differ under injection:\n--- 1 ---\n%s--- 8 ---\n%s", seq.String(), par.String())
	}
}

// TestRunFailFast stops after the first spec with a contained failure
// instead of checking the remaining specs.
func TestRunFailFast(t *testing.T) {
	path := writeTemp(t, testSrc)
	if err := faultinject.ArmSpec("panic.check:null-deref"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	var out bytes.Buffer
	res, err := run(config{path: path, checker: "all", engine: "fusion", prelude: true, failFast: true, out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if res.exitCode() != 2 {
		t.Fatalf("fail-fast run must be impaired: %+v", res)
	}
	if !strings.Contains(out.String(), "fail-fast: stopping after") {
		t.Errorf("missing fail-fast notice:\n%s", out.String())
	}
}

// TestRunBudgetDegradation drives the CLI budget flags: a one-step SAT
// budget exhausts the bit-precise tier and the output reports the
// degraded-tier refutation and exit code 2.
func TestRunBudgetDegradation(t *testing.T) {
	path := writeTemp(t, `
fun f(a: int) {
    var p: ptr = null;
    if (a * a == 1442401) {
        deref(p);
    }
}
`)
	var out bytes.Buffer
	res, err := run(config{
		path: path, checker: "null-deref", engine: "fusion", prelude: true,
		absint: driver.AbsintOff, budget: engines.Budget{Steps: 1}, out: &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.degraded == 0 || res.exitCode() != 2 {
		t.Fatalf("one-step budget did not degrade: %+v\n%s", res, out.String())
	}
	if len(res.failures) != 0 {
		t.Fatalf("degradation must not be a unit failure: %+v", res.failures)
	}
	s := out.String()
	if !strings.Contains(s, "budget exhausted") && !strings.Contains(s, "budget exhaustion") {
		t.Errorf("output does not mention the exhausted budget:\n%s", s)
	}
	if !strings.Contains(s, "verdict(s) degraded after budget exhaustion") {
		t.Errorf("missing degradation summary:\n%s", s)
	}
}

// TestRunCompileStageInjection arms a front-end stage panic: the compile
// fails as a contained error naming the stage rather than crashing the
// process.
func TestRunCompileStageInjection(t *testing.T) {
	path := writeTemp(t, testSrc)
	if err := faultinject.ArmSpec("panic.sema"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	_, err := run(config{path: path, checker: "all", engine: "fusion", prelude: true, out: &bytes.Buffer{}})
	if err == nil {
		t.Fatal("injected front-end panic must fail the run")
	}
	var f *failure.UnitFailure
	if !errors.As(err, &f) || f.Stage != "sema" {
		t.Errorf("want a sema-stage unit failure, got %v", err)
	}
}
