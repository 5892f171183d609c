package driver_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"fusion/internal/driver"
	"fusion/internal/failure"
	"fusion/internal/faultinject"
)

const goodSrc = `
fun f(a: int) {
    var p: ptr = null;
    if (a > 3) {
        deref(p);
    }
}
`

func compile(t *testing.T, src string, opts driver.Options) *driver.Program {
	t.Helper()
	p, err := driver.Compile(context.Background(), driver.Source{Name: "test", Text: src}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompileArtifacts(t *testing.T) {
	p := compile(t, goodSrc, driver.Options{Prelude: true})
	if p.AST == nil || p.SSA == nil || p.Graph == nil {
		t.Fatal("missing compiled artifacts")
	}
	if p.Stats.Vertices == 0 || p.Stats.Functions == 0 {
		t.Errorf("empty stats: %+v", p.Stats)
	}
	if !p.Prelude() {
		t.Error("Prelude() must report the compile option")
	}
	if d := p.Describe(); !strings.Contains(d, "test:") || !strings.Contains(d, "vertices") {
		t.Errorf("bad describe: %q", d)
	}
}

func TestCompileParseError(t *testing.T) {
	_, err := driver.Compile(context.Background(), driver.Source{Name: "bad", Text: "fun f( {"}, driver.Options{})
	if err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("expected a named parse error, got %v", err)
	}
}

func TestCompileSemaErrors(t *testing.T) {
	_, err := driver.Compile(context.Background(),
		driver.Source{Name: "sema", Text: "fun f() { x = 1; y = 2; }"}, driver.Options{})
	if err == nil {
		t.Fatal("expected semantic errors")
	}
	var se *driver.SemaErrors
	if !errors.As(err, &se) {
		t.Fatalf("error does not unwrap to SemaErrors: %v", err)
	}
	if se.Name != "sema" || len(se.Errs) < 2 {
		t.Errorf("got %d errors for %q, want >= 2", len(se.Errs), se.Name)
	}
	if !strings.Contains(err.Error(), "more semantic error") {
		t.Errorf("multi-error message must carry the count: %q", err.Error())
	}
}

func TestCompileCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := driver.Compile(ctx, driver.Source{Name: "c", Text: goodSrc}, driver.Options{Prelude: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
}

func TestCompileAllPreservesOrderAndFirstError(t *testing.T) {
	srcs := []driver.Source{
		{Name: "a", Text: goodSrc},
		{Name: "b", Text: goodSrc},
		{Name: "c", Text: goodSrc},
	}
	progs, err := driver.CompileAll(context.Background(), srcs, driver.Options{Prelude: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range progs {
		if p.Name != srcs[i].Name {
			t.Errorf("order broken at %d: got %s, want %s", i, p.Name, srcs[i].Name)
		}
	}

	srcs[1].Text = "fun f( {"
	if _, err := driver.CompileAll(context.Background(), srcs, driver.Options{Prelude: true}, 4); err == nil || !strings.Contains(err.Error(), "b") {
		t.Fatalf("expected the error of source b, got %v", err)
	}
}

func TestParallelCheckMatchesSequential(t *testing.T) {
	fn := func(i int) int { return i * i }
	want, _ := driver.ParallelCheck(context.Background(), 100, 1, fn)
	for _, workers := range []int{2, 8, 200} {
		got, fails := driver.ParallelCheck(context.Background(), 100, workers, fn)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: index %d: got %d, want %d", workers, i, got[i], want[i])
			}
			if fails[i] != nil {
				t.Fatalf("workers=%d: index %d: unexpected failure %v", workers, i, fails[i])
			}
		}
	}
	if out, fails := driver.ParallelCheck(context.Background(), 0, 8, fn); len(out) != 0 || len(fails) != 0 {
		t.Errorf("n=0 must return empty slices")
	}
}

func TestParallelCheckContainsPanics(t *testing.T) {
	fn := func(i int) int {
		if i%3 == 0 {
			panic("boom")
		}
		return i * i
	}
	for _, workers := range []int{1, 8} {
		out, fails := driver.ParallelCheck(context.Background(), 10, workers, fn)
		for i := 0; i < 10; i++ {
			if i%3 == 0 {
				if fails[i] == nil || out[i] != 0 {
					t.Fatalf("workers=%d: index %d: panic not contained (fail=%v out=%d)", workers, i, fails[i], out[i])
				}
				if !strings.Contains(fails[i].Error(), "boom") {
					t.Errorf("failure must carry the panic value: %v", fails[i])
				}
			} else if fails[i] != nil || out[i] != i*i {
				t.Fatalf("workers=%d: index %d: healthy slot disturbed (fail=%v out=%d)", workers, i, fails[i], out[i])
			}
		}
	}
}

// TestParallelCheckBoundaryInvariant: the same panic must produce the
// same sanitized stack (and so the same digest) whether its item runs
// inline (one worker) or on a pooled worker goroutine, or crash grouping
// would depend on scheduling. The stack keeps the panicking closure and
// ends at the containment boundary, so the caller's frames never reach
// it.
func TestParallelCheckBoundaryInvariant(t *testing.T) {
	crash := func(i int) int {
		if i == 1 {
			panic("same crash")
		}
		return i
	}
	_, inline := driver.ParallelCheck(context.Background(), 2, 1, crash)
	_, pooled := driver.ParallelCheck(context.Background(), 2, 2, crash)
	if inline[1] == nil || pooled[1] == nil {
		t.Fatalf("missing failure: inline=%v pooled=%v", inline[1], pooled[1])
	}
	if inline[1].Digest() != pooled[1].Digest() {
		t.Errorf("digest differs between inline and pooled execution:\n%s\nvs\n%s",
			inline[1].Stack, pooled[1].Stack)
	}
	if !strings.Contains(inline[1].Stack, "TestParallelCheckBoundaryInvariant") {
		t.Errorf("panicking closure missing from stack:\n%s", inline[1].Stack)
	}
	if strings.Contains(inline[1].Stack, "testing.tRunner") {
		t.Errorf("caller frames below the boundary leaked into stack:\n%s", inline[1].Stack)
	}
}

func TestCompileContainsStagePanics(t *testing.T) {
	for _, stage := range []string{"parse", "sema", "ssa", "pdg"} {
		if err := faultinject.ArmSpec("panic." + stage); err != nil {
			t.Fatal(err)
		}
		_, err := driver.Compile(context.Background(), driver.Source{Name: "inj", Text: goodSrc}, driver.Options{Prelude: true})
		faultinject.Reset()
		var f *failure.UnitFailure
		if !errors.As(err, &f) {
			t.Fatalf("stage %s: expected a contained UnitFailure, got %v", stage, err)
		}
		if f.Unit != "inj" || f.Stage != stage {
			t.Errorf("stage %s: failure names unit %q stage %q", stage, f.Unit, f.Stage)
		}
		if f.Digest() == "" || f.Stack == "" {
			t.Errorf("stage %s: failure must carry a stack and digest", stage)
		}
	}
}

func TestAbsintCrashContained(t *testing.T) {
	p := compile(t, goodSrc, driver.Options{Prelude: true})
	if err := faultinject.ArmSpec("panic.absint"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	if an := p.Absint(); an != nil {
		t.Fatal("crashed tier must read as disabled")
	}
	faultinject.Reset()
	if an := p.Absint(); an != nil {
		t.Fatal("the failed build must not be retried")
	}
	f := p.AbsintFailure()
	if f == nil || f.Stage != "absint" || f.Unit != "test" {
		t.Fatalf("AbsintFailure: %+v", f)
	}
	if p.Oracle() != nil {
		t.Error("oracle must be nil after a contained tier crash")
	}
	if !strings.HasPrefix(p.DOT(), "digraph pdg {") {
		t.Error("DOT must still render after a contained tier crash")
	}
}

func TestParseAbsintMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want driver.AbsintMode
	}{{"on", driver.AbsintOn}, {"intervals", driver.AbsintIntervals}, {"off", driver.AbsintOff}} {
		m, err := driver.ParseAbsintMode(tc.in)
		if err != nil || m != tc.want {
			t.Errorf("%q: got (%v, %v)", tc.in, m, err)
		}
		if m.String() != tc.in {
			t.Errorf("round trip: %q -> %q", tc.in, m.String())
		}
	}
	if _, err := driver.ParseAbsintMode("bogus"); err == nil {
		t.Error("expected error for bogus mode")
	}
}

func TestAbsintModes(t *testing.T) {
	off := compile(t, goodSrc, driver.Options{Prelude: true, Absint: driver.AbsintOff})
	if off.Absint() != nil || off.Oracle() != nil {
		t.Error("AbsintOff must disable the tier and the oracle")
	}
	if !strings.HasPrefix(off.DOT(), "digraph pdg {") {
		t.Error("DOT must render without the tier")
	}

	on := compile(t, goodSrc, driver.Options{Prelude: true})
	if on.AbsintMode() != driver.AbsintOn {
		t.Errorf("default mode: %v", on.AbsintMode())
	}
	if on.Absint() == nil || on.Oracle() == nil {
		t.Fatal("AbsintOn must provide the tier and the oracle")
	}

	// The analysis is built once and shared, even under concurrent use.
	var wg sync.WaitGroup
	results := make([]any, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = any(on.Absint())
		}(i)
	}
	wg.Wait()
	for i := 1; i < 8; i++ {
		if results[i] != results[0] {
			t.Fatal("Absint must return the same cached analysis")
		}
	}

	// driver.Analyze is the one mode → domains mapping. The source has a
	// guarded difference (zone edges) and a parity guard (a stride fact).
	g := compile(t, `
fun f() {
    var n: int = user_input();
    var m: int = user_input();
    if (n % 2 == 1 && n < m) {
        var y: int = n + 2;
        send(y);
    }
}`, driver.Options{Prelude: true}).Graph
	for _, tc := range []struct {
		mode         driver.AbsintMode
		zone, stride bool
	}{
		{driver.AbsintIntervals, false, false},
		{driver.AbsintNoStride, true, false},
		{driver.AbsintOn, true, true},
		{driver.AbsintNoSimplify, true, true},
	} {
		an := driver.Analyze(g, tc.mode)
		if an == nil {
			t.Fatalf("%v: no analysis", tc.mode)
		}
		if got := an.Stats.ZoneEdges > 0; got != tc.zone {
			t.Errorf("%v: zone edges %d, want zone=%v", tc.mode, an.Stats.ZoneEdges, tc.zone)
		}
		if got := an.Stats.StrideFacts > 0; got != tc.stride {
			t.Errorf("%v: stride facts %d, want stride=%v", tc.mode, an.Stats.StrideFacts, tc.stride)
		}
	}
	if driver.Analyze(g, driver.AbsintOff) != nil {
		t.Error("AbsintOff must build no analysis")
	}
}
