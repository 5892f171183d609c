package engines_test

import (
	"context"
	"testing"
	"time"

	"fusion/internal/checker"
	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/fusioncore"
	"fusion/internal/pdg"
	"fusion/internal/sat"
	"fusion/internal/sparse"
	"fusion/internal/telemetry"
)

func buildGraph(t *testing.T, src string) *pdg.Graph {
	t.Helper()
	p, err := driver.Compile(context.Background(), driver.Source{Name: "test", Text: src},
		driver.Options{Prelude: true})
	if err != nil {
		t.Fatal(err)
	}
	return p.Graph
}

const mixedSrc = `
fun scale(x: int): int {
    var y: int = x * 2;
    return y;
}
fun f(a: int, b: int) {
    var p: ptr = null;
    var c: int = scale(a);
    var d: int = scale(b);
    if (c < d) {
        deref(p);       // feasible
    }
    var q: ptr = null;
    if (a > 10) {
        if (a < 5) {
            deref(q);   // infeasible
        }
    }
}
`

func candidates(t *testing.T, g *pdg.Graph) []sparse.Candidate {
	t.Helper()
	cands := sparse.NewEngine(g).Run(checker.NullDeref())
	if len(cands) != 2 {
		t.Fatalf("got %d candidates, want 2", len(cands))
	}
	return cands
}

func countStatus(vs []engines.Verdict, st sat.Status) int {
	n := 0
	for _, v := range vs {
		if v.Status == st {
			n++
		}
	}
	return n
}

func TestEngineNames(t *testing.T) {
	want := map[string]bool{
		"fusion": true, "pinpoint": true, "pinpoint+qe": true,
		"pinpoint+lfs": true, "pinpoint+hfs": true, "pinpoint+ar": true,
		"infer": true,
	}
	for _, e := range engines.All() {
		if !want[e.Name()] {
			t.Errorf("unexpected engine name %q", e.Name())
		}
		delete(want, e.Name())
	}
	if len(want) != 0 {
		t.Errorf("missing engines: %v", want)
	}
}

func TestPathSensitiveEnginesAgree(t *testing.T) {
	g := buildGraph(t, mixedSrc)
	cands := candidates(t, g)
	for _, eng := range []engines.Engine{
		engines.NewFusion(),
		engines.NewPinpoint(engines.Plain),
		engines.NewPinpoint(engines.LFS),
		engines.NewPinpoint(engines.AR),
	} {
		vs := eng.Check(context.Background(), g, cands)
		if got := countStatus(vs, sat.Sat); got != 1 {
			t.Errorf("%s: reported %d bugs, want 1", eng.Name(), got)
		}
		if got := countStatus(vs, sat.Unsat); got != 1 {
			t.Errorf("%s: excluded %d flows, want 1", eng.Name(), got)
		}
	}
}

func TestInferIsPathInsensitive(t *testing.T) {
	g := buildGraph(t, mixedSrc)
	cands := candidates(t, g)
	vs := engines.NewInfer().Check(context.Background(), g, cands)
	if got := countStatus(vs, sat.Sat); got != 2 {
		t.Errorf("infer reported %d, want 2 (no feasibility filtering)", got)
	}
	inf := engines.NewInfer()
	inf.Check(context.Background(), g, cands)
	if inf.ConditionBytes() <= 0 {
		t.Error("infer must account for its spec tables")
	}
}

func TestInferMissesDeepFlows(t *testing.T) {
	// A null threaded through four call levels exceeds the compositional
	// summary depth.
	g := buildGraph(t, `
fun l1(p: ptr): ptr { return p; }
fun l2(p: ptr): ptr { return l1(p); }
fun l3(p: ptr): ptr { return l2(p); }
fun f() {
    var n: ptr = null;
    deref(l3(n));
}`)
	cands := sparse.NewEngine(g).Run(checker.NullDeref())
	if len(cands) != 1 {
		t.Fatalf("got %d candidates, want 1", len(cands))
	}
	vs := engines.NewInfer().Check(context.Background(), g, cands)
	if vs[0].Status != sat.Unsat {
		t.Error("deep flow should be missed by the compositional engine")
	}
	// The path-sensitive engines do find it.
	fs := engines.NewFusion().Check(context.Background(), g, cands)
	if fs[0].Status != sat.Sat {
		t.Errorf("fusion: got %s, want sat", fs[0].Status)
	}
}

func TestPinpointCacheGrows(t *testing.T) {
	g := buildGraph(t, mixedSrc)
	cands := candidates(t, g)
	eng := engines.NewPinpoint(engines.Plain)
	if eng.ConditionBytes() != 0 {
		t.Error("fresh engine must have an empty cache")
	}
	eng.Check(context.Background(), g, cands)
	after1 := eng.ConditionBytes()
	if after1 <= 0 {
		t.Fatal("cache did not grow")
	}
	// Re-checking the same candidates reuses the cache (hash-consing):
	// little growth.
	eng.Check(context.Background(), g, cands)
	after2 := eng.ConditionBytes()
	if after2 < after1 {
		t.Error("cache shrank")
	}
	if float64(after2) > 1.5*float64(after1) {
		t.Errorf("cache should be reused on identical queries: %d -> %d", after1, after2)
	}
}

func TestFusionPeakMemorySmallerThanPinpoint(t *testing.T) {
	g := buildGraph(t, mixedSrc)
	cands := candidates(t, g)
	fus := engines.NewFusion()
	fus.Check(context.Background(), g, cands)
	pin := engines.NewPinpoint(engines.Plain)
	pin.Check(context.Background(), g, cands)
	if fus.ConditionBytes() > pin.ConditionBytes() {
		t.Errorf("fusion retained %d bytes, pinpoint %d: fused design should be smaller",
			fus.ConditionBytes(), pin.ConditionBytes())
	}
}

func TestQEVariantStillCorrect(t *testing.T) {
	g := buildGraph(t, `
fun f(a: int) {
    var p: ptr = null;
    if (a > 0) {
        if (a < 0) {
            deref(p);
        }
    }
}`)
	cands := sparse.NewEngine(g).Run(checker.NullDeref())
	vs := engines.NewPinpoint(engines.QE).Check(context.Background(), g, cands)
	if vs[0].Status == sat.Sat {
		t.Error("QE variant reported an infeasible flow")
	}
}

func TestHFSVariantCorrect(t *testing.T) {
	g := buildGraph(t, mixedSrc)
	cands := candidates(t, g)
	vs := engines.NewPinpoint(engines.HFS).Check(context.Background(), g, cands)
	if got := countStatus(vs, sat.Sat); got != 1 {
		t.Errorf("HFS: reported %d bugs, want 1", got)
	}
}

func TestFusionAblationOptionsStillSound(t *testing.T) {
	g := buildGraph(t, mixedSrc)
	cands := candidates(t, g)
	for _, opts := range []fusioncore.Options{
		{DisableQuickPaths: true},
		{DisableLocalPreprocess: true},
		{Unoptimized: true},
		{DisableQuickPaths: true, DisableLocalPreprocess: true},
	} {
		eng := engines.NewFusion()
		eng.Opts = opts
		vs := eng.Check(context.Background(), g, cands)
		if got := countStatus(vs, sat.Sat); got != 1 {
			t.Errorf("opts %+v: reported %d bugs, want 1", opts, got)
		}
	}
}

// TestARRefinesThroughDepth: the contradiction is only visible two call
// levels down (g -> h, with h returning an even number), so the
// abstraction-refinement loop must deepen at least twice before it can
// refute.
func TestARRefinesThroughDepth(t *testing.T) {
	g := buildGraph(t, `
fun h(x: int): int {
    var y: int = x * 2;
    return y;
}
fun mid(x: int): int {
    var r: int = h(x);
    return r;
}
fun f(a: int) {
    var p: ptr = null;
    var r: int = mid(a);
    if (r == 7) {
        deref(p);
    }
}`)
	cands := sparse.NewEngine(g).Run(checker.NullDeref())
	if len(cands) != 1 {
		t.Fatalf("got %d candidates, want 1", len(cands))
	}
	ar := engines.NewPinpoint(engines.AR)
	vs := ar.Check(context.Background(), g, cands)
	if vs[0].Status != sat.Unsat {
		t.Errorf("AR: got %s, want unsat (2x is even, never 7)", vs[0].Status)
	}
	// The full engines agree.
	if engines.NewFusion().Check(context.Background(), g, cands)[0].Status != sat.Unsat {
		t.Error("fusion disagrees")
	}
}

// TestCheckCancelledReturnsUnknownPartials: every engine honors a
// cancelled context by returning one Unknown verdict per candidate, in
// input order, promptly.
func TestCheckCancelledReturnsUnknownPartials(t *testing.T) {
	g := buildGraph(t, mixedSrc)
	cands := sparse.NewEngine(g).Run(checker.NullDeref())
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range engines.All() {
		start := time.Now()
		vs := eng.Check(ctx, g, cands)
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("%s: cancelled Check ran %v", eng.Name(), elapsed)
		}
		if len(vs) != len(cands) {
			t.Fatalf("%s: got %d verdicts for %d candidates", eng.Name(), len(vs), len(cands))
		}
		for i, v := range vs {
			if v.Status != sat.Unknown {
				t.Errorf("%s: verdict %d is %s, want unknown", eng.Name(), i, v.Status)
			}
			if v.Cand.Sink != cands[i].Sink {
				t.Errorf("%s: verdict %d lost its candidate", eng.Name(), i)
			}
		}
	}
}

// TestSortVerdictsStable: verdicts order by sink then source position
// regardless of input order.
func TestSortVerdictsStable(t *testing.T) {
	g := buildGraph(t, mixedSrc)
	cands := sparse.NewEngine(g).Run(checker.NullDeref())
	vs := engines.NewFusion().Check(context.Background(), g, cands)
	rev := make([]engines.Verdict, len(vs))
	for i, v := range vs {
		rev[len(vs)-1-i] = v
	}
	engines.SortVerdicts(vs)
	engines.SortVerdicts(rev)
	for i := range vs {
		if vs[i].Cand.Sink != rev[i].Cand.Sink || vs[i].Cand.Source != rev[i].Cand.Source {
			t.Fatalf("sort not canonical at %d", i)
		}
	}
}

// TestFusionRecordsSliceAndRefuteTimes: a traced Fusion check attributes
// the slice computation and the abstract refuter their own wall keys, so
// they are not lost in the unattributed remainder of the solve.
func TestFusionRecordsSliceAndRefuteTimes(t *testing.T) {
	g := buildGraph(t, mixedSrc)
	cands := candidates(t, g)
	eng := engines.NewFusion()
	eng.Opts.Absint = driver.Analyze(g, driver.AbsintOn)
	eng.Telemetry = telemetry.New()
	eng.Check(context.Background(), g, cands)
	wall := eng.Telemetry.Snapshot().WallNS
	for _, key := range []string{"solve.slice", "solve.refute"} {
		if ns, ok := wall[key]; !ok || ns <= 0 {
			t.Errorf("wall[%q] = %d (recorded %t), want a positive time", key, ns, ok)
		}
	}
}

// TestPinpointRecordsTranslateTime: a traced Pinpoint check attributes
// the condition's translation its own wall key, both for the one-shot
// translation and for abstraction refinement's depth-bounded ones.
func TestPinpointRecordsTranslateTime(t *testing.T) {
	g := buildGraph(t, mixedSrc)
	cands := candidates(t, g)
	for _, v := range []engines.Variant{engines.Plain, engines.AR} {
		eng := engines.NewPinpoint(v)
		eng.Telemetry = telemetry.New()
		eng.Check(context.Background(), g, cands)
		if ns, ok := eng.Telemetry.Snapshot().WallNS["solve.translate"]; !ok || ns <= 0 {
			t.Errorf("%s: wall[solve.translate] = %d (recorded %t), want a positive time", eng.Name(), ns, ok)
		}
	}
}
