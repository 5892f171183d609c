package fusioncore_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"fusion/internal/checker"
	"fusion/internal/cond"
	"fusion/internal/driver"
	"fusion/internal/fusioncore"
	"fusion/internal/pdg"
	"fusion/internal/sat"
	"fusion/internal/smt"
	"fusion/internal/solver"
	"fusion/internal/sparse"
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

// compareEngines checks the fused solver against the eager translation on
// every candidate of a spec and returns the fused results.
func compareEngines(t *testing.T, src string, spec *sparse.Spec) []fusioncore.Result {
	t.Helper()
	g := buildGraph(t, src)
	cands := sparse.NewEngine(g).Run(spec)
	if len(cands) == 0 {
		t.Fatal("no candidates found")
	}
	var out []fusioncore.Result
	for _, c := range cands {
		eb := smt.NewBuilder()
		sl := pdg.ComputeSlice(g, []pdg.Path{c.Path})
		eager := solver.Solve(eb, cond.Translate(eb, sl).Phi, solver.Options{})

		fb := smt.NewBuilder()
		fused := fusioncore.Solve(context.Background(), fb, g, []pdg.Path{c.Path}, fusioncore.Options{})
		if fused.Status != eager.Status {
			t.Errorf("engine disagreement on %s: fused=%s eager=%s",
				c.Path, fused.Status, eager.Status)
		}
		out = append(out, fused)
	}
	return out
}

const fig1Src = `
fun bar(x: int): int {
    var y: int = x * 2;
    var z: int = y;
    return z;
}

fun foo(a: int, b: int) {
    var p: ptr = null;
    var c: int = bar(a);
    var d: int = bar(b);
    if (c < d) {
        deref(p);
    }
}
`

func TestFigure1QuickPath(t *testing.T) {
	res := compareEngines(t, fig1Src, checker.NullDeref())
	if res[0].Status != sat.Sat {
		t.Fatalf("got %s, want sat", res[0].Status)
	}
	// Observe Algorithm 6 itself: with probing off, the raw-residual graph
	// probe no longer decides this satisfiable instance first, and
	// preprocessing alone must decide the Figure 1 condition (the paper's
	// §2 claim).
	g := buildGraph(t, fig1Src)
	cands := sparse.NewEngine(g).Run(checker.NullDeref())
	r := fusioncore.Solve(context.Background(), smt.NewBuilder(), g, []pdg.Path{cands[0].Path},
		fusioncore.Options{Solver: solver.Options{NoProbe: true}})
	if r.Status != sat.Sat || !r.Preprocessed {
		t.Fatalf("without probing, preprocessing should decide sat: %+v", r.Result)
	}
	// bar collapses to ret = 2x, so both call edges are quick paths and
	// bar is never cloned: only foo's root instance materializes.
	if r.QuickPaths != 2 {
		t.Errorf("quick paths: got %d, want 2", r.QuickPaths)
	}
	if r.Clones != 1 {
		t.Errorf("clones: got %d, want 1 (foo only)", r.Clones)
	}
}

func TestFigure1Unoptimized(t *testing.T) {
	g := buildGraph(t, fig1Src)
	cands := sparse.NewEngine(g).Run(checker.NullDeref())
	b := smt.NewBuilder()
	r := fusioncore.Solve(context.Background(), b, g, []pdg.Path{cands[0].Path}, fusioncore.Options{Unoptimized: true})
	if r.Status != sat.Sat {
		t.Fatalf("algorithm 4: got %s, want sat", r.Status)
	}
	if r.Clones != 3 {
		t.Errorf("algorithm 4 clones: got %d, want 3", r.Clones)
	}
}

func TestEngineAgreementScenarios(t *testing.T) {
	cases := []struct {
		name string
		src  string
		spec *sparse.Spec
		want sat.Status
	}{
		{"straight-line", `
fun f() {
    var p: ptr = null;
    deref(p);
}`, checker.NullDeref(), sat.Sat},
		{"contradictory-guards", `
fun f(a: int) {
    var p: ptr = null;
    if (a > 0) {
        if (a < 0) {
            deref(p);
        }
    }
}`, checker.NullDeref(), sat.Unsat},
		{"constant-guard", `
fun f() {
    var x: int = 1;
    var p: ptr = null;
    if (x == 2) {
        deref(p);
    }
}`, checker.NullDeref(), sat.Unsat},
		{"cross-function-contradiction", `
fun pick(v: int, p: ptr, q: ptr): ptr {
    var r: ptr = q;
    if (v > 0) {
        r = p;
    }
    return r;
}
fun f(v: int, q: ptr) {
    var n: ptr = null;
    var got: ptr = pick(v, n, q);
    if (v < 0) {
        deref(got);
    }
}`, checker.NullDeref(), sat.Unsat},
		{"guarded-call-edge", `
fun hold(p: ptr): ptr {
    return p;
}
fun f(a: int, q: ptr) {
    var n: ptr = null;
    var r: ptr = q;
    if (a > 0) {
        r = hold(n);
    }
    if (a < 0) {
        deref(r);
    }
}`, checker.NullDeref(), sat.Unsat},
		{"taint-feasible", `
fun f(a: int) {
    var s: int = read_secret();
    if (a * 3 == 9) {
        send(s);
    }
}`, checker.PrivateLeak(), sat.Sat},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := compareEngines(t, c.src, c.spec)
			for _, r := range res {
				if r.Status != c.want {
					t.Errorf("got %s, want %s", r.Status, c.want)
				}
			}
		})
	}
}

func TestDeepCallChainStaysLinear(t *testing.T) {
	// f0 -> f1 -> ... -> f5, each called twice: eager cloning is
	// exponential (2^5 instances of f5), quick paths collapse everything.
	src := `
fun f5(x: int): int { return x + 1; }
fun f4(x: int): int { return f5(x) + f5(x + 1); }
fun f3(x: int): int { return f4(x) + f4(x + 1); }
fun f2(x: int): int { return f3(x) + f3(x + 1); }
fun f1(x: int): int { return f2(x) + f2(x + 1); }
fun f0(a: int) {
    var p: ptr = null;
    var r: int = f1(a);
    if (r > 0) {
        deref(p);
    }
}
`
	g := buildGraph(t, src)
	cands := sparse.NewEngine(g).Run(checker.NullDeref())
	if len(cands) != 1 {
		t.Fatalf("got %d candidates, want 1", len(cands))
	}

	eb := smt.NewBuilder()
	sl := pdg.ComputeSlice(g, []pdg.Path{cands[0].Path})
	eager := cond.Translate(eb, sl)
	if eager.Clones < 31 { // 1 + 2 + 4 + 8 + 16 at least
		t.Fatalf("eager cloning should be exponential, got %d clones", eager.Clones)
	}

	fb := smt.NewBuilder()
	fused := fusioncore.Solve(context.Background(), fb, g, []pdg.Path{cands[0].Path},
		fusioncore.Options{Solver: solver.Options{NoProbe: true}})
	if fused.Status != sat.Sat {
		t.Fatalf("fused: got %s, want sat", fused.Status)
	}
	if fused.Clones > 2 {
		t.Errorf("fused clones: got %d, want <= 2 (quick paths collapse the chain)", fused.Clones)
	}
	if fb.NumTerms() >= eb.NumTerms() {
		t.Errorf("fused built %d terms, eager %d: fusion should be smaller",
			fb.NumTerms(), eb.NumTerms())
	}
}

func TestAblationFlags(t *testing.T) {
	g := buildGraph(t, fig1Src)
	cands := sparse.NewEngine(g).Run(checker.NullDeref())
	path := []pdg.Path{cands[0].Path}

	noQuick := fusioncore.Solve(context.Background(), smt.NewBuilder(), g, path, fusioncore.Options{DisableQuickPaths: true})
	if noQuick.Status != sat.Sat {
		t.Errorf("no-quick-paths: got %s, want sat", noQuick.Status)
	}
	if noQuick.QuickPaths != 0 {
		t.Errorf("no-quick-paths used %d quick paths", noQuick.QuickPaths)
	}
	if noQuick.Clones <= 1 {
		t.Errorf("without quick paths bar must be cloned: %d clones", noQuick.Clones)
	}

	noLocal := fusioncore.Solve(context.Background(), smt.NewBuilder(), g, path, fusioncore.Options{DisableLocalPreprocess: true})
	if noLocal.Status != sat.Sat {
		t.Errorf("no-local-preprocess: got %s, want sat", noLocal.Status)
	}
}

func TestMultiPathJointFeasibility(t *testing.T) {
	src := `
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
}`
	g := buildGraph(t, src)
	cands := sparse.NewEngine(g).Run(checker.PrivateLeak())
	if len(cands) != 2 {
		t.Fatalf("got %d candidates, want 2", len(cands))
	}
	joint := fusioncore.Solve(context.Background(), smt.NewBuilder(), g,
		[]pdg.Path{cands[0].Path, cands[1].Path}, fusioncore.Options{})
	if joint.Status != sat.Unsat {
		t.Errorf("joint flows: got %s, want unsat", joint.Status)
	}
}

// TestQuickPathWithForcedInstance is a regression test: when a path dives
// into a callee that is also quick-pathed for its return value, the callee
// instance's parameter links must still bind to defined actuals. The
// divisor here is r1*2+1 (odd) and must be refuted even though divide's
// return form crosses the first call edge as a quick path.
func TestQuickPathWithForcedInstance(t *testing.T) {
	g := buildGraph(t, `
fun divide(d: int): int {
    var x: int = 100 / d;
    return x;
}
fun f() {
    var n: int = user_input();
    var r1: int = divide(n);
    var r2: int = divide(r1 * 2 + 1);
    send(r2);
}`)
	cands := sparse.NewEngine(g).Run(checker.DivByZero())
	var sawOdd, sawFree bool
	for _, c := range cands {
		b := smt.NewBuilder()
		opts := fusioncore.Options{}
		if c.ConstrainStep >= 0 {
			opts.Constraints = []pdg.ValueConstraint{{Path: 0, Step: c.ConstrainStep, Value: c.ConstrainValue}}
		}
		r := fusioncore.Solve(context.Background(), b, g, []pdg.Path{c.Path}, opts)
		// The flow into the second call's divisor is odd: must be unsat.
		// The flow into the first call's divisor is free: must be sat.
		crossings := 0
		for _, st := range c.Path {
			if st.Kind == pdg.StepCall || st.Kind == pdg.StepReturn {
				crossings++
			}
		}
		if crossings >= 3 { // n -> ret -> r1 -> second call
			sawOdd = true
			if r.Status != sat.Unsat {
				t.Errorf("odd divisor through quick-pathed call: got %s, want unsat (path %s)", r.Status, c.Path)
			}
		} else {
			sawFree = true
			if r.Status != sat.Sat {
				t.Errorf("free divisor: got %s, want sat (path %s)", r.Status, c.Path)
			}
		}
	}
	if !sawOdd || !sawFree {
		t.Fatalf("expected both flows; candidates: %d", len(cands))
	}
}

// safeDivSrc divides by n % 13 + 1, which is never zero: the graph probe
// finds no model for its zero-divisor query, and the interval tier
// refutes it.
const safeDivSrc = `
fun f() {
    var n: int = user_input();
    var d: int = n % 13 + 1;
    var q: int = n / d;
    send(q);
}
`

// TestFailedProbeTimeKept: the graph probe runs before the refuter, and a
// failed probe's time stays in ProbeTime whether the refuter or the heap
// bound ends the solve.
func TestFailedProbeTimeKept(t *testing.T) {
	g := buildGraph(t, safeDivSrc)
	cands := sparse.NewEngine(g).Run(checker.DivByZero())
	if len(cands) != 1 {
		t.Fatalf("%d candidates, want 1", len(cands))
	}
	c := cands[0]
	path := []pdg.Path{c.Path}
	an := driver.Analyze(g, driver.AbsintOn)

	refuted := fusioncore.Solve(context.Background(), smt.NewBuilder(), g, path,
		fusioncore.Options{Absint: an, Constraints: c.Constraints(0)})
	if refuted.Status != sat.Unsat || !refuted.DecidedByAbsint {
		t.Fatalf("got %s (absint %t), want unsat by absint", refuted.Status, refuted.DecidedByAbsint)
	}
	if refuted.ProbeTime <= 0 || refuted.RefuteTime <= 0 {
		t.Errorf("refuted: ProbeTime %v, RefuteTime %v, want both positive", refuted.ProbeTime, refuted.RefuteTime)
	}

	exhausted := fusioncore.Solve(context.Background(), smt.NewBuilder(), g, path,
		fusioncore.Options{MaxHeapDelta: 1, Constraints: c.Constraints(0)})
	if exhausted.Status != sat.Unknown || !exhausted.Exhausted {
		t.Fatalf("got %s (exhausted %t), want unknown after heap exhaustion", exhausted.Status, exhausted.Exhausted)
	}
	if exhausted.ProbeTime <= 0 {
		t.Errorf("exhausted: ProbeTime %v, want the failed graph probe's time", exhausted.ProbeTime)
	}
}

// doublingChainSrc is a call chain of the given depth in which every f_i
// calls f_{i+1} twice: eager cloning needs 2^depth instances of the
// deepest function, while quick paths collapse the chain.
func doublingChainSrc(depth int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fun f%d(x: int): int { return x + 1; }\n", depth)
	for i := depth - 1; i >= 1; i-- {
		fmt.Fprintf(&sb, "fun f%d(x: int): int { return f%d(x) + f%d(x + 1); }\n", i, i+1, i+1)
	}
	sb.WriteString(`fun f0(a: int) {
    var p: ptr = null;
    var r: int = f1(a);
    if (r > 0) {
        deref(p);
    }
}
`)
	return sb.String()
}

// TestGraphProbeBoundedOnDeepChains: the graph probe's bound is checked
// while its program is emitted, so on a doubling call chain the probe
// stage allocates about as much at depth 18 as at depth 14, where
// enumerating every context first would grow 16-fold. Solve still
// decides the candidate sat through quick paths.
func TestGraphProbeBoundedOnDeepChains(t *testing.T) {
	stage := func(depth int) float64 {
		g := buildGraph(t, doublingChainSrc(depth))
		cands := sparse.NewEngine(g).Run(checker.NullDeref())
		if len(cands) != 1 {
			t.Fatalf("depth %d: %d candidates, want 1", depth, len(cands))
		}
		paths := []pdg.Path{cands[0].Path}
		r := fusioncore.Solve(context.Background(), smt.NewBuilder(), g, paths, fusioncore.Options{})
		if r.Status != sat.Sat || r.QuickPaths == 0 {
			t.Errorf("depth %d: got %s with %d quick paths, want sat via quick paths", depth, r.Status, r.QuickPaths)
		}
		sl := pdg.ComputeSlice(g, paths)
		return testing.AllocsPerRun(2, func() { fusioncore.GraphProbe(context.Background(), sl) })
	}
	shallow, deep := stage(14), stage(18)
	t.Logf("graph-probe stage: %.0f allocs at depth 14, %.0f at depth 18", shallow, deep)
	if deep > 1.5*shallow {
		t.Errorf("graph-probe stage: %.0f allocs at depth 18, want at most 1.5x the %.0f at depth 14", deep, shallow)
	}
}
