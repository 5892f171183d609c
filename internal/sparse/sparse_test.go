package sparse_test

import (
	"context"
	"testing"
	"time"

	"fusion/internal/checker"
	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/faultinject"
	"fusion/internal/pdg"
	"fusion/internal/progen"
	"fusion/internal/sat"
	"fusion/internal/sparse"
	"fusion/internal/ssa"
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

func run(t *testing.T, src string, spec *sparse.Spec) []sparse.Candidate {
	t.Helper()
	g := buildGraph(t, src)
	return sparse.NewEngine(g).Run(spec)
}

func TestIntraproceduralFlow(t *testing.T) {
	cands := run(t, `
fun f() {
    var p: ptr = null;
    var q: ptr = p;
    deref(q);
}`, checker.NullDeref())
	if len(cands) != 1 {
		t.Fatalf("got %d candidates, want 1", len(cands))
	}
	if len(cands[0].Path) != 4 { // null const, q copy, ... deref
		// Path: const -> q -> deref is 3 steps plus possible copies; just
		// sanity-check the endpoints.
		t.Logf("path: %s", cands[0].Path)
	}
}

func TestNoFlowNoCandidate(t *testing.T) {
	cands := run(t, `
fun f(x: ptr) {
    var p: ptr = null;
    deref(x);
    load(x);
}`, checker.NullDeref())
	if len(cands) != 0 {
		t.Fatalf("got %d candidates, want 0: %v", len(cands), cands)
	}
}

func TestInterproceduralDownThenUp(t *testing.T) {
	// Null created in callee, returned to caller, dereferenced there.
	cands := run(t, `
fun mk(): ptr {
    var p: ptr = null;
    return p;
}
fun f() {
    var q: ptr = mk();
    deref(q);
}`, checker.NullDeref())
	if len(cands) != 1 {
		t.Fatalf("got %d candidates, want 1", len(cands))
	}
	sawReturn := false
	for _, st := range cands[0].Path {
		if st.Kind == pdg.StepReturn {
			sawReturn = true
		}
	}
	if !sawReturn {
		t.Error("path must cross a return edge")
	}
}

func TestInterproceduralParamFlow(t *testing.T) {
	// Null passed into a callee and dereferenced there.
	cands := run(t, `
fun use(p: ptr) {
    deref(p);
}
fun f() {
    var n: ptr = null;
    use(n);
}`, checker.NullDeref())
	if len(cands) != 1 {
		t.Fatalf("got %d candidates, want 1", len(cands))
	}
	sawCall := false
	for _, st := range cands[0].Path {
		if st.Kind == pdg.StepCall {
			sawCall = true
		}
	}
	if !sawCall {
		t.Error("path must cross a call edge")
	}
}

func TestCFLMatchingPreventsUnrealizablePaths(t *testing.T) {
	// id() is called from two sites; a null entering at site 1 must not
	// exit to site 2's receiver.
	cands := run(t, `
fun id(p: ptr): ptr {
    return p;
}
fun f(x: ptr) {
    var n: ptr = null;
    var a: ptr = id(n);
    var bv: ptr = id(x);
    load(a);
    deref(bv);
}`, checker.NullDeref())
	if len(cands) != 1 {
		t.Fatalf("got %d candidates, want 1 (the load), got: %v", len(cands), cands)
	}
	if cands[0].Sink.Callee != "load" {
		t.Errorf("flow reached the wrong sink %s: unrealizable path accepted", cands[0].Sink.Callee)
	}
}

func TestUnbalancedAscent(t *testing.T) {
	// Null born in a callee must reach sinks in any caller (unbalanced
	// return), in all callers.
	cands := run(t, `
fun mk(): ptr {
    return null;
}
fun f1() {
    deref(mk());
}
fun f2() {
    load(mk());
}`, checker.NullDeref())
	if len(cands) != 2 {
		t.Fatalf("got %d candidates, want 2", len(cands))
	}
}

func TestTaintThroughExtern(t *testing.T) {
	cands := run(t, `
fun f() {
    var s: ptr = gets();
    var h: ptr = fopen(s);
    deref(h);
}`, checker.PathTraversal())
	if len(cands) != 1 {
		t.Fatalf("got %d CWE-23 candidates, want 1", len(cands))
	}
	// Null checker must not taint through externs: fopen's result is not
	// null just because its argument was.
	nulls := run(t, `
fun f() {
    var p: ptr = null;
    var h: ptr = fopen(p);
    deref(h);
}`, checker.NullDeref())
	for _, c := range nulls {
		if c.Sink.Callee == "deref" {
			t.Error("null fact propagated through an extern call")
		}
	}
}

func TestTaintSpecs(t *testing.T) {
	src := `
fun relay(x: int): int {
    var y: int = x;
    return y;
}
fun f() {
    var secret: int = read_secret();
    var v: int = relay(secret);
    send(v);
    var inp: int = user_input();
    var w: int = relay(inp);
    send(w);
}`
	leak := run(t, src, checker.PrivateLeak())
	if len(leak) != 1 {
		t.Fatalf("CWE-402: got %d, want 1", len(leak))
	}
	// user_input -> send is not a CWE-402 flow (send is not a file sink
	// for CWE-23 either).
	trav := run(t, src, checker.PathTraversal())
	if len(trav) != 0 {
		t.Fatalf("CWE-23: got %d, want 0", len(trav))
	}
}

func TestSinkArgPositions(t *testing.T) {
	// Both arguments of sendmsg are sinks; two candidates expected for two
	// tainted arguments (the paper's Figure 6 scenario).
	cands := run(t, `
fun f() {
    var a: ptr = getpass();
    var bv: int = read_secret();
    var c: int = load(a);
    var d: int = bv;
    sendmsg(c, d);
}`, checker.PrivateLeak())
	if len(cands) != 2 {
		t.Fatalf("got %d candidates, want 2 (both sendmsg arguments)", len(cands))
	}
	seen := map[int]bool{}
	for _, c := range cands {
		seen[c.ArgIdx] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("expected both argument positions, got %v", seen)
	}
}

func TestSourcesDeterministic(t *testing.T) {
	g := buildGraph(t, `
fun f() {
    var p: ptr = null;
    var q: ptr = null;
    deref(p);
    deref(q);
}`)
	eng := sparse.NewEngine(g)
	srcs := eng.Sources(checker.NullDeref())
	if len(srcs) != 2 {
		t.Fatalf("sources: got %d, want 2", len(srcs))
	}
	for i := 0; i < 3; i++ {
		again := eng.Sources(checker.NullDeref())
		for j := range srcs {
			if srcs[j] != again[j] {
				t.Fatal("source enumeration not deterministic")
			}
		}
	}
}

func TestDeepChainDedupStableCounts(t *testing.T) {
	g := buildGraph(t, sparse.DeepChainSrc(8))
	spec := checker.PrivateLeak()
	spec.IsSource = sparse.ExternCallSource("user_input")

	// The per-source path bound caps the blow-up and repeated runs are
	// deterministic: same count, same paths.
	var first []string
	for trial := 0; trial < 3; trial++ {
		cands := sparse.NewEngine(g).Run(spec)
		if len(cands) != 8 {
			t.Fatalf("trial %d: got %d candidates, want the per-source bound 8", trial, len(cands))
		}
		var paths []string
		for _, c := range cands {
			paths = append(paths, c.Path.String())
		}
		if trial == 0 {
			first = paths
			continue
		}
		for i := range paths {
			if paths[i] != first[i] {
				t.Fatalf("trial %d: path %d differs:\n  %s\n  %s", trial, i, first[i], paths[i])
			}
		}
	}
}

// TestWorkersMatchSequential: parallel per-source enumeration merges to
// exactly the sequential candidate list (and pruned count), so workers
// never change the analysis result.
func TestWorkersMatchSequential(t *testing.T) {
	src, _, _ := progen.Subjects[2].Build(0.05)
	p, err := driver.Compile(context.Background(), driver.Source{Name: "subject", Text: src}, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := p.Oracle()
	for _, spec := range checker.All() {
		seq := sparse.NewEngine(p.Graph)
		seq.Oracle = oracle
		want := seq.Run(spec)

		par := sparse.NewEngine(p.Graph)
		par.Oracle = oracle
		par.Workers = 8
		got := par.RunContext(context.Background(), spec)

		if len(got) != len(want) {
			t.Fatalf("%s: candidate count: %d vs %d", spec.Name, len(got), len(want))
		}
		for i := range want {
			if got[i].Source != want[i].Source || got[i].Sink != want[i].Sink ||
				got[i].ArgIdx != want[i].ArgIdx || len(got[i].Path) != len(want[i].Path) {
				t.Errorf("%s: candidate %d differs", spec.Name, i)
			}
		}
		if par.Pruned != seq.Pruned {
			t.Errorf("%s: pruned count: %d vs %d", spec.Name, par.Pruned, seq.Pruned)
		}
	}
}

// TestRunContextCancelled: an already-cancelled context yields no
// candidates, promptly, with and without workers.
func TestRunContextCancelled(t *testing.T) {
	src, _, _ := progen.Subjects[2].Build(0.05)
	p, err := driver.Compile(context.Background(), driver.Source{Name: "subject", Text: src}, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		e := sparse.NewEngine(p.Graph)
		e.Workers = workers
		start := time.Now()
		cands := e.RunContext(ctx, checker.NullDeref())
		if len(cands) != 0 {
			t.Errorf("workers=%d: got %d candidates from a cancelled context", workers, len(cands))
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("workers=%d: cancelled enumeration ran %v", workers, elapsed)
		}
	}
}

// TestEnumPanicContained: a forced panic in one source's DFS loses that
// source's candidates but never the run, and the surviving candidate
// list is byte-identical for any worker count.
func TestEnumPanicContained(t *testing.T) {
	src := `
fun f(a: int) {
    var p: ptr = null;
    if (a > 1) {
        deref(p);
    }
    var q: ptr = null;
    if (a > 2) {
        deref(q);
    }
}`
	g := buildGraph(t, src)
	all := sparse.NewEngine(g).Run(checker.NullDeref())
	if len(all) != 2 {
		t.Fatalf("got %d candidates, want 2", len(all))
	}
	target := sparse.SourceLabel(checker.NullDeref(), all[0].Source)

	if err := faultinject.ArmSpec("panic.enum:" + target); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	var base []sparse.Candidate
	for _, workers := range []int{1, 8} {
		e := sparse.NewEngine(g)
		e.Workers = workers
		cands := e.RunContext(context.Background(), checker.NullDeref())
		if len(e.Failures) != 1 {
			t.Fatalf("workers=%d: %d failures, want 1", workers, len(e.Failures))
		}
		f := e.Failures[0]
		if f.Unit != target || f.Stage != "enum" {
			t.Errorf("workers=%d: failure names %q/%q, want %q/enum", workers, f.Unit, f.Stage, target)
		}
		if len(cands) != 1 {
			t.Fatalf("workers=%d: %d surviving candidates, want 1", workers, len(cands))
		}
		if base == nil {
			base = cands
		} else if cands[0].Sink != base[0].Sink || cands[0].Source != base[0].Source {
			t.Errorf("workers=%d: surviving candidate differs from sequential run", workers)
		}
	}
}

// TestSummaryPathsAreWellFormed: paths through callee returns must carry
// CFL-consistent labels — every matched return pops the call it entered
// through — and be decided by the feasibility engine.
func TestSummaryPathsAreWellFormed(t *testing.T) {
	g := buildGraph(t, `
fun dig(p: ptr): ptr { return p; }
fun f(a: int) {
    var n: ptr = null;
    var q: ptr = dig(dig(n));
    if (a > 1) {
        deref(q);
    }
}`)
	cands := sparse.NewEngine(g).Run(checker.NullDeref())
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range cands {
		var stack []int
		for _, st := range c.Path {
			switch st.Kind {
			case pdg.StepCall:
				stack = append(stack, st.Site)
			case pdg.StepReturn:
				if len(stack) > 0 {
					if stack[len(stack)-1] != st.Site {
						t.Fatalf("mismatched return in %s", c.Path)
					}
					stack = stack[:len(stack)-1]
				}
			}
		}
		fus := engines.NewFusion().Check(context.Background(), g, []sparse.Candidate{c})
		if fus[0].Status == sat.Unknown {
			t.Errorf("engine could not decide path %s", c.Path)
		}
	}
}

// TestSummaryDivisorConstraints: the divisor constraint must survive a
// call — it pins the callee's parameter, not a caller vertex.
func TestSummaryDivisorConstraints(t *testing.T) {
	g := buildGraph(t, `
fun divide(d: int): int {
    var x: int = 100 / d;
    return x;
}
fun f() {
    var n: int = user_input();
    var r: int = divide(n * 2 + 1);
    send(r);
}`)
	cands := sparse.NewEngine(g).Run(checker.DivByZero())
	if len(cands) != 1 {
		t.Fatalf("got %d candidates, want 1", len(cands))
	}
	c := cands[0]
	if c.ConstrainStep < 0 || c.ConstrainStep >= len(c.Path) {
		t.Fatalf("bad constraint step %d for path %s", c.ConstrainStep, c.Path)
	}
	if c.Path[c.ConstrainStep].V.Op != ssa.OpParam {
		t.Errorf("constrained vertex is %s, want the divisor", c.Path[c.ConstrainStep].V.Op)
	}
	// The odd divisor makes the flow infeasible.
	fus := engines.NewFusion().Check(context.Background(), g, cands)
	if fus[0].Status != sat.Unsat {
		t.Errorf("odd divisor through a call: got %s, want unsat", fus[0].Status)
	}
}

// TestSummaryDynBoundConstraints: a dynamically-bounded index sink
// (buf_read_n) must carry the ConstraintOutOfBoundsDyn payload naming
// both arguments — a missing payload turns the query into "escapes
// [0, 0)", a guaranteed false positive.
func TestSummaryDynBoundConstraints(t *testing.T) {
	g := buildGraph(t, `
fun f() {
    var i: int = user_input();
    var m: int = user_input();
    if (0 <= i && i < m) {
        var q: int = buf_read_n(i, m);
        send(q);
    }
}`)
	cands := sparse.NewEngine(g).Run(checker.IndexOOB())
	if len(cands) != 1 {
		t.Fatalf("got %d candidates, want 1", len(cands))
	}
	c := cands[0]
	if c.ConstrainKind != pdg.ConstraintOutOfBoundsDyn {
		t.Fatalf("constraint kind = %v, want ConstraintOutOfBoundsDyn", c.ConstrainKind)
	}
	if c.ConstrainArg != 0 || c.ConstrainBoundArg != 1 {
		t.Errorf("constraint args = (%d, %d), want (0, 1)", c.ConstrainArg, c.ConstrainBoundArg)
	}
	// The guard proves 0 <= i < m, so the query must be refuted.
	fus := engines.NewFusion().Check(context.Background(), g, cands)
	if fus[0].Status != sat.Unsat {
		t.Errorf("fully guarded dynamic-bound access: got %s, want unsat", fus[0].Status)
	}
}
