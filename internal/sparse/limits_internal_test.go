package sparse

import (
	"fmt"
	"strings"
	"testing"

	"fusion/internal/lang"
	"fusion/internal/pdg"
	"fusion/internal/sema"
	"fusion/internal/ssa"
	"fusion/internal/unroll"
)

// DeepChainSrc builds a call chain of the given depth where every level
// calls the level below at two call sites — 2^depth syntactic paths from
// source to sink, the shape that stresses the visited-set (stackKey) dedup
// and the enumeration limits. Exported to the package's external tests.
func DeepChainSrc(depth int) string {
	var b strings.Builder
	b.WriteString("fun leaf(x: int): int { return x + 1; }\n")
	prev := "leaf"
	for i := 0; i < depth; i++ {
		cur := fmt.Sprintf("mid%d", i)
		fmt.Fprintf(&b, "fun %s(x: int): int {\n", cur)
		fmt.Fprintf(&b, "    var a: int = %s(x);\n    var b2: int = %s(a);\n", prev, prev)
		b.WriteString("    return a + b2;\n}\n")
		prev = cur
	}
	fmt.Fprintf(&b, "fun root() {\n    var n: int = user_input();\n")
	fmt.Fprintf(&b, "    var r: int = %s(n);\n    send(r);\n}\n", prev)
	return b.String()
}

// compileGraph runs the front end on src, which may call the three
// externs declared here. The driver and the checker specs import this
// package, so its own tests build both by hand.
func compileGraph(t *testing.T, src string) *pdg.Graph {
	t.Helper()
	prog, err := lang.Parse(`
extern fun deref(p: ptr);
extern fun user_input(): int;
extern fun send(x: int);
` + src)
	if err != nil {
		t.Fatal(err)
	}
	if errs := sema.Check(prog); len(errs) > 0 {
		t.Fatal(errs)
	}
	sp, err := ssa.Build(unroll.Normalize(prog, unroll.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	return pdg.Build(sp)
}

// withLimits runs fn with the enumeration bounds replaced by l.
func withLimits(l enumLimits, fn func()) {
	saved := limits
	defer func() { limits = saved }()
	limits = l
	fn()
}

func TestLimitsRespected(t *testing.T) {
	g := compileGraph(t, `
fun f() {
    var p: ptr = null;
    deref(p);
    deref(p);
    deref(p);
}`)
	spec := &Spec{Name: "null-deref", IsSource: NullSource, SinkCalls: map[string][]int{"deref": nil}}
	l := limits
	l.pathsPerSource = 2
	withLimits(l, func() {
		if cands := NewEngine(g).Run(spec); len(cands) > 2 {
			t.Fatalf("limit ignored: got %d candidates", len(cands))
		}
	})
}

// TestDeepChainLimitsTruncate: on the deep chain (eight paths under the
// default bounds), a tighter per-source path bound truncates to exactly
// that bound, and a call-depth cap below the chain depth finds no
// complete flow but still terminates cleanly.
func TestDeepChainLimitsTruncate(t *testing.T) {
	g := compileGraph(t, DeepChainSrc(8))
	spec := &Spec{
		Name:               "cwe-402",
		IsSource:           ExternCallSource("user_input"),
		SinkCalls:          map[string][]int{"send": nil},
		TaintThroughExtern: true,
	}

	l := limits
	l.pathsPerSource = 3
	withLimits(l, func() {
		if got := len(NewEngine(g).Run(spec)); got != 3 {
			t.Errorf("pathsPerSource=3: got %d candidates", got)
		}
	})

	l = limits
	l.callDepth = 3
	withLimits(l, func() {
		if got := len(NewEngine(g).Run(spec)); got != 0 {
			t.Errorf("callDepth=3: got %d candidates, want 0", got)
		}
	})
}

func TestStackKeyDistinct(t *testing.T) {
	stacks := [][]int{
		{},
		{0},
		{1},
		{1, 2},
		{2, 1},
		{513}, // 0x0201: must differ from {1, 2} despite shared bytes
		{1, 2, 3},
		{65536},
		{1 << 23},
	}
	seen := map[string][]int{}
	for _, s := range stacks {
		k := stackKey(s)
		if prev, dup := seen[k]; dup {
			t.Errorf("stackKey collision: %v and %v -> %q", prev, s, k)
		}
		seen[k] = s
		if k != stackKey(s) {
			t.Errorf("stackKey not deterministic for %v", s)
		}
	}
}
