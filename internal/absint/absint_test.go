package absint_test

import (
	"context"
	"testing"

	"fusion/internal/absint"
	"fusion/internal/checker"
	"fusion/internal/driver"
	"fusion/internal/pdg"
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

// findNamed returns the invariant of the (unique) value defining the named
// source variable in the named function.
func findNamed(t *testing.T, g *pdg.Graph, a *absint.Analysis, fn, name string) absint.Interval {
	t.Helper()
	f := g.Prog.Funcs[fn]
	if f == nil {
		t.Fatalf("no function %s", fn)
	}
	var out absint.Interval
	found := false
	for _, v := range f.Values {
		if v.Name == name {
			// Last definition wins; single-assignment names have one.
			if iv, ok := a.IntervalOf(v); ok {
				out, found = iv, true
			}
		}
	}
	if !found {
		t.Fatalf("no interval for %s.%s", fn, name)
	}
	return out
}

// --- Interval domain: transfers over-approximate the concrete semantics ---

// concreteBin mirrors interp.binOp / smt.foldBinary for the operators the
// domain models.
func concreteBin(op string, l, r uint32) uint32 {
	b2u := func(b bool) uint32 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case "+":
		return l + r
	case "-":
		return l - r
	case "*":
		return l * r
	case "/":
		if r == 0 {
			return ^uint32(0)
		}
		return l / r
	case "%":
		if r == 0 {
			return l
		}
		return l % r
	case "<":
		return b2u(int32(l) < int32(r))
	case "<=":
		return b2u(int32(l) <= int32(r))
	case "==":
		return b2u(l == r)
	case "&":
		return l & r
	case "|":
		return l | r
	case "^":
		return l ^ r
	default:
		panic("op")
	}
}

func TestTransfersSound(t *testing.T) {
	// A pool of sample values hitting the interesting corners.
	samples := []uint32{0, 1, 2, 3, 5, 13, 99, 100, 255, 256, 1 << 20,
		0x7fffffff, 0x80000000, 0x80000001, ^uint32(0), ^uint32(0) - 4}
	// Intervals covering each pair of samples (hull) plus singletons.
	var ivs []absint.Interval
	for _, s := range samples {
		ivs = append(ivs, absint.Single(s))
	}
	for i := 0; i < len(samples); i++ {
		for j := i + 1; j < len(samples); j += 3 {
			ivs = append(ivs, absint.Single(samples[i]).Join(absint.Single(samples[j])))
		}
	}
	transfers := map[string]func(a, b absint.Interval) absint.Interval{
		"+":  absint.Add,
		"-":  absint.Sub,
		"*":  absint.Mul,
		"/":  absint.UDiv,
		"%":  absint.URem,
		"<":  absint.Slt,
		"<=": absint.Sle,
		"==": absint.Eq,
		"&":  absint.BitAnd,
		"|":  absint.BitOr,
		"^":  absint.BitXor,
	}
	inIv := func(iv absint.Interval, v uint32) bool {
		return iv.Contains(int64(int32(v)))
	}
	for op, tf := range transfers {
		for _, a := range ivs {
			for _, b := range ivs {
				out := tf(a, b)
				// Every concrete pair drawn from the operand intervals must
				// land inside the transfer result.
				for _, x := range samples {
					if !inIv(a, x) {
						continue
					}
					for _, y := range samples {
						if !inIv(b, y) {
							continue
						}
						got := concreteBin(op, x, y)
						if !inIv(out, got) {
							t.Fatalf("%s: %v op %v = %v, but %d %s %d = %d escapes",
								a, op, b, out, int32(x), op, int32(y), int32(got))
						}
					}
				}
			}
		}
	}
}

func TestIntervalLattice(t *testing.T) {
	if !absint.Bottom().IsBottom() {
		t.Error("Bottom not bottom")
	}
	if !absint.Top(32).IsTop() || absint.Top(1) != (absint.Interval{0, 1}) {
		t.Error("Top wrong")
	}
	a := absint.Interval{3, 10}
	if a.Join(absint.Bottom()) != a || absint.Bottom().Join(a) != a {
		t.Error("join with bottom not identity")
	}
	if m := a.Meet(absint.Interval{8, 20}); m != (absint.Interval{8, 10}) {
		t.Errorf("meet: got %v", m)
	}
	if !a.Meet(absint.Interval{11, 20}).IsBottom() {
		t.Error("disjoint meet not bottom")
	}
	if !(absint.Interval{1, 13}).ExcludesZero() || (absint.Interval{-1, 1}).ExcludesZero() {
		t.Error("ExcludesZero wrong")
	}
	if !(absint.Interval{0, 99}).Within(0, 255) || (absint.Interval{-1, 99}).Within(0, 255) {
		t.Error("Within wrong")
	}
}

// --- Whole-program analysis ---

func TestAnalyzeConstantFolding(t *testing.T) {
	g := buildGraph(t, `
fun f(): int {
    var a: int = 5;
    var b: int = a + 2;
    return b * 3;
}`)
	a := absint.Analyze(g)
	if iv := findNamed(t, g, a, "f", "b"); iv != (absint.Interval{7, 7}) {
		t.Errorf("b: got %v, want [7,7]", iv)
	}
	f := g.Prog.Funcs["f"]
	if iv, ok := a.IntervalOf(f.Ret); !ok || iv != (absint.Interval{21, 21}) {
		t.Errorf("ret: got %v", iv)
	}
}

func TestAnalyzeModRange(t *testing.T) {
	g := buildGraph(t, `
fun f() {
    var n: int = user_input();
    var d: int = n % 13 + 1;
    var x: int = 100 / d;
    send(x);
}`)
	a := absint.Analyze(g)
	d := findNamed(t, g, a, "f", "d")
	if !d.ExcludesZero() || !d.Within(1, 13) {
		t.Errorf("d: got %v, want within [1,13]", d)
	}
}

func TestAnalyzeGuardRefinement(t *testing.T) {
	g := buildGraph(t, `
fun f() {
    var n: int = user_input();
    if (n > 10) {
        if (n < 5) {
            var dead: int = n + 1;
            send(dead);
        }
        var live: int = n - 10;
        send(live);
    }
}`)
	a := absint.Analyze(g)
	if iv := findNamed(t, g, a, "f", "dead"); !iv.IsBottom() {
		t.Errorf("dead: got %v, want bottom", iv)
	}
	live := findNamed(t, g, a, "f", "live")
	if live.IsBottom() || live.Lo < 1 {
		t.Errorf("live: got %v, want lower bound >= 1", live)
	}
}

func TestAnalyzeSameOperand(t *testing.T) {
	g := buildGraph(t, `
fun f() {
    var n: int = user_input();
    var z: int = n - n;
    send(z);
}`)
	a := absint.Analyze(g)
	if iv := findNamed(t, g, a, "f", "z"); iv != (absint.Interval{0, 0}) {
		t.Errorf("z: got %v, want [0,0]", iv)
	}
}

func TestAnalyzeInterprocedural(t *testing.T) {
	g := buildGraph(t, `
fun clampish(v: int): int {
    var r: int = v % 10 + 1;
    return r;
}
fun f() {
    var n: int = user_input();
    var d: int = clampish(n);
    var x: int = 100 / d;
    send(x);
}`)
	a := absint.Analyze(g)
	d := findNamed(t, g, a, "f", "d")
	if !d.ExcludesZero() {
		t.Errorf("d: got %v, want nonzero (callee summary)", d)
	}
}

// --- Disjunctive guard facts ---

func TestDeriveDisjunction(t *testing.T) {
	// x < 3 || x < 5 must still bound x (to the weaker disjunct) instead of
	// deriving nothing: each disjunct is derived separately and joined.
	g := buildGraph(t, `
fun f() {
    var n: int = user_input();
    if (n < 3 || n < 5) {
        var y: int = n;
        send(y);
    }
}`)
	a := absint.Analyze(g)
	y := findNamed(t, g, a, "f", "y")
	if y.Hi != 4 {
		t.Errorf("y: got %v, want upper bound 4 (join of <3 and <5)", y)
	}
}

func TestDeriveNegatedConjunction(t *testing.T) {
	// The else branch of n < 3 && n < 5 asserts ¬(a ∧ b) = ¬a ∨ ¬b, the
	// other disjunctive polarity: the join of n >= 3 and n >= 5 is n >= 3.
	g := buildGraph(t, `
fun f() {
    var n: int = user_input();
    if (n < 3 && n < 5) {
        send(n);
    } else {
        var y: int = n;
        send(y);
    }
}`)
	a := absint.Analyze(g)
	y := findNamed(t, g, a, "f", "y")
	if y.Lo != 3 {
		t.Errorf("y: got %v, want lower bound 3 (join of >=3 and >=5)", y)
	}
}

func TestDeriveDisjunctionDeadBranch(t *testing.T) {
	// When one disjunct contradicts the outer guard chain, the other
	// disjunct's facts hold outright.
	g := buildGraph(t, `
fun f() {
    var k: int = user_input();
    if (k < 10) {
        if (k > 20 || k < 5) {
            var y: int = k;
            send(y);
        }
    }
}`)
	a := absint.Analyze(g)
	y := findNamed(t, g, a, "f", "y")
	if y.Hi != 4 {
		t.Errorf("y: got %v, want upper bound 4 (k > 20 is dead under k < 10)", y)
	}
}

// --- Call instantiation budget ---

func TestBoolTopArgumentBurnsNoBudget(t *testing.T) {
	// A boolean argument's [0, 1] is its lattice top: a call whose arguments
	// are all top for their widths carries no information and must answer
	// from the summary without consuming the instantiation budget.
	g := buildGraph(t, `
fun pick(b: bool): int {
    if (b) {
        return 1;
    }
    return 0;
}
fun f() {
    var n: int = user_input();
    var m: int = user_input();
    var q: int = pick(n < m);
    send(q);
}`)
	a := absint.Analyze(g)
	if a.Stats.Instantiations != 0 || a.Stats.CacheHits != 0 {
		t.Errorf("all-top call instantiated: %d instantiations, %d cache hits",
			a.Stats.Instantiations, a.Stats.CacheHits)
	}
	// Full budget reference: a program with no calls at all.
	g0 := buildGraph(t, `
fun f() {
    var n: int = user_input();
    send(n);
}`)
	if want := absint.Analyze(g0).RemainingBudget(); a.RemainingBudget() != want {
		t.Errorf("budget consumed: %d remaining, want %d", a.RemainingBudget(), want)
	}
	// Control: an informative integer argument must still instantiate.
	g2 := buildGraph(t, `
fun idf(x: int): int {
    return x;
}
fun h() {
    var q: int = idf(7);
    send(q);
}`)
	a2 := absint.Analyze(g2)
	if a2.Stats.Instantiations == 0 {
		t.Error("informative call not instantiated: all-top check too eager")
	}
	if iv := findNamed(t, g2, a2, "h", "q"); iv != (absint.Interval{7, 7}) {
		t.Errorf("q: got %v, want [7,7]", iv)
	}
}

// --- Refutation tier ---

// divCandidates enumerates CWE-369 candidates and pairs each with its
// constrained slice.
func divCandidates(t *testing.T, g *pdg.Graph) []*pdg.Slice {
	t.Helper()
	cands := sparse.NewEngine(g).Run(checker.DivByZero())
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	var out []*pdg.Slice
	for _, c := range cands {
		sl := pdg.ComputeSlice(g, []pdg.Path{c.Path})
		c.ApplyConstraint(sl, 0)
		out = append(out, sl)
	}
	return out
}

func TestRefuteModDivisor(t *testing.T) {
	g := buildGraph(t, `
fun f() {
    var n: int = user_input();
    var d: int = n % 13 + 1;
    var x: int = 100 / d;
    send(x);
}`)
	a := absint.Analyze(g)
	for _, sl := range divCandidates(t, g) {
		if refuted, _, _ := a.RefuteSlice(context.Background(), sl); !refuted {
			t.Error("mod-range divisor: want refuted")
		}
	}
}

func TestRefuteGuardContradiction(t *testing.T) {
	g := buildGraph(t, `
fun f() {
    var n: int = user_input();
    if (n > 10) {
        if (n < 5) {
            var x: int = 100 / n;
            send(x);
        }
    }
}`)
	a := absint.Analyze(g)
	for _, sl := range divCandidates(t, g) {
		if refuted, _, _ := a.RefuteSlice(context.Background(), sl); !refuted {
			t.Error("contradictory guards: want refuted")
		}
	}
}

func TestRefuteGuardedDivisor(t *testing.T) {
	g := buildGraph(t, `
fun f() {
    var n: int = user_input();
    if (n > 0) {
        var x: int = 100 / n;
        send(x);
    }
}`)
	a := absint.Analyze(g)
	for _, sl := range divCandidates(t, g) {
		if refuted, _, _ := a.RefuteSlice(context.Background(), sl); !refuted {
			t.Error("positive-guarded divisor: want refuted")
		}
	}
}

func TestNoRefuteFeasible(t *testing.T) {
	g := buildGraph(t, `
fun f() {
    var n: int = user_input();
    var x: int = 100 / n;
    send(x);
}`)
	a := absint.Analyze(g)
	for _, sl := range divCandidates(t, g) {
		if refuted, _, _ := a.RefuteSlice(context.Background(), sl); refuted {
			t.Error("feasible divisor refuted: unsound")
		}
	}
}

func TestRefuteParity(t *testing.T) {
	// 2n + 1 is never zero: intervals cannot see parity, but the
	// congruence tier proves d ≡ 1 (mod 2) — a fact that survives 32-bit
	// wrap — and refutes the query without the zone tier. With the stride
	// domain disabled, absint must stay silent and leave this to the
	// bit-precise pipeline.
	g := buildGraph(t, `
fun f() {
    var n: int = user_input();
    var d: int = n * 2 + 1;
    var x: int = 100 / d;
    send(x);
}`)
	a := absint.Analyze(g)
	noStride := absint.AnalyzeWith(g, absint.Config{DisableStride: true})
	for _, sl := range divCandidates(t, g) {
		refuted, byStride, byZone := a.RefuteSlice(context.Background(), sl)
		if !refuted || !byStride || byZone {
			t.Errorf("parity divisor: got (refuted=%v, byStride=%v, byZone=%v), want (true, true, false)",
				refuted, byStride, byZone)
		}
		if refuted, _, _ := noStride.RefuteSlice(context.Background(), sl); refuted {
			t.Error("parity divisor refuted without the stride domain: intervals+zone cannot prove this")
		}
	}
}

func TestRefuteIndexInBounds(t *testing.T) {
	g := buildGraph(t, `
fun f() {
    var n: int = user_input();
    var i: int = n % 100;
    var x: int = buf_read(i);
    send(x);
}`)
	a := absint.Analyze(g)
	cands := sparse.NewEngine(g).Run(checker.IndexOOB())
	if len(cands) == 0 {
		t.Fatal("no cwe-125 candidates")
	}
	for _, c := range cands {
		sl := pdg.ComputeSlice(g, []pdg.Path{c.Path})
		c.ApplyConstraint(sl, 0)
		if refuted, _, _ := a.RefuteSlice(context.Background(), sl); !refuted {
			t.Error("in-bounds index: want refuted")
		}
		if !a.PrunePath(c.Path, c.Constraints(0)...) {
			t.Error("in-bounds index: want pruned by oracle")
		}
	}
}

func TestNoPruneFeasibleIndex(t *testing.T) {
	g := buildGraph(t, `
fun f() {
    var n: int = user_input();
    var x: int = buf_read(n);
    send(x);
}`)
	a := absint.Analyze(g)
	cands := sparse.NewEngine(g).Run(checker.IndexOOB())
	if len(cands) == 0 {
		t.Fatal("no cwe-125 candidates")
	}
	for _, c := range cands {
		if a.PrunePath(c.Path, c.Constraints(0)...) {
			t.Error("unconstrained index pruned: unsound")
		}
	}
}

func TestOraclePrunesDeadCode(t *testing.T) {
	g := buildGraph(t, `
fun f() {
    var n: int = user_input();
    if (n > 10) {
        if (n < 5) {
            var x: int = 100 / n;
            send(x);
        }
    }
}`)
	a := absint.Analyze(g)
	eng := sparse.NewEngine(g)
	plain := eng.Run(checker.DivByZero())
	if len(plain) == 0 {
		t.Fatal("no candidates without oracle")
	}
	eng2 := sparse.NewEngine(g)
	eng2.Oracle = func(c sparse.Candidate) bool {
		return a.PrunePath(c.Path, c.Constraints(0)...)
	}
	pruned := eng2.Run(checker.DivByZero())
	if len(pruned) != 0 || eng2.Pruned != len(plain) {
		t.Errorf("dead-code candidates: got %d left, %d pruned; want 0 left, %d pruned",
			len(pruned), eng2.Pruned, len(plain))
	}
}
