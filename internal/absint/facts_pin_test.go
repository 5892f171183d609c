package absint_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"
	"testing"

	"fusion/internal/absint"
	"fusion/internal/checker"
	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/pdg"
	"fusion/internal/progen"
	"fusion/internal/sparse"
	"fusion/internal/ssa"
)

// factsPinScale is the progen scale the pinned dump is taken at.
const factsPinScale = 0.002

// factsPinSHA256 is the SHA-256 of the per-vertex fact dump of every
// progen subject at factsPinScale under AbsintOn and AbsintNoStride. A
// change that alters the tier's precision on purpose must update it and
// say so; any other change must leave it alone.
const factsPinSHA256 = "ffcb8cc4a8a9b497d4ee181bddecca2adc29664b72a62f3940b65ac74c3fd602"

// dumpFacts writes one line per vertex of p: subject, function, vertex
// ID, interval, stride and the sorted zone facts under the vertex's guard
// environment.
func dumpFacts(w io.Writer, subject string, p *ssa.Program, a *absint.Analysis) {
	for _, f := range p.Order {
		for _, v := range f.Values {
			iv, ok := a.IntervalOf(v)
			ivs := "-"
			if ok {
				ivs = fmt.Sprintf("%d,%d", iv.Lo, iv.Hi)
			}
			st, ok := a.StrideOf(v)
			sts := "-"
			if ok {
				sts = fmt.Sprintf("%d,%d", st.S, st.B)
			}
			var zone []string
			for _, d := range a.ZoneFacts(v) {
				zone = append(zone, factEnd(d.X)+"-"+factEnd(d.Y)+"<="+strconv.FormatInt(d.C, 10))
			}
			sort.Strings(zone)
			fmt.Fprintf(w, "%s %s %d %s %s %v\n", subject, f.Name, v.ID, ivs, sts, zone)
		}
	}
}

// factEnd names a difference-bound endpoint; nil is the zero node.
func factEnd(x *ssa.Value) string {
	if x == nil {
		return "0"
	}
	return "v" + strconv.Itoa(x.ID)
}

// compileSubject builds one progen subject at the given scale.
func compileSubject(t *testing.T, info progen.Subject, scale float64) *driver.Program {
	t.Helper()
	src, _, _ := info.Build(scale)
	pr, err := driver.Compile(context.Background(), driver.Source{Name: info.Name, Text: src}, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// factsDigest dumps every subject's facts at factsPinScale under both
// modes and returns the dump's SHA-256.
func factsDigest(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	for _, info := range progen.Subjects {
		pr := compileSubject(t, info, factsPinScale)
		for _, m := range []driver.AbsintMode{driver.AbsintOn, driver.AbsintNoStride} {
			fmt.Fprintf(h, "# %s %s\n", info.Name, m)
			dumpFacts(h, info.Name, pr.SSA, driver.Analyze(pr.Graph, m))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAnalysisFactsPinned pins the tier's per-vertex facts — intervals,
// strides and zone facts — across the whole progen corpus, so a change
// meant to alter only the analysis' cost cannot silently alter what it
// proves.
func TestAnalysisFactsPinned(t *testing.T) {
	if got := factsDigest(t); got != factsPinSHA256 {
		t.Fatalf("facts digest at scale %g = %s, pinned %s", factsPinScale, got, factsPinSHA256)
	}
}

// budgetPinScale is the scale of the second facts pin. At it, v8's
// instantiation passes spend the whole evalBudget, so which call sites
// get a sharper instantiated result than the top-parameter summary
// depends on the order in which the passes run; factsPinScale never
// reaches the budget.
const budgetPinScale = 0.01

// budgetFactsPinSHA256 is the SHA-256 of v8's per-vertex fact dump at
// budgetPinScale under AbsintOn. Like factsPinSHA256, only a change that
// alters the tier's precision on purpose may update it.
const budgetFactsPinSHA256 = "1ebb681884dea18c8a1321d2372ca96e00a23dd4840eb859237940ffda78f03c"

// TestAnalysisFactsPinnedBudgetSpent pins the facts of a subject whose
// record pass runs out of instantiation budget, so a change to how the
// instantiation passes are ordered or reuse their state cannot silently
// move the budget's cut-off.
func TestAnalysisFactsPinnedBudgetSpent(t *testing.T) {
	info, err := progen.SubjectByName("v8")
	if err != nil {
		t.Fatal(err)
	}
	pr := compileSubject(t, info, budgetPinScale)
	an := driver.Analyze(pr.Graph, driver.AbsintOn)
	if left := an.RemainingBudget(); left != 0 {
		t.Fatalf("v8 at scale %g left %d of the instantiation budget; the pin needs it spent", budgetPinScale, left)
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"Instantiations", an.Stats.Instantiations, 20000},
		{"CacheHits", an.Stats.CacheHits, 13180},
		{"ZoneEdges", an.Stats.ZoneEdges, 91938},
		{"StrideFacts", an.Stats.StrideFacts, 36427},
	} {
		if c.got != c.want {
			t.Errorf("v8 at scale %g: Stats.%s = %d, pinned %d", budgetPinScale, c.name, c.got, c.want)
		}
	}
	h := sha256.New()
	dumpFacts(h, info.Name, pr.SSA, an)
	if got := hex.EncodeToString(h.Sum(nil)); got != budgetFactsPinSHA256 {
		t.Fatalf("v8 facts digest at scale %g = %s, pinned %s", budgetPinScale, got, budgetFactsPinSHA256)
	}
}

// refutationsPinSHA256 is the SHA-256 of the per-candidate refutation
// dump of every progen subject at factsPinScale under AbsintOn,
// AbsintNoStride and AbsintIntervals. A change that alters what the
// oracle prunes or the refuter refutes on purpose must update it and say
// so; any other change must leave it alone.
const refutationsPinSHA256 = "d05a5cd8d40d5959d3e11fb10c322c2f8bf4445af61f1f8bc251f11b3d00910b"

// refutationsDigest enumerates every null-deref, cwe-369 and cwe-125
// candidate of every subject at factsPinScale, unpruned, and writes one
// line per candidate and mode: its unit label, the oracle's PrunePath
// answer, and the slice refuter's (refuted, byStride, byZone). It returns
// the dump's SHA-256.
func refutationsDigest(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	specs := []*sparse.Spec{checker.NullDeref(), checker.DivByZero(), checker.IndexOOB()}
	for _, info := range progen.Subjects {
		pr := compileSubject(t, info, factsPinScale)
		eng := sparse.NewEngine(pr.Graph)
		var cands []sparse.Candidate
		for _, spec := range specs {
			cands = append(cands, eng.Run(spec)...)
		}
		for _, m := range []driver.AbsintMode{driver.AbsintOn, driver.AbsintNoStride, driver.AbsintIntervals} {
			an := driver.Analyze(pr.Graph, m)
			for _, c := range cands {
				sl := pdg.ComputeSlice(pr.Graph, []pdg.Path{c.Path})
				c.ApplyConstraint(sl, 0)
				refuted, byStride, byZone := an.RefuteSlice(context.Background(), sl)
				fmt.Fprintf(h, "%s %s %s %t %t %t %t\n", info.Name, m, engines.UnitLabel(c),
					an.PrunePath(c.Path, c.Constraints(0)...), refuted, byStride, byZone)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRefutationsPinned pins, per candidate, what the enumeration oracle
// prunes and what the slice refuter refutes and at which tier. The facts
// pin covers only the record pass, and the ablation baseline is a floor
// on counts, so this is what holds each candidate's abstract verdict
// fixed across a refactoring of the rules the two share.
func TestRefutationsPinned(t *testing.T) {
	if got := refutationsDigest(t); got != refutationsPinSHA256 {
		t.Fatalf("refutations digest at scale %g = %s, pinned %s", factsPinScale, got, refutationsPinSHA256)
	}
}
