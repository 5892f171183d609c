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
	"fusion/internal/driver"
	"fusion/internal/progen"
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

// factsDigest dumps every subject's facts at factsPinScale under both
// modes and returns the dump's SHA-256.
func factsDigest(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	for _, info := range progen.Subjects {
		src, _, _ := info.Build(factsPinScale)
		pr, err := driver.Compile(context.Background(), driver.Source{Name: info.Name, Text: src}, driver.Options{})
		if err != nil {
			t.Fatal(err)
		}
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
