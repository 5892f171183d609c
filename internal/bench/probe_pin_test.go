package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"fusion/internal/smt"
	"fusion/internal/solver"
)

// probePinDigest is the SHA-256 of every solver.Probe result on
// ProbeCorpus at scale 0.002 (see probeDigest). It was computed with the
// map-memoized smt.Eval evaluator that the compiled slot program
// replaced, so the compiled probe returns byte-identical (model, ok) on
// every formula it is handed as terms. A change to the probe's search
// must update it and say so; a change to its cost must leave it alone.
//
// It last changed when Fusion's raw residuals left the corpus, because
// its graph probe stopped building them; the corpus is now the 218
// cond.Translate conditions alone. The code before that change, run on
// this corpus, gives this very digest, so no Translate answer moved.
const probePinDigest = "ba09cda61dce1f80c732b382569cc2063c5efeebfc697e9238fedb89173cffe2"

// probeDigest hashes, per formula in corpus order, whether the probe
// found a model and the model's values sorted by variable name.
func probeDigest(qs []CorpusQuery) (digest string, sat int) {
	h := sha256.New()
	for i, q := range qs {
		m, ok := solver.Probe(context.Background(), q.B, q.Phi, 32)
		fmt.Fprintf(h, "# %d %v\n", i, ok)
		if ok {
			sat++
		}
		vars := make([]*smt.Term, 0, len(m))
		for v := range m {
			vars = append(vars, v)
		}
		sort.Slice(vars, func(i, j int) bool {
			if vars[i].Name != vars[j].Name {
				return vars[i].Name < vars[j].Name
			}
			return vars[i].Width < vars[j].Width
		})
		for _, v := range vars {
			fmt.Fprintf(h, "%s:%d=%d\n", v.Name, v.Width, m[v])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), sat
}

// TestProbeResultsPinned pins the probe's answers on the corpus: what it
// finds, and which model it returns, must not move when only its cost
// does.
func TestProbeResultsPinned(t *testing.T) {
	qs, err := ProbeCorpus(context.Background(), 0.002)
	if err != nil {
		t.Fatal(err)
	}
	got, sat := probeDigest(qs)
	t.Logf("%d formulas, %d probed sat, digest %s", len(qs), sat, got)
	if sat == 0 || sat == len(qs) {
		t.Fatalf("probe decided %d of %d formulas; the pin cannot tell a changed search apart", sat, len(qs))
	}
	if got != probePinDigest {
		t.Errorf("probe results digest %s, want %s", got, probePinDigest)
	}
}
