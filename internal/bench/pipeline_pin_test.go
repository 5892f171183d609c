package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"fusion/internal/sat"
	"fusion/internal/smt"
	"fusion/internal/solver"
)

// pipelinePinDigest is the SHA-256 of the solve pipeline's output on
// ProbeCorpus at scale 0.002 (see pipelineDigest), taken with the
// map-keyed term interning, Substitute memo, clause deduplication and
// VSIDS position index that the slice- and struct-keyed kernels
// replaced. Those kernels change only what the pipeline costs; a change
// to what it builds, blasts or searches must update the digest and say
// why.
const pipelinePinDigest = "2a8a97f9dad4dda81b88dcada2172a19f11cc492154a8c8b43635a72b422a612"

// pipelineDigest hashes, per formula in corpus order: the default
// preprocessing's output and DAG size, the builder's term count and byte
// estimate after a probe-free Session.Solve, the solve's status, search
// counters and SizeAfter, and its model sorted by variable name.
func pipelineDigest(qs []CorpusQuery) (digest string, searched int) {
	h := sha256.New()
	for i, q := range qs {
		pre := smt.Preprocess(context.Background(), q.B, q.Phi, smt.DefaultPasses())
		fmt.Fprintf(h, "# %d size %d\n%s\n", i, q.B.Size(pre), pre)
		r := solver.NewSession(q.B).Solve(q.Phi, solver.Options{NoProbe: true, WantModel: true})
		fmt.Fprintf(h, "%s after %d conflicts %d decisions %d props %d terms %d bytes %d\n",
			r.Status, r.SizeAfter, r.Conflicts, r.Decisions, r.Props, q.B.NumTerms(), q.B.EstimatedBytes())
		if r.Status != sat.Unknown && !r.Preprocessed {
			searched++
		}
		vars := make([]*smt.Term, 0, len(r.Model))
		for v := range r.Model {
			vars = append(vars, v)
		}
		sort.Slice(vars, func(i, j int) bool {
			if vars[i].Name != vars[j].Name {
				return vars[i].Name < vars[j].Name
			}
			return vars[i].Width < vars[j].Width
		})
		for _, v := range vars {
			fmt.Fprintf(h, "%s:%d=%d\n", v.Name, v.Width, r.Model[v])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), searched
}

// TestSolvePipelinePinned pins what preprocessing builds and what the
// SAT core searches on the corpus: the same terms, the same byte
// estimate, and the same conflicts, decisions and propagations must come
// out however the kernels underneath are implemented.
func TestSolvePipelinePinned(t *testing.T) {
	qs, err := ProbeCorpus(context.Background(), 0.002)
	if err != nil {
		t.Fatal(err)
	}
	got, searched := pipelineDigest(qs)
	t.Logf("%d formulas, %d reached the SAT core, digest %s", len(qs), searched, got)
	if searched == 0 {
		t.Fatalf("no formula of %d reached the SAT core; the pin cannot tell a changed search apart", len(qs))
	}
	if got != pipelinePinDigest {
		t.Errorf("solve pipeline digest %s, want %s", got, pipelinePinDigest)
	}
}
