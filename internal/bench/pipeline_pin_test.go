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
// ProbeCorpus at scale 0.002 (see pipelineDigest). A change to what the
// pipeline builds, blasts or searches must update the digest and say
// why; a change to what it costs must leave it alone.
//
// It last changed when the blaster began encoding a product with one
// constant operand by the signed digits of the constant instead of the
// full shift-add multiplier: fewer variables and clauses, so different
// search counters and models. Preprocessing output, term counts, byte
// estimates and every status stayed the same (outcomePinDigest did not
// move), and the flat clause store that landed first left this digest
// unchanged.
//
// Both digests changed again when Fusion's raw residuals left the corpus,
// because its graph probe stopped building them; the corpus is now the
// 218 cond.Translate conditions alone. The code before that change, run
// on this corpus, gives these very digests, so no Translate answer moved.
const pipelinePinDigest = "5cb5f7fd156f9b81c03226aa09ae2e33e4930acd7d81bd9656a6deed2377f352"

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

// outcomePinDigest is the SHA-256 of what the solve pipeline decides on
// ProbeCorpus at scale 0.002 (see outcomeDigest). Unlike
// pipelinePinDigest it leaves out the search counters and the model, so
// a change to how a formula is blasted or searched keeps it; only a
// change to what preprocessing builds, to a byte estimate or to a
// verdict moves it.
const outcomePinDigest = "7627c0e6e4b8041efd568ede6426185baed8b66f2355a423a67ce4ce90b194ad"

// outcomeDigest hashes, per formula in corpus order: the default
// preprocessing's output and DAG size, then a probe-free Session.Solve's
// status and SizeAfter with the builder's term count and byte estimate.
// It fails t when a sat model does not satisfy its formula.
func outcomeDigest(t *testing.T, qs []CorpusQuery) (digest string, sats, unsats int) {
	h := sha256.New()
	for i, q := range qs {
		pre := smt.Preprocess(context.Background(), q.B, q.Phi, smt.DefaultPasses())
		fmt.Fprintf(h, "# %d size %d\n%s\n", i, q.B.Size(pre), pre)
		r := solver.NewSession(q.B).Solve(q.Phi, solver.Options{NoProbe: true, WantModel: true})
		fmt.Fprintf(h, "%s after %d terms %d bytes %d\n",
			r.Status, r.SizeAfter, q.B.NumTerms(), q.B.EstimatedBytes())
		switch r.Status {
		case sat.Sat:
			sats++
			if smt.Eval(q.Phi, r.Model) != 1 {
				t.Errorf("formula %d: the sat model does not satisfy it", i)
			}
		case sat.Unsat:
			unsats++
		}
	}
	return hex.EncodeToString(h.Sum(nil)), sats, unsats
}

// TestSolveOutcomePinned pins what the solve pipeline builds and decides
// on the corpus, and checks every sat model: a change to the CNF the
// blaster emits or to how the SAT core stores it may change the search
// and the models, never a verdict.
func TestSolveOutcomePinned(t *testing.T) {
	qs, err := ProbeCorpus(context.Background(), 0.002)
	if err != nil {
		t.Fatal(err)
	}
	got, sats, unsats := outcomeDigest(t, qs)
	t.Logf("%d formulas, %d sat, %d unsat, digest %s", len(qs), sats, unsats, got)
	if sats == 0 || unsats == 0 {
		t.Fatalf("%d sat and %d unsat of %d formulas; the pin cannot tell a changed verdict apart", sats, unsats, len(qs))
	}
	if got != outcomePinDigest {
		t.Errorf("solve outcome digest %s, want %s", got, outcomePinDigest)
	}
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
