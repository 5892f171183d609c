package bench

import (
	"context"
	"testing"
	"time"

	"fusion/internal/bitblast"
	"fusion/internal/checker"
	"fusion/internal/cond"
	"fusion/internal/pdg"
	"fusion/internal/progen"
	"fusion/internal/sat"
	"fusion/internal/smt"
	"fusion/internal/solver"
	"fusion/internal/sparse"
)

// TestSessionWarmVsColdCorpus is the differential acceptance test for the
// incremental sessions: every SMT query of the progen corpus is answered
// three times — once by a single warm Session reused across all of a
// subject's candidates (clauses, phases, and encodings accumulating), once
// by the one-shot solver.Solve, and once by a bare cold stack built here
// (probe, preprocess, then assert directly into a fresh SAT solver) that
// shares no session code with the other two — and the verdicts must agree on every
// instance. The corpus must also actually exercise reuse, or the agreement
// is vacuous.
func TestSessionWarmVsColdCorpus(t *testing.T) {
	ctx := context.Background()
	subs, err := CompileAll(ctx, progen.Subjects, 0.002, 4)
	if err != nil {
		t.Fatal(err)
	}
	specs := []*sparse.Spec{checker.NullDeref(), checker.DivByZero()}
	queries, undecided, bareSearches := 0, 0, 0
	var hits, reusedClauses int64
	for _, sub := range subs {
		// One warm session per subject, shared across specs and candidates
		// — the same shape the sequential engines use.
		sess := solver.NewSession(solver.SessionConfig{})
		for _, spec := range specs {
			senge := sparse.NewEngine(sub.Graph)
			cands := senge.RunContext(ctx, spec)
			for i, c := range cands {
				opts := solver.Options{Ctx: ctx, Timeout: 10 * time.Second}

				sl := pdg.ComputeSlice(sub.Graph, []pdg.Path{c.Path})
				c.ApplyConstraint(sl, 0)
				sess.Begin()
				warm := sess.Solve(cond.Translate(sess.Builder(), sl).Phi, opts)
				sess.Finish()

				cb := smt.NewBuilder()
				csl := pdg.ComputeSlice(sub.Graph, []pdg.Path{c.Path})
				c.ApplyConstraint(csl, 0)
				cphi := cond.Translate(cb, csl).Phi
				cold := solver.Solve(cb, cphi, opts)
				bare, searched := bareSolve(cb, cphi)
				if searched {
					bareSearches++
				}

				queries++
				hits += warm.CacheHits
				reusedClauses += warm.ReusedClauses
				if warm.Status == sat.Unknown || cold.Status == sat.Unknown || bare == sat.Unknown {
					undecided++
					continue
				}
				if warm.Status != cold.Status || cold.Status != bare {
					t.Errorf("%s/%s candidate %d: warm session says %v, one-shot solve says %v, bare stack says %v",
						sub.Info.Name, spec.Name, i, warm.Status, cold.Status, bare)
				}
			}
		}
	}
	if queries == 0 {
		t.Fatal("corpus produced no SMT queries; the differential is vacuous")
	}
	if undecided > queries/2 {
		t.Errorf("%d of %d queries undecided; the differential barely ran", undecided, queries)
	}
	if hits == 0 {
		t.Error("warm sessions never reused a term encoding across the corpus")
	}
	if bareSearches == 0 {
		t.Error("no query reached the bare stack's SAT core; the direct-assertion reference never ran")
	}
	t.Logf("%d queries, %d warm cache hits, %d reused learned clauses, %d undecided, %d bare SAT searches",
		queries, hits, reusedClauses, undecided, bareSearches)
}

// bareSolve decides phi without a solver Session: the model probe, default
// preprocessing, then a direct assertion into a fresh SAT solver under the
// paper's 10-second limit. Unknown when the search runs out of budget;
// searched reports that the SAT core ran.
func bareSolve(b *smt.Builder, phi *smt.Term) (st sat.Status, searched bool) {
	if _, ok := solver.Probe(context.Background(), phi, 32); ok {
		return sat.Sat, false
	}
	phi = smt.Preprocess(context.Background(), b, phi, smt.DefaultPasses())
	if phi.IsTrue() {
		return sat.Sat, false
	}
	if phi.IsFalse() {
		return sat.Unsat, false
	}
	s := sat.New()
	s.Deadline = time.Now().Add(10 * time.Second)
	bitblast.New(s).AssertTrue(phi)
	st, err := s.Solve()
	if err != nil {
		return sat.Unknown, true
	}
	return st, true
}
