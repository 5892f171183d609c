package bench

import (
	"context"
	"sync"
	"testing"
	"time"

	"fusion/internal/checker"
	"fusion/internal/cond"
	"fusion/internal/pdg"
	"fusion/internal/progen"
	"fusion/internal/sat"
	"fusion/internal/smt"
	"fusion/internal/solver"
	"fusion/internal/sparse"
)

// largest returns the paths of the null-deref candidate of the wine
// subject at scale 0.01 whose path condition is largest — the heaviest
// single query the benchmark's inputs produce — with its graph.
var largest = sync.OnceValues(func() (*pdg.Graph, sparse.Candidate) {
	info, err := progen.SubjectByName("wine")
	if err != nil {
		panic(err)
	}
	sub, err := Compile(context.Background(), info, 0.01)
	if err != nil {
		panic(err)
	}
	var best sparse.Candidate
	size := -1
	for _, c := range sparse.NewEngine(sub.Graph).RunContext(context.Background(), checker.NullDeref()) {
		b := smt.NewBuilder()
		if n := b.Size(condition(b, sub.Graph, c)); n > size {
			best, size = c, n
		}
	}
	return sub.Graph, best
})

// condition is candidate c's path condition, translated into b the way
// the conventional engine builds it.
func condition(b *smt.Builder, g *pdg.Graph, c sparse.Candidate) *smt.Term {
	sl := pdg.ComputeSlice(g, []pdg.Path{c.Path})
	c.ApplyConstraint(sl, 0)
	return cond.Translate(b, sl).Phi
}

// TestCancelledBlastLeavesSessionClean is the session differential for
// bit-blasting: a query cancelled part-way through its blast must not
// leave a memoized unfinished term or an activation literal behind, so
// the same session then answers a corpus exactly like a fresh session
// that never saw the cancelled query. The cancellation lands at several
// points of the blast; the corpus is every null-deref condition of the
// progen subjects at scale 0.002.
func TestCancelledBlastLeavesSessionClean(t *testing.T) {
	g, big := largest()
	subs, err := CompileAll(context.Background(), progen.Subjects, 0.002, 4)
	if err != nil {
		t.Fatal(err)
	}
	type query struct {
		g *pdg.Graph
		c sparse.Candidate
	}
	var corpus []query
	for _, sub := range subs {
		for _, c := range sparse.NewEngine(sub.Graph).RunContext(context.Background(), checker.NullDeref()) {
			corpus = append(corpus, query{sub.Graph, c})
		}
	}
	// NoProbe and NoPasses send the big query straight to the blaster.
	direct := solver.Options{NoProbe: true, Passes: solver.NoPasses}
	answer := func(b *smt.Builder, sess *solver.Session) []sat.Status {
		var out []sat.Status
		for _, q := range corpus {
			out = append(out, sess.Solve(condition(b, q.g, q.c), solver.Options{}).Status)
		}
		return out
	}
	fresh := smt.NewBuilder()
	want := answer(fresh, solver.NewSession(fresh))

	// Blasting the big query unpreprocessed takes seconds, so each of these
	// cancellations lands inside its blast.
	midBlast := 0
	for _, after := range []time.Duration{10 * time.Millisecond, 50 * time.Millisecond, 250 * time.Millisecond} {
		b := smt.NewBuilder()
		sess := solver.NewSession(b)
		ctx, cancel := context.WithCancel(context.Background())
		opts := direct
		opts.Ctx = ctx
		phi := condition(b, g, big)
		timer := time.AfterFunc(after, cancel)
		r := sess.Solve(phi, opts)
		timer.Stop()
		cancel()
		if r.Status != sat.Unknown {
			t.Fatalf("cancel after %v: the query was answered (%v) first", after, r.Status)
		}
		if r.Decisions == 0 && r.Conflicts == 0 {
			midBlast++ // the search never started
		}
		got := answer(b, sess)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("cancel after %v: corpus query %d answered %v, a fresh session %v",
					after, i, got[i], want[i])
			}
		}
	}
	if midBlast == 0 {
		t.Error("no cancellation landed before the search; the differential is vacuous")
	}
	t.Logf("%d corpus queries; %d of 3 cancellations landed mid-blast", len(corpus), midBlast)
}
