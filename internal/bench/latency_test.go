//go:build !race

// The race detector slows every phase several-fold, so wall-clock bounds
// measured under it say nothing about the code; CI runs this test in a
// separate non-race step.

package bench

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"fusion/internal/checker"
	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/progen"
	"fusion/internal/smt"
	"fusion/internal/solver"
	"fusion/internal/sparse"
)

// TestCancellationLatency holds the per-candidate deadline to its word:
// on the industrial progen subjects at scale 0.01 with a 50ms budget, no
// candidate's solve may run more than latencySlack past it, for the fused
// and the conventional engine alike. SolveTime covers the bit-precise
// solve only — the degradation rung runs after it — so the bound measures
// how promptly every solve phase (probe, preprocessing, bit-blasting,
// search) notices its context.
func TestCancellationLatency(t *testing.T) {
	const (
		deadline     = 50 * time.Millisecond
		latencySlack = 500 * time.Millisecond
	)
	ctx := context.Background()
	var subs []*Subject
	for _, name := range []string{"ffmpeg", "v8", "mysql", "wine"} {
		info, err := progen.SubjectByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := Compile(ctx, info, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	mk := map[string]func(*Subject) engines.Engine{
		"fusion": func(sub *Subject) engines.Engine {
			e := engines.NewFusion()
			e.Opts.Absint = driver.Analyze(sub.Graph, driver.AbsintOn)
			return e
		},
		"pinpoint": func(*Subject) engines.Engine { return engines.NewPinpoint(engines.Plain) },
	}
	for _, name := range []string{"fusion", "pinpoint"} {
		var worst time.Duration
		worstAt, n := "", 0
		for _, sub := range subs {
			eng := mk[name](sub)
			engines.SetParallel(eng, 1)
			engines.SetBudget(eng, engines.Budget{Deadline: deadline})
			se := sparse.NewEngine(sub.Graph)
			se.Workers = 1
			cands := se.RunContext(ctx, checker.NullDeref())
			for _, v := range eng.Check(ctx, sub.Graph, cands) {
				n++
				if v.SolveTime > worst {
					worst, worstAt = v.SolveTime, sub.Info.Name+" "+engines.UnitLabel(v.Cand)
				}
			}
		}
		t.Logf("%s: %d candidates, longest solve %v (%v past the deadline) at %s",
			name, n, worst, worst-deadline, worstAt)
		if worst > deadline+latencySlack {
			t.Errorf("%s: a solve ran %v past its %v deadline (bound %v) at %s",
				name, worst-deadline, deadline, latencySlack, worstAt)
		}
	}
}

// TestPhaseCancellationLatency cancels each slow solve phase — the
// concrete-execution probe, preprocessing, and the one-shot solver's
// bit-blasting — at pseudo-random points while it works on the largest
// condition of the benchmark's inputs, and requires each to return
// within phaseSlack of the cancellation.
func TestPhaseCancellationLatency(t *testing.T) {
	const phaseSlack = 500 * time.Millisecond
	g, big := largest()
	phases := []struct {
		name string
		run  func(ctx context.Context)
	}{
		{"probe", func(ctx context.Context) {
			solver.Probe(ctx, condition(smt.NewBuilder(), g, big), 32)
		}},
		{"preprocess", func(ctx context.Context) {
			b := smt.NewBuilder()
			smt.Preprocess(ctx, b, condition(b, g, big), smt.DefaultPasses())
		}},
		{"blast", func(ctx context.Context) {
			b := smt.NewBuilder()
			solver.Solve(b, condition(b, g, big),
				solver.Options{Ctx: ctx, NoProbe: true, Passes: solver.NoPasses})
		}},
	}
	rng := rand.New(rand.NewSource(1))
	for _, ph := range phases {
		// Time the phase uninterrupted, then cancel it at random points
		// inside that span.
		t0 := time.Now()
		ph.run(context.Background())
		full := time.Since(t0)
		var worst time.Duration
		for trial := 0; trial < 4; trial++ {
			ctx, cancel := context.WithCancel(context.Background())
			at := time.Duration(rng.Int63n(int64(full)))
			// The timer may fire after the phase already returned on its
			// own, so the cancellation time is handed over on a channel:
			// Stop reporting false does not mean the func has run yet.
			fired := make(chan time.Time, 1)
			timer := time.AfterFunc(at, func() { fired <- time.Now(); cancel() })
			ph.run(ctx)
			done := time.Now()
			if !timer.Stop() {
				if lat := done.Sub(<-fired); lat > worst {
					worst = lat
				}
			}
			cancel()
		}
		t.Logf("%s: %v uninterrupted, returned at most %v after a cancellation", ph.name, full, worst)
		if worst > phaseSlack {
			t.Errorf("%s returned %v after its cancellation, want at most %v", ph.name, worst, phaseSlack)
		}
	}
}
