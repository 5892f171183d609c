// Faulttolerance: demonstrate the fault-isolated pipeline. One analysis
// batch survives a forced mid-check crash (the crash becomes a structured
// unit failure on its verdict slot), and a one-decision SAT budget shows
// what exhaustion leaves: a guard the engine's own abstract tier refutes
// is still refuted, and the one that needed search is an Unknown tagged
// degraded. Both behaviors are byte-identical for any worker count.
package main

import (
	"context"
	"fmt"
	"log"

	"fusion/internal/checker"
	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/faultinject"
	"fusion/internal/sparse"
)

// containSrc has one feasible and one infeasible candidate.
const containSrc = `
fun f(a: int) {
    var p: ptr = null;
    if (a > 3) {
        deref(p);
    }
    var q: ptr = null;
    if (a > 10) {
        if (a < 5) {
            deref(q);
        }
    }
}
`

// budgetSrc guards the dereference with a*a == 1201²: satisfiable, but the
// solver needs genuine search decisions (neither the concrete probe nor
// unit propagation alone decides it), so a tiny per-candidate budget
// exhausts the exact tier.
const budgetSrc = `
fun g(a: int) {
    var p: ptr = null;
    if (a * a == 1442401) {
        deref(p);
    }
    var q: ptr = null;
    if (a > 10) {
        if (a < 5) {
            deref(q);
        }
    }
}
`

func compile(src string) (*driver.Program, []sparse.Candidate) {
	p, err := driver.Compile(context.Background(),
		driver.Source{Name: "example", Text: src}, driver.Options{Prelude: true})
	if err != nil {
		log.Fatal(err)
	}
	return p, sparse.NewEngine(p.Graph).Run(checker.NullDeref())
}

func main() {
	p, cands := compile(containSrc)
	fmt.Printf("%d null-deref candidates\n\n", len(cands))

	// 1. Panic containment: force a crash while checking the first
	// candidate. The batch still completes; only that slot carries a
	// structured failure with a stable stack digest.
	fmt.Println("--- forced crash in one unit ---")
	target := engines.UnitLabel(cands[0])
	if err := faultinject.ArmSpec("panic.check:" + target); err != nil {
		log.Fatal(err)
	}
	eng := engines.NewFusion()
	for _, v := range eng.Check(context.Background(), p.Graph, cands) {
		if v.Failure != nil {
			fmt.Printf("%-28s CRASHED at stage %s (digest %s)\n",
				engines.UnitLabel(v.Cand), v.Failure.Stage, v.Failure.Digest())
			continue
		}
		fmt.Printf("%-28s %s\n", engines.UnitLabel(v.Cand), v.Status)
	}
	faultinject.Reset()

	// 2. Budget exhaustion: a one-decision SAT budget with the engine's
	// own abstract tier. The contradictory guard is refuted by that tier
	// before any search; the satisfiable square-root guard needs search,
	// exhausts the budget and ends a degraded Unknown.
	fmt.Println("\n--- one-decision SAT budget ---")
	p, cands = compile(budgetSrc)
	eng = engines.NewFusion()
	eng.Opts.Absint = p.Absint()
	engines.SetBudget(eng, engines.Budget{Steps: 1})
	for _, v := range eng.Check(context.Background(), p.Graph, cands) {
		tag := fmt.Sprintf("  (%s tier)", v.Tier)
		if v.Degraded {
			tag = "  (degraded: budget exhausted)"
		}
		fmt.Printf("%-28s %s%s\n", engines.UnitLabel(v.Cand), v.Status, tag)
	}
	fmt.Println("\nA degraded verdict is always Unknown: nothing decides a candidate")
	fmt.Println("after its budget is spent.")
}
