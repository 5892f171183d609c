package solver

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"fusion/internal/sat"
	"fusion/internal/smt"
)

// randFormula builds a random formula over nv 8-bit variables in b.
func randFormula(b *smt.Builder, rng *rand.Rand, nv int) *smt.Term {
	vars := make([]*smt.Term, nv)
	for i := range vars {
		vars[i] = b.Var("v"+string(rune('a'+i)), 8)
	}
	var atom func(depth int) *smt.Term
	atom = func(depth int) *smt.Term {
		v := func() *smt.Term {
			if rng.Intn(3) == 0 {
				return b.Const(uint32(rng.Intn(256)), 8)
			}
			return vars[rng.Intn(nv)]
		}
		x, y := v(), v()
		switch rng.Intn(6) {
		case 0:
			x = b.Add(x, y)
			y = v()
		case 1:
			x = b.Mul(x, b.Const(uint32(1+rng.Intn(7)), 8))
		case 2:
			x = b.URem(x, b.Const(uint32(1+rng.Intn(9)), 8))
		}
		var p *smt.Term
		switch rng.Intn(3) {
		case 0:
			p = b.Eq(x, y)
		case 1:
			p = b.Ult(x, y)
		default:
			p = b.Slt(x, y)
		}
		if depth > 0 && rng.Intn(2) == 0 {
			q := atom(depth - 1)
			if rng.Intn(2) == 0 {
				return b.And(p, q)
			}
			return b.Or(p, q)
		}
		return p
	}
	return atom(2 + rng.Intn(2))
}

// TestSessionWarmMatchesCold is the core differential guarantee: every
// verdict from a session that has answered a stream of earlier queries
// agrees with a cold one-shot solve of the same formula.
func TestSessionWarmMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := smt.NewBuilder()
	ss := NewSession(b)
	for iter := 0; iter < 120; iter++ {
		phi := randFormula(b, rng, 3)
		warm := ss.Solve(phi, Options{})

		// The cold solve must see the formula through a fresh builder to
		// prove independence from the warm builder's term history; the
		// SMT-LIB round trip rebuilds every subterm there, constants too.
		cb := smt.NewBuilder()
		coldPhi, err := smt.ParseSMTLIB(cb, smt.ToSMTLIB(phi))
		if err != nil {
			t.Fatal(err)
		}
		cold := Solve(cb, coldPhi, Options{})
		if warm.Status != cold.Status {
			t.Fatalf("iter %d: warm %s != cold %s for %s",
				iter, warm.Status, cold.Status, phi)
		}
	}
}

// TestSessionRetainsLearnedClauses: a session keeps what it learned
// across its queries, so asking the same hard unsat query twice costs the
// second solve fewer conflicts.
func TestSessionRetainsLearnedClauses(t *testing.T) {
	b := smt.NewBuilder()
	ss := NewSession(b)
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	// An unsatisfiable multiplication fact the probe cannot decide and
	// preprocessing cannot fold: x*y = 251 with both factors even.
	even := func(v *smt.Term) *smt.Term {
		return b.Eq(b.URem(v, b.Const(2, 8)), b.Const(0, 8))
	}
	phi := b.And(b.And(even(x), even(y)),
		b.Eq(b.Mul(x, y), b.Const(251, 8)))
	opts := Options{NoProbe: true, Passes: NoPasses}
	r1 := ss.Solve(phi, opts)
	if r1.Status != sat.Unsat {
		t.Fatalf("first solve: %s, want unsat", r1.Status)
	}
	r2 := ss.Solve(phi, opts)
	if r2.Status != sat.Unsat {
		t.Fatalf("second solve: %s, want unsat", r2.Status)
	}
	if r1.Conflicts > 0 && r2.Conflicts >= r1.Conflicts {
		t.Fatalf("no warm-state benefit: first %d conflicts, second %d",
			r1.Conflicts, r2.Conflicts)
	}
}

// TestSessionWantModel: with WantModel, both entries — the one-shot
// Solve and a session — return a model that covers every variable and
// satisfies phi.
func TestSessionWantModel(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	phi := b.And(b.Eq(b.Add(x, y), b.Const(10, 8)), b.Ult(x, b.Const(3, 8)))
	for name, solve := range map[string]func(*smt.Term, Options) Result{
		"solve":   func(q *smt.Term, o Options) Result { return Solve(b, q, o) },
		"session": NewSession(b).Solve,
	} {
		r := solve(phi, Options{WantModel: true})
		if r.Status != sat.Sat {
			t.Fatalf("%s: got %s, want sat", name, r.Status)
		}
		if got := smt.Eval(phi, r.Model); got != 1 || !modelCovers(r.Model, phi) {
			t.Fatalf("%s: model does not satisfy phi: eval=%d model=%v", name, got, r.Model)
		}
	}
}

// TestSessionBudgetsPerCall: a budget bounds only the call it is given,
// not the session's later queries.
func TestSessionBudgetsPerCall(t *testing.T) {
	b := smt.NewBuilder()
	ss := NewSession(b)
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	z := b.Var("z", 8)
	// Hard enough to exhaust one decision: a multiplicative constraint mesh.
	phi := b.And(
		b.Eq(b.Mul(b.Mul(x, y), z), b.Const(113, 8)),
		b.And(b.Eq(b.URem(x, b.Const(2, 8)), b.Const(0, 8)),
			b.Ult(b.Const(7, 8), z)))
	opts := Options{NoProbe: true, Passes: NoPasses, MaxDecisions: 1}
	r1 := ss.Solve(phi, opts)
	// Whatever the verdict, a second call with a generous budget must not
	// be constrained by the first call's tiny one.
	opts.MaxDecisions = 0
	r2 := ss.Solve(phi, opts)
	if r2.Status == sat.Unknown {
		t.Fatalf("second call still budget-bound: %+v then %+v", r1, r2)
	}
}

// TestProbeTimeAttribution (satellite): a probe-decided query reports its
// probe cost separately and zero search stats.
func TestProbeTimeAttribution(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 32)
	phi := b.Eq(b.Add(x, b.Const(1, 32)), b.Const(5, 32))
	r := Solve(b, phi, Options{})
	if !r.DecidedByProbe {
		t.Skipf("probe did not decide %s; nothing to assert", phi)
	}
	if r.SearchTime != 0 || r.Conflicts != 0 || r.PreprocessTime != 0 {
		t.Fatalf("probe-decided query leaked stats: search=%v conflicts=%d preprocess=%v",
			r.SearchTime, r.Conflicts, r.PreprocessTime)
	}
	if r.ProbeTime <= 0 {
		t.Fatal("probe ran but ProbeTime is zero")
	}
}

// TestBlastTimeAttribution: a query that reaches the SAT core reports its
// bit-blasting time as a part of SearchTime, on both solve entries.
func TestBlastTimeAttribution(t *testing.T) {
	b := smt.NewBuilder()
	x, y := b.Var("x", 32), b.Var("y", 32)
	phi := b.And(b.Eq(b.Mul(x, y), b.Const(391, 32)), b.Ult(b.Const(1, 32), x), b.Ult(b.Const(1, 32), y))
	opts := Options{NoProbe: true, Passes: NoPasses}
	for name, r := range map[string]Result{"one-shot": Solve(b, phi, opts), "session": NewSession(b).Solve(phi, opts)} {
		if r.Status == sat.Unknown || r.Preprocessed {
			t.Fatalf("%s: %s did not reach the SAT core: %+v", name, phi, r)
		}
		if r.BlastTime <= 0 || r.BlastTime > r.SearchTime {
			t.Errorf("%s: BlastTime %v, want in (0, SearchTime %v]", name, r.BlastTime, r.SearchTime)
		}
	}
}

// TestResultCountsCNF: Vars and Clauses report the CNF a solve's blast
// added. A query that reaches the SAT core adds some; repeating it on the
// same session reuses every encoding and its guard, so it adds none.
func TestResultCountsCNF(t *testing.T) {
	b := smt.NewBuilder()
	x, y := b.Var("x", 16), b.Var("y", 16)
	phi := b.And(b.Eq(b.Mul(x, b.Const(3, 16)), y), b.Ult(b.Const(7, 16), y))
	opts := Options{NoProbe: true, Passes: NoPasses}
	ss := NewSession(b)
	first, again := ss.Solve(phi, opts), ss.Solve(phi, opts)
	if first.Status != sat.Sat || first.Vars == 0 || first.Clauses == 0 {
		t.Fatalf("first solve: %s with %d variables and %d clauses, want sat with a CNF", first.Status, first.Vars, first.Clauses)
	}
	if again.Status != sat.Sat || again.Vars != 0 || again.Clauses != 0 {
		t.Errorf("repeated solve: %s with %d variables and %d clauses, want sat with none", again.Status, again.Vars, again.Clauses)
	}
}

// TestCtxCancelledBetweenPhases (satellite): cancellation after the probe
// must not start preprocessing.
func TestCtxCancelledBetweenPhases(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	// Unsat, so the probe cannot decide it and the solve would normally
	// proceed into preprocessing.
	phi := b.And(b.Ult(x, y), b.Ult(y, x))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Solve(b, phi, Options{Ctx: ctx})
	if r.Status != sat.Unknown {
		t.Fatalf("cancelled solve returned %s, want unknown", r.Status)
	}
	if r.PreprocessTime != 0 || r.SizeAfter != 0 {
		t.Fatalf("cancelled solve still preprocessed: %+v", r)
	}
}

func TestSessionHonorsTimeout(t *testing.T) {
	b := smt.NewBuilder()
	ss := NewSession(b)
	// Build a genuinely hard instance: 24-bit factorization-style query.
	x := b.Var("x", 24)
	y := b.Var("y", 24)
	phi := b.And(b.Eq(b.Mul(x, y), b.Const(0xB00F1, 24)),
		b.And(b.Ult(b.Const(1, 24), x), b.Ult(b.Const(1, 24), y)))
	opts := Options{NoProbe: true, Passes: NoPasses, Timeout: 20 * time.Millisecond}
	start := time.Now()
	_ = ss.Solve(phi, opts)
	if time.Since(start) > 10*time.Second {
		t.Fatal("session solve ignored Timeout")
	}
	// The stale deadline must not bound the next query.
	easy := b.Eq(b.Var("e", 8), b.Const(1, 8))
	r := ss.Solve(easy, Options{NoProbe: true, Passes: NoPasses})
	if r.Status != sat.Sat {
		t.Fatalf("query after timeout-bounded one: %s, want sat", r.Status)
	}
}
