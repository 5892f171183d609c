package solver_test

import (
	"math/rand"
	"testing"
	"time"

	"fusion/internal/sat"
	"fusion/internal/smt"
	"fusion/internal/solver"
)

func TestSolveBasics(t *testing.T) {
	b := smt.NewBuilder()
	x, y := b.Var("x", 32), b.Var("y", 32)
	cases := []struct {
		name string
		phi  *smt.Term
		want sat.Status
	}{
		{"trivial-true", b.True(), sat.Sat},
		{"trivial-false", b.False(), sat.Unsat},
		{"eq", b.Eq(x, b.Const(5, 32)), sat.Sat},
		{"contradiction", b.And(b.Eq(x, b.Const(1, 32)), b.Eq(x, b.Const(2, 32))), sat.Unsat},
		{"parity", b.Eq(b.Mul(x, b.Const(2, 32)), b.Const(7, 32)), sat.Unsat},
		{"system", b.And(b.Eq(b.Add(x, y), b.Const(10, 32)), b.Ult(x, b.Const(3, 32))), sat.Sat},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := solver.Solve(b, c.phi, solver.Options{}).Status; got != c.want {
				t.Errorf("got %s, want %s", got, c.want)
			}
			// Probing must never flip a verdict.
			if got := solver.Solve(b, c.phi, solver.Options{NoProbe: true}).Status; got != c.want {
				t.Errorf("NoProbe: got %s, want %s", got, c.want)
			}
		})
	}
}

func TestProbeDecidesDefinitionSystems(t *testing.T) {
	// A chain of definitions ending in a reachable guard: the probe must
	// decide this without the SAT core.
	b := smt.NewBuilder()
	a := b.Var("a", 32)
	v1, v2, v3 := b.Var("v1", 32), b.Var("v2", 32), b.Var("v3", 32)
	phi := b.And(
		b.Eq(v1, b.Add(a, b.Const(1, 32))),
		b.Eq(v2, b.Mul(v1, b.Const(3, 32))),
		b.Eq(v3, b.Sub(v2, a)),
		b.Eq(v3, b.Const(23, 32)), // solvable backward: 3(a+1)-a = 23 => a = 10
	)
	r := solver.Solve(b, phi, solver.Options{WantModel: true})
	if r.Status != sat.Sat {
		t.Fatalf("got %s, want sat", r.Status)
	}
	// The residual equation 2a + 3 = 23 has an even coefficient, which is
	// not invertible mod 2^32, so this particular system may legitimately
	// reach the SAT core. For the same reason it has two solutions, 10
	// and 2^31 + 10, and either may come back.
	if smt.Eval(phi, r.Model) != 1 {
		t.Error("model does not satisfy the formula")
	}
	if r.Model[a] != 10 && r.Model[a] != 1<<31+10 {
		t.Errorf("a = %d, want 10 or 2^31 + 10 (the two solutions)", r.Model[a])
	}

	// Without the backward-solvable pin, a guard over the chain output is
	// decided by the probe alone.
	phi2 := b.And(
		b.Eq(v1, b.Add(a, b.Const(1, 32))),
		b.Eq(v2, b.Mul(v1, b.Const(3, 32))),
		b.Ult(v2, b.Const(100, 32)),
	)
	r2 := solver.Solve(b, phi2, solver.Options{Passes: solver.NoPasses})
	if r2.Status != sat.Sat || !r2.DecidedByProbe {
		t.Errorf("expected probe-decided sat, got %+v", r2)
	}
}

func TestProbeHintsFindExactConstants(t *testing.T) {
	// The satisfying value 123456789 is unguessable but appears in the
	// formula; hint mining must find it.
	b := smt.NewBuilder()
	x := b.Var("x", 32)
	phi := b.Eq(x, b.Const(123456789, 32))
	r := solver.Solve(b, phi, solver.Options{})
	if r.Status != sat.Sat || !r.DecidedByProbe {
		t.Fatalf("got %+v, want probe-decided sat", r)
	}
	if r.Model[x] != 123456789 {
		t.Errorf("model x = %d", r.Model[x])
	}
}

func TestProbeAliasClasses(t *testing.T) {
	// x = y = z with a guard on z and a definition on x: the alias union
	// must connect them.
	b := smt.NewBuilder()
	x, y, z, a := b.Var("x", 32), b.Var("y", 32), b.Var("z", 32), b.Var("a", 32)
	phi := b.And(
		b.Eq(x, y),
		b.Eq(y, z),
		b.Eq(x, b.Add(a, b.Const(7, 32))),
		b.Eq(z, b.Const(50, 32)),
	)
	r := solver.Solve(b, phi, solver.Options{})
	if r.Status != sat.Sat {
		t.Fatalf("got %s, want sat", r.Status)
	}
}

func TestProbeInvertedChains(t *testing.T) {
	// The variable is buried: (x + 3) * 5 - a = c. Preprocessing-style
	// rewrites produce such shapes; the chain solver must handle them.
	b := smt.NewBuilder()
	x, a := b.Var("x", 32), b.Var("a", 32)
	lhs := b.Sub(b.Mul(b.Add(x, b.Const(3, 32)), b.Const(5, 32)), a)
	phi := b.And(
		b.Eq(lhs, b.Const(1000, 32)),
		b.Eq(a, b.Const(20, 32)),
		b.Ult(x, b.Const(1000, 32)),
	)
	r := solver.Solve(b, phi, solver.Options{})
	if r.Status != sat.Sat {
		t.Fatalf("got %s, want sat", r.Status)
	}
	if r.Model != nil && smt.Eval(phi, r.Model) != 1 {
		t.Error("model does not satisfy formula")
	}
}

func TestProbeSoundOnUnsat(t *testing.T) {
	// The probe must never claim sat for unsatisfiable systems (models are
	// verified), across a batch of random contradictions.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		b := smt.NewBuilder()
		x := b.Var("x", 16)
		c := rng.Uint32() % 1000
		phi := b.And(
			b.Eq(x, b.Const(c, 16)),
			b.Eq(x, b.Const(c+1, 16)),
		)
		if r := solver.Solve(b, phi, solver.Options{}); r.Status != sat.Unsat {
			t.Fatalf("iter %d: got %s, want unsat", i, r.Status)
		}
	}
}

func TestWantModelAfterPreprocessing(t *testing.T) {
	b := smt.NewBuilder()
	x, y, z := b.Var("x", 32), b.Var("y", 32), b.Var("z", 32)
	// Equality propagation will eliminate variables; WantModel must still
	// cover all three.
	phi := b.And(b.Eq(x, y), b.Eq(y, z), b.Ult(x, b.Const(10, 32)))
	r := solver.Solve(b, phi, solver.Options{WantModel: true})
	if r.Status != sat.Sat {
		t.Fatalf("got %s", r.Status)
	}
	for _, v := range []*smt.Term{x, y, z} {
		if _, ok := r.Model[v]; !ok {
			t.Errorf("model missing %s", v.Name)
		}
	}
	if smt.Eval(phi, r.Model) != 1 {
		t.Error("model does not satisfy the formula")
	}
}

func TestDecide(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 32)
	if isSat, unknown := solver.Decide(solver.Solve(b, b.Eq(x, x), solver.Options{})); !isSat || unknown {
		t.Error("x = x must be sat")
	}
	if isSat, unknown := solver.Decide(solver.Solve(b, b.False(), solver.Options{})); isSat || unknown {
		t.Error("false must be unsat")
	}
}

func TestSolveBudgets(t *testing.T) {
	// A genuinely hard instance under a tiny conflict budget must report
	// Unknown, not hang: two 32-bit multiplications constrained to a
	// specific product (factoring-flavoured).
	b := smt.NewBuilder()
	x, y := b.Var("x", 32), b.Var("y", 32)
	phi := b.And(
		b.Eq(b.Mul(x, y), b.Const(0x7FFFFFFD, 32)),
		b.Ult(b.Const(2, 32), x),
		b.Ult(b.Const(2, 32), y),
		b.Ult(x, y),
	)
	start := time.Now()
	r := solver.Solve(b, phi, solver.Options{MaxDecisions: 50, NoProbe: true, Timeout: 5 * time.Second})
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("budget not honored: %v", elapsed)
	}
	if r.Status == sat.Sat {
		// Fine if it got lucky, but the model must check out.
		t.Logf("solved within budget")
	}
}

func TestDeterministicResults(t *testing.T) {
	mk := func() (*smt.Builder, *smt.Term) {
		b := smt.NewBuilder()
		x, y := b.Var("x", 32), b.Var("y", 32)
		return b, b.And(
			b.Eq(b.Add(x, y), b.Const(77, 32)),
			b.Ult(x, y),
		)
	}
	b1, p1 := mk()
	r1 := solver.Solve(b1, p1, solver.Options{WantModel: true})
	for i := 0; i < 3; i++ {
		b2, p2 := mk()
		r2 := solver.Solve(b2, p2, solver.Options{WantModel: true})
		if r1.Status != r2.Status {
			t.Fatal("nondeterministic status")
		}
	}
}
