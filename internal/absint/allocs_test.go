//go:build !race

package absint

import (
	"testing"

	"fusion/internal/lang"
	"fusion/internal/pdg"
	"fusion/internal/ssa"
	"fusion/internal/unroll"
)

// The race detector's instrumentation allocates, so this guard runs on a
// plain build only.

// TestInstantiationAllocs: once a depth's frame has grown to a body, a
// repeated instantiation pass of a guard-free body allocates nothing,
// and one that misses the memo allocates at most its memo entry. The
// caller's body also instantiates a callee, whose memo hit allocates
// nothing either.
func TestInstantiationAllocs(t *testing.T) {
	prog, err := lang.Parse(`
fun g(x: int, y: int): int {
    var a: int = x * 3 + y;
    var b: int = a - x;
    return b % 7;
}

fun f(n: int): int {
    var m: int = g(n % 5, 2);
    return m + n;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := ssa.Build(unroll.Normalize(prog, unroll.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(pdg.Build(sp))
	f := sp.Funcs["f"]
	args := []Interval{{0, 9}}
	a.evalCall(f, args, 0) // warm-up: grows the frames and memoizes g
	if n := testing.AllocsPerRun(100, func() { a.evalFunction(f, args, false, 1) }); n != 0 {
		t.Errorf("repeated pass: %v allocs, want 0", n)
	}
	key := instCacheKey{f: f, args: string(appendIntervalKey(nil, args))}
	if _, ok := a.instMemo[key]; !ok {
		t.Fatalf("f%v was not memoized", args)
	}
	n := testing.AllocsPerRun(100, func() {
		delete(a.instMemo, key)
		a.budget = evalBudget
		a.evalCall(f, args, 0)
	})
	if n > 1 {
		t.Errorf("memo miss: %v allocs, want at most 1 (the memo key)", n)
	}
}
