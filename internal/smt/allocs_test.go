//go:build !race

package smt

import (
	"strconv"
	"testing"
)

// The race detector's instrumentation allocates, so these guards run on a
// plain build only.

// TestHashConsHitNoAllocs: rebuilding an existing conjunction, whether
// its operands fit the key's inline slots or are packed after them, finds
// it without allocating.
func TestHashConsHitNoAllocs(t *testing.T) {
	b := NewBuilder()
	vs := make([]*Term, 6)
	for i := range vs {
		vs[i] = b.Var("h"+strconv.Itoa(i), 1)
	}
	x, y := vs[0], vs[1]
	b.And(x, y)
	b.And(vs...)
	if a := testing.AllocsPerRun(100, func() { b.And(x, y) }); a != 0 {
		t.Errorf("And over two existing operands: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { b.And(vs...) }); a != 0 {
		t.Errorf("And over six existing operands: %v allocs, want 0", a)
	}
}

// TestWarmSubstituteNoAllocs: once its scratch table exists, a Substitute
// that walks the whole formula but changes nothing allocates nothing, and
// neither does Size.
func TestWarmSubstituteNoAllocs(t *testing.T) {
	b := NewBuilder()
	x, y := b.Var("x", 8), b.Var("y", 8)
	phi := b.True()
	for i := 0; i < 50; i++ {
		c := b.Const(uint32(i), 8)
		phi = b.And(phi, b.Ult(b.Add(x, c), b.Mul(y, c)), b.Or(b.Eq(x, c), b.Eq(y, c)))
	}
	sub := map[*Term]*Term{x: x}
	if a := testing.AllocsPerRun(100, func() { Substitute(b, phi, sub) }); a != 0 {
		t.Errorf("Substitute changing nothing: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { b.Size(phi) }); a != 0 {
		t.Errorf("Size: %v allocs, want 0", a)
	}
}
