//go:build !race

package bitblast

import (
	"runtime/debug"
	"testing"

	"fusion/internal/sat"
)

// The race detector's instrumentation allocates, so these guards run on a
// plain build only.

// TestGateTableAllocs: a gate lookup allocates nothing, and n insertions
// cost O(log n) allocations, one per doubling of the table.
func TestGateTableAllocs(t *testing.T) {
	// The 2 MB of tables the insertions build can start a GC cycle, and
	// the runtime's own allocations during it would be counted against
	// the table's; with the GC paused only the table's are.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 1 << 16
	var tab gateTable
	allocs := testing.AllocsPerRun(1, func() {
		tab = gateTable{}
		for i := 0; i < n; i++ {
			tab.put(gateKey(gateAnd, sat.Lit(i), sat.Lit(i+1)), sat.Lit(i))
		}
	})
	// From 64 slots to 2n: 12 tables.
	if allocs > 12 {
		t.Errorf("%d insertions: %v allocs, want at most 12", n, allocs)
	}
	k := gateKey(gateXor, 3, 9)
	tab.put(k, 7)
	if a := testing.AllocsPerRun(100, func() { tab.get(k) }); a != 0 {
		t.Errorf("lookup: %v allocs, want 0", a)
	}
}
