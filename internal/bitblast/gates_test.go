package bitblast

import (
	"math/rand"
	"testing"

	"fusion/internal/sat"
)

// TestGateTableMatchesMap drives a gateTable and a Go map with the same
// operations: random gate keys, runs of keys that share a first probe
// position, and enough entries to double the table many times. Every
// lookup, hits and misses alike, must agree with the map's.
func TestGateTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var tab gateTable
	ref := map[uint64]sat.Lit{}
	randKey := func() uint64 {
		x := sat.Lit(rng.Intn(1 << 20))
		y := x + 1 + sat.Lit(rng.Intn(1<<20))
		if rng.Intn(4) == 0 { // literals near the top of the range
			x, y = x+1<<30, y+1<<30
		}
		return gateKey(rng.Intn(2), x, y)
	}
	check := func(k uint64) {
		t.Helper()
		got, ok := tab.get(k)
		want, wok := ref[k]
		if ok != wok || got != want {
			t.Fatalf("key %#x: table (%d, %v), map (%d, %v)", k, got, ok, want, wok)
		}
	}
	put := func(k uint64) {
		if _, ok := ref[k]; ok {
			return
		}
		g := sat.Lit(rng.Int31())
		tab.put(k, g)
		ref[k] = g
	}

	// Keys that share a first probe position in the first table size:
	// each group forms one probe run.
	tab.rehash(minGateSlots)
	byHome := map[int][]uint64{}
	for len(byHome[0]) < 6 || len(byHome[1]) < 6 {
		k := randKey()
		byHome[tab.home(k)] = append(byHome[tab.home(k)], k)
	}
	for _, k := range append(byHome[0][:6], byHome[1][:6]...) {
		check(k)
		put(k)
		check(k)
	}
	for i := 0; i < 200_000; i++ {
		k := randKey()
		check(k)
		if rng.Intn(3) != 0 {
			put(k)
			check(k)
		}
	}
	if tab.n != len(ref) {
		t.Fatalf("table holds %d entries, map %d", tab.n, len(ref))
	}
	if len(tab.slots) < 1<<17 {
		t.Fatalf("table has %d slots: it did not grow through several doublings", len(tab.slots))
	}
	for k := range ref {
		check(k)
	}
}
