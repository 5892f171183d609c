package bitblast

import (
	"math/bits"

	"fusion/internal/sat"
)

// Gate kinds, the low bit of a gate key.
const (
	gateAnd = 0
	gateXor = 1
)

// gateKey packs a gate's kind and its two input literals, x < y, into
// one word. Literals are non-negative, so the fields do not overlap, and
// y > x >= 0 makes every key nonzero, which leaves zero to mark an empty
// slot of a gateTable.
func gateKey(kind int, x, y sat.Lit) uint64 {
	return uint64(x)<<32 | uint64(y)<<1 | uint64(kind)
}

// gateTable is the blaster's structural hash of gates: an open-addressing
// table from gate key to output literal with linear probing, whose
// capacity is a power of two kept at least twice its entry count. It
// holds no pointer, so the garbage collector never scans it, and it
// allocates only when it doubles.
type gateTable struct {
	slots []gateSlot
	n     int
	shift uint // 64 - log2(len(slots))
}

type gateSlot struct {
	key uint64
	lit sat.Lit
}

// minGateSlots is the capacity of a gateTable's first allocation.
const minGateSlots = 64

// home returns key's first probe position (Fibonacci hashing: the top
// bits of the key times 2^64 over the golden ratio).
func (t *gateTable) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// get returns the output literal stored under key.
func (t *gateTable) get(key uint64) (sat.Lit, bool) {
	if t.n == 0 {
		return 0, false
	}
	m := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & m {
		switch t.slots[i].key {
		case key:
			return t.slots[i].lit, true
		case 0:
			return 0, false
		}
	}
}

// put stores lit under key, which must not be in the table yet.
func (t *gateTable) put(key uint64, lit sat.Lit) {
	if 2*(t.n+1) > len(t.slots) {
		t.rehash(max(2*len(t.slots), minGateSlots))
	}
	t.insert(key, lit)
	t.n++
}

func (t *gateTable) insert(key uint64, lit sat.Lit) {
	m := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i].key != 0 {
		i = (i + 1) & m
	}
	t.slots[i] = gateSlot{key, lit}
}

// rehash moves every entry into a table of the given power-of-two size.
func (t *gateTable) rehash(size int) {
	old := t.slots
	t.slots = make([]gateSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.key != 0 {
			t.insert(s.key, s.lit)
		}
	}
}
