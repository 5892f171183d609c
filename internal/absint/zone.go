package absint

import "fusion/internal/ssa"

// The zone (difference-bound) relational domain: a sparse difference-bound
// matrix over an arbitrary comparable node type N, tracking facts of the
// form x − y ≤ c over mathematical integers. The zero value of N is the
// distinguished "zero" node standing for the constant 0, which encodes
// unary bounds (x ≤ c is x − zero ≤ c) and lets constant comparison
// operands normalize to an offset against the zero node.
//
// The matrix is kept transitively closed by incremental Floyd–Warshall
// relaxation on every insertion, so a lookup is a single map probe. A
// negative self-cycle means the fact set is contradictory (the zone is
// empty); dead records that.
//
// Soundness note: facts are over unbounded integers, so every edge added
// for machine arithmetic (Add/Sub definitions) must carry a no-overflow
// proof from the operand intervals — see defEdges. Comparison-
// derived edges need no proof: the language's comparisons are signed and
// wrap-free by definition.

// diffKey identifies the DBM edge x − y ≤ c.
type diffKey[N comparable] struct{ x, y N }

// maxZoneEdges caps a single zone's edge count; insertions beyond the cap
// are dropped, which is sound (fewer facts, weaker zone).
const maxZoneEdges = 2048

// weight saturation bound: far beyond any derivable 32-bit difference but
// small enough that closure sums cannot overflow int64.
const maxZoneWeight = int64(1) << 40

type dbm[N comparable] struct {
	edges map[diffKey[N]]int64
	dead  bool
	// stop, when non-nil, is polled on insertion; once it reports true
	// new facts are dropped, which is sound (a weaker zone) and lets a
	// cancelled refuter cut the incremental-closure work short.
	stop func() bool
}

func newDBM[N comparable]() *dbm[N] {
	return &dbm[N]{edges: map[diffKey[N]]int64{}}
}

func (d *dbm[N]) clone() *dbm[N] {
	nd := &dbm[N]{edges: make(map[diffKey[N]]int64, len(d.edges)), dead: d.dead, stop: d.stop}
	for k, c := range d.edges {
		nd.edges[k] = c
	}
	return nd
}

func clampWeight(c int64) int64 {
	switch {
	case c > maxZoneWeight:
		return maxZoneWeight
	case c < -maxZoneWeight:
		return -maxZoneWeight
	}
	return c
}

// add records x − y ≤ c and restores transitive closure. It reports
// whether the zone changed (a new or strictly tighter fact, or death).
func (d *dbm[N]) add(x, y N, c int64) bool {
	if d.dead {
		return false
	}
	c = clampWeight(c)
	if x == y {
		if c < 0 {
			d.dead = true
			return true
		}
		return false
	}
	if cur, ok := d.edges[diffKey[N]{x, y}]; ok && cur <= c {
		return false
	}
	if len(d.edges) >= maxZoneEdges {
		return false // capacity: drop the fact, keep the zone sound
	}
	if d.stop != nil && d.stop() {
		return false // cancelled: drop the fact, keep the zone sound
	}
	// Incremental closure: relax every path routed through the new edge.
	// ins holds the i with i − x ≤ w (including the trivial i = x), outs
	// the j with y − j ≤ w; the candidate fact is i − j ≤ w_in + c + w_out.
	type hop struct {
		n N
		w int64
	}
	ins := []hop{{x, 0}}
	outs := []hop{{y, 0}}
	for k, w := range d.edges {
		if k.y == x && k.x != x {
			ins = append(ins, hop{k.x, w})
		}
		if k.x == y && k.y != y {
			outs = append(outs, hop{k.y, w})
		}
	}
	changed := false
	for _, i := range ins {
		for _, j := range outs {
			w := clampWeight(i.w + c + j.w)
			if i.n == j.n {
				if w < 0 {
					d.dead = true
					return true
				}
				continue
			}
			k := diffKey[N]{i.n, j.n}
			if cur, ok := d.edges[k]; !ok || w < cur {
				d.edges[k] = w
				changed = true
			}
		}
	}
	return changed
}

// addNorm records (xn + xo) − (yn + yo) ≤ c, the offset-normalized form
// produced when constant operands are folded into the zero node. It
// reports whether the zone changed.
func (d *dbm[N]) addNorm(xn N, xo int64, yn N, yo int64, c int64) bool {
	return d.add(xn, yn, c-xo+yo)
}

// bound projects the zone's bounds onto an operand named by node n with
// offset off, as unary does; ok is false when the zone is nil or dead, or
// when named is false (the operand has no node).
func (d *dbm[N]) bound(n N, off int64, named bool) (iv Interval, ok bool) {
	if !named || d == nil || d.dead {
		return Interval{}, false
	}
	return d.unary(n, off), true
}

// diff returns the proven upper bound on (xn + xo) − (yn + yo), if any.
// Identical nodes give the exact offset difference.
func (d *dbm[N]) diff(xn N, xo int64, yn N, yo int64) (int64, bool) {
	if xn == yn {
		return xo - yo, true
	}
	c, ok := d.edges[diffKey[N]{xn, yn}]
	if !ok {
		return 0, false
	}
	return c + xo - yo, true
}

// unary projects the zone's bounds against the zero node onto an interval
// for node n with offset off.
func (d *dbm[N]) unary(n N, off int64) Interval {
	var zero N
	lo, hi := int64(minI32), int64(maxI32)
	if c, ok := d.diff(n, off, zero, 0); ok && c < hi {
		hi = c
	}
	if c, ok := d.diff(zero, 0, n, off); ok && -c > lo {
		lo = -c
	}
	return Interval{lo, hi}
}

// join widens the receiver to the least upper bound with o (pointwise max
// over the common edges); facts present in only one branch are dropped. A
// dead operand contributes nothing and the other side wins.
func (d *dbm[N]) join(o *dbm[N]) *dbm[N] {
	if d.dead {
		return o.clone()
	}
	if o.dead {
		return d.clone()
	}
	nd := &dbm[N]{edges: map[diffKey[N]]int64{}, stop: d.stop}
	for k, c := range d.edges {
		if oc, ok := o.edges[k]; ok {
			if oc > c {
				c = oc
			}
			nd.edges[k] = c
		}
	}
	return nd
}

// DiffFact is one difference-bound fact X − Y ≤ C; a nil endpoint
// stands for the constant zero.
type DiffFact struct {
	X, Y *ssa.Value
	C    int64
}
