package absint

import (
	"fusion/internal/lang"
	"fusion/internal/ssa"
)

// refiner narrows vertex intervals under a guard chain. Gated SSA wraps
// else-branches in an explicit OpNot, so a guard vertex always asserts
// that its condition (Args[0]) is true; refinement environments are
// memoized per guard vertex and extend the parent guard's environment.
//
// With the zone domain enabled, every environment additionally carries a
// difference-bound matrix over the function's SSA values: comparisons
// contribute relational edges (x < y gives x − y ≤ −1), definitions of
// copies and overflow-free additions/subtractions contribute definitional
// edges, and a negative cycle marks the guard chain dead just like an
// empty interval meet does.
type refiner struct {
	local map[*ssa.Value]Interval
	// localSt mirrors local in the congruence domain; nil when off.
	localSt map[*ssa.Value]Stride
	envs    map[*ssa.Value]*refEnv
	empty   *refEnv
	// zone enables the relational (difference-bound) domain.
	zone bool
	// stride enables the congruence domain.
	stride bool
}

type refEnv struct {
	refined map[*ssa.Value]Interval
	// st holds the guard chain's stride refinements; nil when off.
	st map[*ssa.Value]Stride
	// z is the environment's zone; nil when the domain is disabled.
	z    *dbm[*ssa.Value]
	dead bool // the guard chain is contradictory: code under it is unreachable
}

const maxDeriveDepth = 64

func newRefiner(local map[*ssa.Value]Interval, localSt map[*ssa.Value]Stride, zone, stride bool) *refiner {
	r := &refiner{
		local:   local,
		localSt: localSt,
		envs:    map[*ssa.Value]*refEnv{},
		empty:   &refEnv{refined: map[*ssa.Value]Interval{}},
		zone:    zone,
		stride:  stride,
	}
	if zone {
		r.empty.z = newDBM[*ssa.Value]()
	}
	if stride {
		r.empty.st = map[*ssa.Value]Stride{}
	}
	return r
}

// lookup returns x's interval as seen under the given guard chain.
func (r *refiner) lookup(x *ssa.Value, guard *ssa.Value) Interval {
	env := r.envFor(guard)
	if iv, ok := env.refined[x]; ok {
		return iv
	}
	return r.base(x)
}

// contradicted reports whether the guard chain can never hold.
func (r *refiner) contradicted(guard *ssa.Value) bool {
	return r.envFor(guard).dead
}

func (r *refiner) base(x *ssa.Value) Interval {
	if iv, ok := r.local[x]; ok {
		return iv
	}
	return Top(width(x))
}

// lookupSt returns x's stride as seen under the given guard chain.
func (r *refiner) lookupSt(x *ssa.Value, guard *ssa.Value) Stride {
	return r.curSt(x, r.envFor(guard))
}

func (r *refiner) baseSt(x *ssa.Value) Stride {
	if x.Op == ssa.OpConst {
		return SingleStride(SignExt(x.Const, width(x)))
	}
	if st, ok := r.localSt[x]; ok {
		return st
	}
	return TopStride()
}

func (r *refiner) curSt(x *ssa.Value, env *refEnv) Stride {
	if st, ok := env.st[x]; ok {
		return st
	}
	return r.baseSt(x)
}

func (r *refiner) envFor(g *ssa.Value) *refEnv {
	if g == nil {
		return r.empty
	}
	if env, ok := r.envs[g]; ok {
		return env
	}
	parent := r.envFor(g.Guard)
	env := r.childEnv(parent)
	if !env.dead {
		r.derive(g.Args[0], true, env, 0)
	}
	r.envs[g] = env
	return env
}

// childEnv clones an environment: refined intervals and the zone.
func (r *refiner) childEnv(parent *refEnv) *refEnv {
	env := &refEnv{
		refined: make(map[*ssa.Value]Interval, len(parent.refined)+2),
		dead:    parent.dead,
	}
	for v, iv := range parent.refined {
		env.refined[v] = iv
	}
	if parent.st != nil {
		env.st = make(map[*ssa.Value]Stride, len(parent.st)+2)
		for v, st := range parent.st {
			env.st[v] = st
		}
	}
	if parent.z != nil {
		env.z = parent.z.clone()
	}
	return env
}

func (r *refiner) cur(x *ssa.Value, env *refEnv) Interval {
	if iv, ok := env.refined[x]; ok {
		return iv
	}
	return r.base(x)
}

// constrain meets x's interval with the given fact, reducing it against
// x's stride; an empty combination marks the environment dead.
func (r *refiner) constrain(x *ssa.Value, with Interval, env *refEnv) {
	m := r.cur(x, env).Meet(with)
	if r.stride {
		var st Stride
		m, st = reduce(m, r.curSt(x, env))
		if m.IsBottom() {
			env.dead = true
			return
		}
		if x.Op != ssa.OpConst {
			env.refined[x] = m
			env.st[x] = st
		}
		return
	}
	if m.IsBottom() {
		env.dead = true
		return
	}
	if x.Op != ssa.OpConst {
		env.refined[x] = m
	}
}

// constrainSt meets x's stride with the given fact, reducing the
// interval against the sharpened stride; an empty combination marks the
// environment dead.
func (r *refiner) constrainSt(x *ssa.Value, with Stride, env *refEnv) {
	if !r.stride || env.dead {
		return
	}
	m := r.curSt(x, env).Meet(with)
	iv, m2 := reduce(r.cur(x, env), m)
	if iv.IsBottom() {
		env.dead = true
		return
	}
	if x.Op != ssa.OpConst {
		env.refined[x] = iv
		env.st[x] = m2
	}
}

// zoneAdd records (xn + xo) − (yn + yo) ≤ c in the environment's zone; a
// negative cycle marks the environment dead.
func (r *refiner) zoneAdd(env *refEnv, xn *ssa.Value, xo int64, yn *ssa.Value, yo int64, c int64) {
	if env.z == nil || env.dead {
		return
	}
	env.z.addNorm(xn, xo, yn, yo, c)
	if env.z.dead {
		env.dead = true
	}
}

// zoneOperand normalizes a 32-bit operand to a DBM node plus a constant
// offset; constants fold into the distinguished zero node (nil).
func zoneOperand(v *ssa.Value) (n *ssa.Value, off int64, ok bool) {
	if width(v) != 32 {
		return nil, 0, false
	}
	if v.Op == ssa.OpConst {
		return nil, int64(int32(v.Const)), true
	}
	return v, 0, true
}

// noteDef records the zone edges implied by v's defining equation into the
// environment of v's guard. Gated SSA equations are pure, so a copy always
// yields exact equality edges; machine addition and subtraction only yield
// edges when the operand intervals prove the operation cannot wrap.
func (r *refiner) noteDef(v *ssa.Value) {
	if !r.zone {
		return
	}
	env := r.envFor(v.Guard)
	if env.z == nil || env.dead || width(v) != 32 || v.Op == ssa.OpConst {
		return
	}
	eq := func(x *ssa.Value) {
		xn, xo, ok := zoneOperand(x)
		if !ok {
			return
		}
		r.zoneAdd(env, v, 0, xn, xo, 0)
		r.zoneAdd(env, xn, xo, v, 0, 0)
	}
	switch v.Op {
	case ssa.OpCopy, ssa.OpReturn:
		eq(v.Args[0])
	case ssa.OpIte:
		c := r.cur(v.Args[0], env)
		switch {
		case c.Lo == 1 && c.Hi == 1:
			eq(v.Args[1])
		case c.Lo == 0 && c.Hi == 0:
			eq(v.Args[2])
		}
	case ssa.OpBin:
		x, y := v.Args[0], v.Args[1]
		ix, iy := r.cur(x, env), r.cur(y, env)
		if ix.IsBottom() || iy.IsBottom() {
			return
		}
		xn, xo, okx := zoneOperand(x)
		yn, yo, oky := zoneOperand(y)
		switch v.BinOp {
		case lang.OpAdd:
			if ix.Lo+iy.Lo < minI32 || ix.Hi+iy.Hi > maxI32 {
				return // may wrap: no integer edge is sound
			}
			if okx {
				r.zoneAdd(env, v, 0, xn, xo, iy.Hi)
				r.zoneAdd(env, xn, xo, v, 0, -iy.Lo)
			}
			if oky {
				r.zoneAdd(env, v, 0, yn, yo, ix.Hi)
				r.zoneAdd(env, yn, yo, v, 0, -ix.Lo)
			}
		case lang.OpSub:
			if x == y {
				return // handled exactly by the interval transfer
			}
			if ix.Lo-iy.Hi < minI32 || ix.Hi-iy.Lo > maxI32 {
				return
			}
			if okx {
				r.zoneAdd(env, v, 0, xn, xo, -iy.Lo)
				r.zoneAdd(env, xn, xo, v, 0, iy.Hi)
			}
		}
	}
}

// derive propagates the fact "c evaluates to want" into the environment,
// walking the condition's structure.
func (r *refiner) derive(c *ssa.Value, want bool, env *refEnv, depth int) {
	if env.dead || depth > maxDeriveDepth {
		return
	}
	// The condition vertex itself is now known.
	if want {
		r.constrain(c, Interval{1, 1}, env)
	} else {
		r.constrain(c, Interval{0, 0}, env)
	}
	if env.dead {
		return
	}
	switch c.Op {
	case ssa.OpCopy:
		r.derive(c.Args[0], want, env, depth+1)
	case ssa.OpNot:
		r.derive(c.Args[0], !want, env, depth+1)
	case ssa.OpBin:
		switch c.BinOp {
		case lang.OpAnd:
			if want {
				r.derive(c.Args[0], true, env, depth+1)
				r.derive(c.Args[1], true, env, depth+1)
			} else {
				// ¬(a ∧ b) = ¬a ∨ ¬b: derive each disjunct separately
				// and join.
				r.deriveJoin(c.Args[0], c.Args[1], false, env, depth)
			}
		case lang.OpOr:
			if !want {
				r.derive(c.Args[0], false, env, depth+1)
				r.derive(c.Args[1], false, env, depth+1)
			} else {
				r.deriveJoin(c.Args[0], c.Args[1], true, env, depth)
			}
		case lang.OpLt, lang.OpLe, lang.OpGt, lang.OpGe, lang.OpEq, lang.OpNe:
			r.deriveCmp(c.BinOp, c.Args[0], c.Args[1], want, env)
		}
	}
}

// deriveJoin handles a disjunctive fact "a evaluates to want OR b
// evaluates to want": each disjunct is derived into a scratch copy of the
// environment and the results are joined, so a guard like x < 3 || x < 5
// still bounds x (to the weaker of the two facts) instead of deriving
// nothing. A disjunct whose scratch environment dies is unsatisfiable
// here, so the other disjunct's facts hold outright; if both die the whole
// environment is dead.
func (r *refiner) deriveJoin(a, b *ssa.Value, want bool, env *refEnv, depth int) {
	ea, eb := r.childEnv(env), r.childEnv(env)
	r.derive(a, want, ea, depth+1)
	r.derive(b, want, eb, depth+1)
	switch {
	case ea.dead && eb.dead:
		env.dead = true
		return
	case ea.dead:
		env.refined, env.st, env.z = eb.refined, eb.st, eb.z
		return
	case eb.dead:
		env.refined, env.st, env.z = ea.refined, ea.st, ea.z
		return
	}
	// Interval join over every key either branch refined. Both scratch
	// environments start from env, so the join is never wider than the
	// current fact and constrain's meet keeps the tighter of old and new.
	keys := make(map[*ssa.Value]bool, len(ea.refined)+len(eb.refined))
	for x := range ea.refined {
		keys[x] = true
	}
	for x := range eb.refined {
		keys[x] = true
	}
	for x := range keys {
		r.constrain(x, r.cur(x, ea).Join(r.cur(x, eb)), env)
		if env.dead {
			return
		}
	}
	if r.stride {
		stKeys := make(map[*ssa.Value]bool, len(ea.st)+len(eb.st))
		for x := range ea.st {
			stKeys[x] = true
		}
		for x := range eb.st {
			stKeys[x] = true
		}
		for x := range stKeys {
			r.constrainSt(x, r.curSt(x, ea).Join(r.curSt(x, eb)), env)
			if env.dead {
				return
			}
		}
	}
	if env.z != nil {
		env.z = ea.z.join(eb.z)
	}
}

// deriveCmp refines both operands of a comparison known to evaluate to
// want. All comparisons are signed, matching the SMT encoding.
func (r *refiner) deriveCmp(op lang.BinOp, x, y *ssa.Value, want bool, env *refEnv) {
	rl, swap := normalizeRel(op, want)
	if swap {
		x, y = y, x
	}
	cx, cy := r.cur(x, env), r.cur(y, env)
	if cx.IsBottom() || cy.IsBottom() {
		env.dead = true
		return
	}
	nx, ny := relConstraints(rl, cx, cy)
	r.constrain(x, nx, env)
	r.constrain(y, ny, env)
	if env.dead {
		return
	}
	if r.stride {
		switch rl {
		case relEq:
			// Equal values share a stride, and a `%`-equality guard
			// fixes the dividend's congruence class.
			sx, sy := r.curSt(x, env), r.curSt(y, env)
			r.constrainSt(x, sy, env)
			r.constrainSt(y, sx, env)
			r.deriveRem(x, y, true, env)
			r.deriveRem(y, x, true, env)
		case relNe:
			r.deriveRem(x, y, false, env)
			r.deriveRem(y, x, false, env)
		}
		if env.dead {
			return
		}
	}
	if env.z == nil {
		return
	}
	// The relation itself becomes a zone edge — the fact the interval
	// domain necessarily throws away when neither endpoint is constant.
	xn, xo, okx := zoneOperand(x)
	yn, yo, oky := zoneOperand(y)
	if !okx || !oky {
		return
	}
	switch rl {
	case relLt:
		r.zoneAdd(env, xn, xo, yn, yo, -1)
	case relLe:
		r.zoneAdd(env, xn, xo, yn, yo, 0)
	case relEq:
		r.zoneAdd(env, xn, xo, yn, yo, 0)
		r.zoneAdd(env, yn, yo, xn, xo, 0)
	}
}

// deriveRem propagates a `%`-equality guard backward to the dividend:
// (d % K) == R with constant K >= 2 and known R ∈ [0, K) gives
// d ≡ R (mod K) when d is provably non-negative, and the always-sound
// d ≡ R (mod gcd(K, 2^w)) otherwise, where w is the dividend's width
// (the machine remainder sees d's unsigned view, which agrees with d
// modulo 2^w). With eq false, only parity flips: (d % 2) != R gives
// d ≡ 1−R (mod 2).
func (r *refiner) deriveRem(e, val *ssa.Value, eq bool, env *refEnv) {
	if env.dead || e.Op != ssa.OpBin || e.BinOp != lang.OpRem {
		return
	}
	kv := e.Args[1]
	if kv.Op != ssa.OpConst {
		return
	}
	k := SignExt(kv.Const, width(kv))
	if k < 2 {
		return
	}
	cv := r.cur(val, env)
	if cv.Lo != cv.Hi || cv.Lo < 0 || cv.Lo >= k {
		return
	}
	rem := cv.Lo
	d := e.Args[0]
	if eq {
		mod := gcd64(k, wrapModulus(width(d)))
		if r.cur(d, env).Lo >= 0 {
			mod = k
		}
		r.constrainSt(d, mkStride(mod, rem), env)
		return
	}
	if k == 2 {
		r.constrainSt(d, mkStride(2, 1-rem), env)
	}
}

// rel is a canonical comparison relation after polarity normalization.
type rel int

const (
	relLt rel = iota // x < y
	relLe            // x <= y
	relEq            // x == y
	relNe            // x != y
)

// normalizeRel maps a comparison operator known to evaluate to want onto a
// canonical relation, possibly with swapped operands:
// ¬(x<y) = y<=x, ¬(x<=y) = y<x, ¬(x==y) = x!=y, ¬(x!=y) = x==y.
func normalizeRel(op lang.BinOp, want bool) (rl rel, swap bool) {
	switch op {
	case lang.OpLt:
		rl = relLt
	case lang.OpLe:
		rl = relLe
	case lang.OpGt:
		rl, swap = relLt, true
	case lang.OpGe:
		rl, swap = relLe, true
	case lang.OpEq:
		rl = relEq
	case lang.OpNe:
		rl = relNe
	}
	if !want {
		switch rl {
		case relLt:
			rl, swap = relLe, !swap
		case relLe:
			rl, swap = relLt, !swap
		case relEq:
			rl = relNe
		case relNe:
			rl = relEq
		}
	}
	return rl, swap
}

// relConstraints returns the intervals to meet into x and y given that
// "x rl y" holds and the operands currently lie in cx and cy. A bottom
// result signals a contradiction.
//
// Invariant: the relLt endpoints cy.Hi − 1 and cx.Lo + 1 are deliberately
// NOT clamped. When cy.Hi == minI32 the then-branch result {minI32,
// minI32 − 1} has Lo > Hi, which is exactly the bottom encoding — x < y
// with y at the minimum is unsatisfiable — and symmetrically for cx.Lo ==
// maxI32. A clamp or normalize pass here would silently turn these
// contradictions into wraparound intervals; see TestRelConstraintsEndpoints.
func relConstraints(rl rel, cx, cy Interval) (nx, ny Interval) {
	switch rl {
	case relLt:
		return Interval{minI32, cy.Hi - 1}, Interval{cx.Lo + 1, maxI32}
	case relLe:
		return Interval{minI32, cy.Hi}, Interval{cx.Lo, maxI32}
	case relEq:
		return cy, cx
	case relNe:
		nx, ny = cx, cy
		if cy.Lo == cy.Hi {
			nx = trimmed(cx, cy.Lo)
		}
		if cx.Lo == cx.Hi {
			ny = trimmed(cy, cx.Lo)
		}
		return nx, ny
	}
	return Top(32), Top(32)
}

// trimmed removes a single excluded value from an interval when it sits on
// an endpoint (intervals cannot represent interior holes).
func trimmed(c Interval, excluded int64) Interval {
	switch {
	case c.Lo == c.Hi && c.Lo == excluded:
		return Bottom()
	case c.Lo == excluded:
		return Interval{c.Lo + 1, c.Hi}
	case c.Hi == excluded:
		return Interval{c.Lo, c.Hi - 1}
	}
	return c
}
