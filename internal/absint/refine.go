package absint

import "fusion/internal/ssa"

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
	// fn is the function under evaluation; local and localSt are indexed
	// by the ID of its values, which is the value's position in
	// fn.Values. Values are evaluated in that order, so the first defined
	// entries are exactly the values evaluated so far; every other value,
	// or one of another function, reads as top.
	fn      *ssa.Function
	defined int
	local   []Interval
	// localSt mirrors local in the congruence domain; only read when
	// stride is on.
	localSt []Stride
	// envs holds the environment of each guard chain, indexed by the
	// guard's ID and created on demand; root is the unguarded one. Facts
	// are only ever derived into a guard's environment, so root's refined
	// and st stay empty.
	envs []*refEnv
	root refEnv
	// pool holds every guard environment the refiner has made; the
	// first pooled belong to the current pass, and child reuses the rest
	// before it allocates.
	pool   []*refEnv
	pooled int
	// zone enables the relational (difference-bound) domain.
	zone bool
	// stride enables the congruence domain.
	stride bool
}

// refEnv is the record pass's fact store: the facts valid whenever one
// guard chain holds.
type refEnv struct {
	r *refiner
	// refined and st hold the guard chain's interval and stride
	// refinements, one entry per value at most. Guard rules only derive
	// facts about values of the body under evaluation, so an entry is
	// keyed by the value's ID. st stays empty when the congruence domain
	// is off.
	refined []fact[Interval]
	st      []fact[Stride]
	// z is the environment's zone; nil when the domain is disabled.
	z           *dbm[*ssa.Value]
	unreachable bool // the guard chain is contradictory: code under it is unreachable
}

// fact is one refinement held by a guard environment.
type fact[T any] struct {
	id int32
	v  T
}

// lookup returns the fact fs holds on value id.
func lookup[T any](fs []fact[T], id int) (T, bool) {
	for _, f := range fs {
		if int(f.id) == id {
			return f.v, true
		}
	}
	var none T
	return none, false
}

// put sets the fact fs holds on value id.
func put[T any](fs []fact[T], id int, v T) []fact[T] {
	for i := range fs {
		if int(fs[i].id) == id {
			fs[i].v = v
			return fs
		}
	}
	return append(fs, fact[T]{int32(id), v})
}

// reset readies r for a pass over f's body, reusing its tables.
func (r *refiner) reset(f *ssa.Function, zone, stride bool) {
	n := len(f.Values)
	if cap(r.local) < n {
		r.local = make([]Interval, n)
	}
	if cap(r.envs) < n {
		r.envs = make([]*refEnv, n)
	}
	if stride && cap(r.localSt) < n {
		r.localSt = make([]Stride, n)
	}
	r.fn, r.defined = f, 0
	r.local, r.envs = r.local[:n], r.envs[:n]
	clear(r.envs)
	r.zone, r.stride = zone, stride
	r.pooled = 0
	r.root = refEnv{r: r}
	if zone {
		r.root.z = newDBM[*ssa.Value]()
	}
}

// define records v's facts; v must be the next value of r.fn.
func (r *refiner) define(v *ssa.Value, iv Interval, st Stride) {
	r.local[v.ID] = iv
	if r.stride {
		r.localSt[v.ID] = st
	}
	r.defined = v.ID + 1
}

func (r *refiner) base(x *ssa.Value) Interval {
	if x.Fn == r.fn && x.ID < r.defined {
		return r.local[x.ID]
	}
	return Top(width(x))
}

func (r *refiner) baseSt(x *ssa.Value) Stride {
	if x.Op == ssa.OpConst {
		return SingleStride(SignExt(x.Const, width(x)))
	}
	if r.stride && x.Fn == r.fn && x.ID < r.defined {
		return r.localSt[x.ID]
	}
	return TopStride()
}

// envFor returns the environment of the guard chain ending at g.
func (r *refiner) envFor(g *ssa.Value) *refEnv {
	if g == nil {
		return &r.root
	}
	if env := r.envs[g.ID]; env != nil {
		return env
	}
	env := r.envFor(g.Guard).child()
	derive(env, g.Args[0], true, 0)
	r.envs[g.ID] = env
	return env
}

// child clones an environment: refined intervals, strides and the zone.
func (env *refEnv) child() *refEnv {
	r := env.r
	if r.pooled == len(r.pool) {
		r.pool = append(r.pool, &refEnv{r: r})
	}
	c := r.pool[r.pooled]
	r.pooled++
	c.refined = append(c.refined[:0], env.refined...)
	c.st = append(c.st[:0], env.st...)
	c.z = nil
	if env.z != nil {
		c.z = env.z.clone()
	}
	c.unreachable = env.unreachable
	return c
}

func (env *refEnv) interval(x *ssa.Value) Interval {
	if x.Fn == env.r.fn {
		if iv, ok := lookup(env.refined, x.ID); ok {
			return iv
		}
	}
	return env.r.base(x)
}

func (env *refEnv) stride(x *ssa.Value) Stride {
	if x.Fn == env.r.fn {
		if st, ok := lookup(env.st, x.ID); ok {
			return st
		}
	}
	return env.r.baseSt(x)
}

func (env *refEnv) striding() bool { return env.r.stride }
func (env *refEnv) dead() bool     { return env.unreachable }
func (env *refEnv) kill()          { env.unreachable = true }

// opaque is always false: the record pass walks the structure of every
// condition.
func (env *refEnv) opaque(*ssa.Value) bool { return false }

// constrain meets x's interval with the given fact, reducing it against
// x's stride in the same step; an empty combination marks the environment
// dead.
func (env *refEnv) constrain(x *ssa.Value, with Interval) {
	m := env.interval(x).Meet(with)
	if env.r.stride {
		var st Stride
		m, st = reduce(m, env.stride(x))
		if m.IsBottom() {
			env.unreachable = true
			return
		}
		if x.Op != ssa.OpConst {
			env.refined = put(env.refined, x.ID, m)
			env.st = put(env.st, x.ID, st)
		}
		return
	}
	if m.IsBottom() {
		env.unreachable = true
		return
	}
	if x.Op != ssa.OpConst {
		env.refined = put(env.refined, x.ID, m)
	}
}

// constrainSt meets x's stride with the given fact, reducing the
// interval against the sharpened stride; an empty combination marks the
// environment dead.
func (env *refEnv) constrainSt(x *ssa.Value, with Stride) {
	if !env.r.stride || env.unreachable {
		return
	}
	m := env.stride(x).Meet(with)
	iv, m2 := reduce(env.interval(x), m)
	if iv.IsBottom() {
		env.unreachable = true
		return
	}
	if x.Op != ssa.OpConst {
		env.refined = put(env.refined, x.ID, iv)
		env.st = put(env.st, x.ID, m2)
	}
}

// relate records x − y ≤ c in the environment's zone; a negative cycle
// marks the environment dead.
func (env *refEnv) relate(x, y *ssa.Value, c int64) {
	if env.z == nil || env.unreachable {
		return
	}
	xn, xo, okx := zoneOperand(x)
	yn, yo, oky := zoneOperand(y)
	if !okx || !oky {
		return
	}
	env.z.addNorm(xn, xo, yn, yo, c)
	if env.z.dead {
		env.unreachable = true
	}
}

// noteDef records the zone edges implied by v's defining equation into the
// environment of v's guard. Beyond defEdges, an ite whose condition the
// environment decides is a copy of the taken operand.
func (r *refiner) noteDef(v *ssa.Value) {
	if !r.zone {
		return
	}
	env := r.envFor(v.Guard)
	if env.z == nil || env.unreachable || width(v) != 32 || v.Op == ssa.OpConst {
		return
	}
	if v.Op != ssa.OpIte {
		defEdges(env, v)
		return
	}
	switch c := env.interval(v.Args[0]); {
	case c.Lo == 1 && c.Hi == 1:
		equate(env, v, v.Args[1])
	case c.Lo == 0 && c.Hi == 0:
		equate(env, v, v.Args[2])
	}
}

// disjoin handles a disjunctive fact "a evaluates to want OR b
// evaluates to want": each disjunct is derived into a scratch copy of the
// environment and the results are joined, so a guard like x < 3 || x < 5
// still bounds x (to the weaker of the two facts) instead of deriving
// nothing. A disjunct whose scratch environment dies is unsatisfiable
// here, so the other disjunct's facts hold outright; if both die the whole
// environment is dead. Only the record pass joins disjunctions.
func (env *refEnv) disjoin(a, b *ssa.Value, want bool, depth int) {
	ea, eb := env.child(), env.child()
	derive(ea, a, want, depth+1)
	derive(eb, b, want, depth+1)
	switch {
	case ea.unreachable && eb.unreachable:
		env.unreachable = true
		return
	case ea.unreachable:
		env.adopt(eb)
		return
	case eb.unreachable:
		env.adopt(ea)
		return
	}
	// Interval join over every value either branch refined. Both scratch
	// environments start from env, so the join is never wider than the
	// current fact and constrain's meet keeps the tighter of old and new.
	// The facts are independent, so their order does not matter.
	for _, f := range ea.refined {
		if env.joinInterval(f.id, ea, eb) {
			return
		}
	}
	for _, f := range eb.refined {
		if _, both := lookup(ea.refined, int(f.id)); !both && env.joinInterval(f.id, ea, eb) {
			return
		}
	}
	if env.r.stride {
		for _, f := range ea.st {
			if env.joinStride(f.id, ea, eb) {
				return
			}
		}
		for _, f := range eb.st {
			if _, both := lookup(ea.st, int(f.id)); !both && env.joinStride(f.id, ea, eb) {
				return
			}
		}
	}
	if env.z != nil {
		env.z = ea.z.join(eb.z)
	}
}

// adopt replaces env's facts with a copy of o's. Pooled environments
// must not share their fact slices.
func (env *refEnv) adopt(o *refEnv) {
	env.refined = append(env.refined[:0], o.refined...)
	env.st = append(env.st[:0], o.st...)
	env.z = o.z
}

// joinInterval constrains value id to the join of its intervals in ea
// and eb, and reports whether env died.
func (env *refEnv) joinInterval(id int32, ea, eb *refEnv) bool {
	x := env.r.fn.Values[id]
	env.constrain(x, ea.interval(x).Join(eb.interval(x)))
	return env.unreachable
}

// joinStride constrains value id to the join of its strides in ea and
// eb, and reports whether env died.
func (env *refEnv) joinStride(id int32, ea, eb *refEnv) bool {
	x := env.r.fn.Values[id]
	env.constrainSt(x, ea.stride(x).Join(eb.stride(x)))
	return env.unreachable
}
