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
	local map[*ssa.Value]Interval
	// localSt mirrors local in the congruence domain; nil when off.
	localSt map[*ssa.Value]Stride
	// envs holds the environment of each guard chain, created on demand;
	// root is the unguarded one. Facts are only ever derived into a
	// guard's environment, so root's refined and st maps stay nil.
	envs map[*ssa.Value]*refEnv
	root refEnv
	// zone enables the relational (difference-bound) domain.
	zone bool
	// stride enables the congruence domain.
	stride bool
}

// refEnv is the record pass's fact store: the facts valid whenever one
// guard chain holds.
type refEnv struct {
	r       *refiner
	refined map[*ssa.Value]Interval
	// st holds the guard chain's stride refinements; nil when off.
	st map[*ssa.Value]Stride
	// z is the environment's zone; nil when the domain is disabled.
	z           *dbm[*ssa.Value]
	unreachable bool // the guard chain is contradictory: code under it is unreachable
}

func newRefiner(local map[*ssa.Value]Interval, localSt map[*ssa.Value]Stride, zone, stride bool) *refiner {
	r := &refiner{
		local:   local,
		localSt: localSt,
		zone:    zone,
		stride:  stride,
	}
	r.root.r = r
	if zone {
		r.root.z = newDBM[*ssa.Value]()
	}
	return r
}

func (r *refiner) base(x *ssa.Value) Interval {
	if iv, ok := r.local[x]; ok {
		return iv
	}
	return Top(width(x))
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

// envFor returns the environment of the guard chain ending at g.
func (r *refiner) envFor(g *ssa.Value) *refEnv {
	if g == nil {
		return &r.root
	}
	if env, ok := r.envs[g]; ok {
		return env
	}
	env := r.envFor(g.Guard).child()
	derive(env, g.Args[0], true, 0)
	if r.envs == nil {
		r.envs = map[*ssa.Value]*refEnv{}
	}
	r.envs[g] = env
	return env
}

// child clones an environment: refined intervals, strides and the zone.
func (env *refEnv) child() *refEnv {
	c := &refEnv{
		r:           env.r,
		refined:     make(map[*ssa.Value]Interval, len(env.refined)+2),
		unreachable: env.unreachable,
	}
	for v, iv := range env.refined {
		c.refined[v] = iv
	}
	if env.r.stride {
		c.st = make(map[*ssa.Value]Stride, len(env.st)+2)
		for v, st := range env.st {
			c.st[v] = st
		}
	}
	if env.z != nil {
		c.z = env.z.clone()
	}
	return c
}

func (env *refEnv) interval(x *ssa.Value) Interval {
	if iv, ok := env.refined[x]; ok {
		return iv
	}
	return env.r.base(x)
}

func (env *refEnv) stride(x *ssa.Value) Stride {
	if st, ok := env.st[x]; ok {
		return st
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
			env.refined[x] = m
			env.st[x] = st
		}
		return
	}
	if m.IsBottom() {
		env.unreachable = true
		return
	}
	if x.Op != ssa.OpConst {
		env.refined[x] = m
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
		env.refined[x] = iv
		env.st[x] = m2
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
		env.refined, env.st, env.z = eb.refined, eb.st, eb.z
		return
	case eb.unreachable:
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
		env.constrain(x, ea.interval(x).Join(eb.interval(x)))
		if env.unreachable {
			return
		}
	}
	if env.r.stride {
		stKeys := make(map[*ssa.Value]bool, len(ea.st)+len(eb.st))
		for x := range ea.st {
			stKeys[x] = true
		}
		for x := range eb.st {
			stKeys[x] = true
		}
		for x := range stKeys {
			env.constrainSt(x, ea.stride(x).Join(eb.stride(x)))
			if env.unreachable {
				return
			}
		}
	}
	if env.z != nil {
		env.z = ea.z.join(eb.z)
	}
}
