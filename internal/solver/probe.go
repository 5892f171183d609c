package solver

import (
	"context"
	"math/rand"
	"sort"

	"fusion/internal/poll"
	"fusion/internal/smt"
)

// Probe attempts to find a model by concrete execution before paying for
// preprocessing and bit-blasting: path conditions are mostly systems of
// definitions var = f(inputs) plus variable aliases var = var, so sampling
// the free inputs and computing the defined variables forward decides many
// satisfiable instances instantly. Sample values are seeded with the
// constants appearing near each input, which makes guards like "x == 37"
// reachable. A returned model is always verified by evaluation, so probing
// is sound.
//
// Probe polls ctx before every try and every local-search move (one try
// is at most tens of milliseconds on the largest progen conditions); once
// it is cancelled Probe gives up with (nil, false), which is sound for
// the same reason: the probe only ever claims Sat with a verified model.
func Probe(ctx context.Context, phi *smt.Term, tries int) (smt.Assignment, bool) {
	stop := poll.Stop(ctx, 1)
	vars := smt.Vars(phi)
	if len(vars) == 0 || len(vars) > 1<<16 {
		return nil, false
	}

	// Union variables related by alias conjuncts (x = y), including the
	// formal/actual parameter links of path conditions.
	parent := map[*smt.Term]*smt.Term{}
	var find func(v *smt.Term) *smt.Term
	find = func(v *smt.Term) *smt.Term {
		p, ok := parent[v]
		if !ok || p == v {
			return v
		}
		r := find(p)
		parent[v] = r
		return r
	}
	for _, cj := range smt.Conjuncts(phi) {
		if cj.Op == smt.OpEq && cj.Args[0].Op == smt.OpVar && cj.Args[1].Op == smt.OpVar {
			rx, ry := find(cj.Args[0]), find(cj.Args[1])
			if rx != ry {
				parent[rx] = ry
			}
		}
	}
	members := map[*smt.Term][]*smt.Term{}
	for _, v := range vars {
		r := find(v)
		members[r] = append(members[r], v)
	}

	// Definitions per alias class. Direct forms (class = term) are taken
	// as-is; equations whose variable is buried under a chain of
	// invertible operators, as the preprocessing passes produce (e.g.
	// x + t = rhs), are solved numerically through the recorded inverse
	// chain at evaluation time.
	defs := map[*smt.Term]*defn{}
	for _, cj := range smt.Conjuncts(phi) {
		if cj.Op != smt.OpEq {
			continue
		}
		for _, ord := range [2][2]*smt.Term{{cj.Args[0], cj.Args[1]}, {cj.Args[1], cj.Args[0]}} {
			lhs, rhs := ord[0], ord[1]
			v, chain, ok := solveToward(lhs, 0)
			if !ok {
				continue
			}
			r := find(v)
			if defs[r] != nil || dependsOnClass(rhs, r, find) {
				continue
			}
			// The chain's side operands must not depend on v either.
			clean := true
			for _, st := range chain {
				if st.other != nil && dependsOnClass(st.other, r, find) {
					clean = false
					break
				}
			}
			if !clean {
				continue
			}
			defs[r] = &defn{rhs: rhs, chain: chain}
			break
		}
	}
	var inputs []*smt.Term // class representatives with no definition
	for r := range members {
		if defs[r] == nil {
			inputs = append(inputs, r)
		}
	}
	sort.Slice(inputs, func(i, j int) bool { return inputs[i].ID < inputs[j].ID })

	// Topologically order the defined classes so each try is one pass.
	var order []*smt.Term
	state := map[*smt.Term]int8{}
	var visit func(r *smt.Term)
	visit = func(r *smt.Term) {
		if state[r] != 0 {
			return
		}
		state[r] = 1
		d := defs[r]
		deps := smt.Vars(d.rhs)
		for _, st := range d.chain {
			if st.other != nil {
				deps = append(deps, smt.Vars(st.other)...)
			}
		}
		for _, dep := range deps {
			dr := find(dep)
			if defs[dr] != nil && state[dr] == 0 {
				visit(dr)
			}
		}
		state[r] = 2
		order = append(order, r)
	}
	for _, v := range vars {
		if r := find(v); defs[r] != nil {
			visit(r)
		}
	}

	// Value pool: formula constants and near misses, plus small values.
	pool := []uint32{0, 1, 2, 5, 0xFFFFFFFF}
	seenConst := map[uint32]bool{}
	collectConsts(phi, func(c uint32) {
		if !seenConst[c] {
			seenConst[c] = true
			pool = append(pool, c, c+1, c-1, c*2)
		}
	})

	// Targeted suggestions: an equality or comparison between a variable
	// and a constant anywhere in the formula (e.g. the "b == 5" disjunct
	// of a guard) suggests values for that variable's class.
	type hint struct {
		r   *smt.Term
		val uint32
	}
	var hints []hint
	mineHints(phi, func(v *smt.Term, c uint32) {
		r := find(v)
		if defs[r] == nil && len(hints) < 96 {
			hints = append(hints, hint{r, c})
		}
	})

	setClass := func(asg smt.Assignment, r *smt.Term, val uint32) {
		for _, m := range members[r] {
			asg[m] = val
		}
	}

	rng := rand.New(rand.NewSource(int64(phi.ID)*2654435761 + 12345))
	for try := 0; try < tries+2*len(hints); try++ {
		if stop != nil && stop() {
			return nil, false
		}
		asg := smt.Assignment{}
		for _, r := range inputs {
			var val uint32
			switch {
			case try == 0:
				val = 0
			case try == 1:
				val = 1
			case rng.Intn(3) == 0:
				val = rng.Uint32()
			default:
				val = pool[rng.Intn(len(pool))]
			}
			setClass(asg, r, val)
		}
		if try >= tries {
			// Hint rounds: pin one suggested class, vary the rest.
			h := hints[(try-tries)/2]
			setClass(asg, h.r, h.val)
		}
		// Compute defined classes forward in dependency order; a second
		// pass settles any residual cyclic orientation harmlessly.
		for pass := 0; pass < 2; pass++ {
			for _, r := range order {
				setClass(asg, r, defs[r].eval(asg))
			}
		}
		if smt.Eval(phi, asg) == 1 {
			return asg, true
		}
	}

	// Local search: pure sampling misses inputs that must satisfy several
	// guards at once; a short greedy repair loop over the inputs of
	// failing conjuncts (in the spirit of SLS tactics) closes most of the
	// gap. Soundness is unchanged — any model found is verified.
	if m, ok := localSearch(phi, inputs, defs, order, members, pool, find, rng, stop); ok {
		return m, true
	}
	return nil, false
}

// localSearch greedily repairs a random assignment: pick an unsatisfied
// conjunct, pick an input class it depends on, and move it to the value
// that satisfies the most conjuncts. A non-nil stop is polled before every
// move.
func localSearch(
	phi *smt.Term,
	inputs []*smt.Term,
	defs map[*smt.Term]*defn,
	order []*smt.Term,
	members map[*smt.Term][]*smt.Term,
	pool []uint32,
	find func(*smt.Term) *smt.Term,
	rng *rand.Rand,
	stop func() bool,
) (smt.Assignment, bool) {
	if len(inputs) == 0 {
		return nil, false
	}
	conjs := smt.Conjuncts(phi)
	if len(conjs) > 192 || len(conjs) < 2 {
		return nil, false // too big to afford, or nothing to repair against
	}

	// Per-conjunct input support, chasing definitions.
	supMemo := map[*smt.Term][]*smt.Term{}
	var classInputs func(r *smt.Term, seen map[*smt.Term]bool, out *[]*smt.Term)
	classInputs = func(r *smt.Term, seen map[*smt.Term]bool, out *[]*smt.Term) {
		if seen[r] {
			return
		}
		seen[r] = true
		d := defs[r]
		if d == nil {
			*out = append(*out, r)
			return
		}
		deps := smt.Vars(d.rhs)
		for _, st := range d.chain {
			if st.other != nil {
				deps = append(deps, smt.Vars(st.other)...)
			}
		}
		for _, dep := range deps {
			classInputs(find(dep), seen, out)
		}
	}
	supportOf := func(cj *smt.Term) []*smt.Term {
		if s, ok := supMemo[cj]; ok {
			return s
		}
		var out []*smt.Term
		seen := map[*smt.Term]bool{}
		for _, v := range smt.Vars(cj) {
			classInputs(find(v), seen, &out)
		}
		supMemo[cj] = out
		return out
	}

	setClass := func(asg smt.Assignment, r *smt.Term, val uint32) {
		for _, m := range members[r] {
			asg[m] = val
		}
	}
	compute := func(asg smt.Assignment) {
		for pass := 0; pass < 2; pass++ {
			for _, r := range order {
				setClass(asg, r, defs[r].eval(asg))
			}
		}
	}
	score := func(asg smt.Assignment) int {
		n := 0
		for _, cj := range conjs {
			if smt.Eval(cj, asg) == 1 {
				n++
			}
		}
		return n
	}

	for restart := 0; restart < 2; restart++ {
		asg := smt.Assignment{}
		for _, r := range inputs {
			setClass(asg, r, pool[rng.Intn(len(pool))])
		}
		compute(asg)
		cur := score(asg)
		for move := 0; move < 25 && cur < len(conjs); move++ {
			if stop != nil && stop() {
				return nil, false
			}
			// A random unsatisfied conjunct.
			var bad *smt.Term
			off := rng.Intn(len(conjs))
			for i := range conjs {
				cj := conjs[(i+off)%len(conjs)]
				if smt.Eval(cj, asg) != 1 {
					bad = cj
					break
				}
			}
			if bad == nil {
				break
			}
			sup := supportOf(bad)
			if len(sup) == 0 {
				break // the conjunct does not depend on any input
			}
			r := sup[rng.Intn(len(sup))]
			old := asg[members[r][0]]
			best, bestScore := old, cur
			for trial := 0; trial < 6; trial++ {
				var cand uint32
				switch trial {
				case 0:
					cand = old + 1
				case 1:
					cand = old - 1
				case 2:
					cand = 0
				default:
					cand = pool[rng.Intn(len(pool))]
				}
				setClass(asg, r, cand)
				compute(asg)
				if sc := score(asg); sc > bestScore {
					best, bestScore = cand, sc
				}
			}
			setClass(asg, r, best)
			compute(asg)
			cur = bestScore
		}
		if cur == len(conjs) && smt.Eval(phi, asg) == 1 {
			return asg, true
		}
	}
	return nil, false
}

// defn is a definition "class = invert(chain, rhs)": evaluate rhs, then
// apply the inverse of each recorded operator step outward-in.
type defn struct {
	rhs   *smt.Term
	chain []invStep
}

// invStep records one peeled operator: the variable was inside op, with
// the other operand (nil for unary ops) on the given side.
type invStep struct {
	op          smt.Op
	other       *smt.Term
	otherOnLeft bool
	mulInv      uint32 // modular inverse for odd multiplications
}

// solveToward peels invertible operators off t until a variable remains,
// returning the variable and the chain (outermost first).
func solveToward(t *smt.Term, depth int) (*smt.Term, []invStep, bool) {
	if depth > 32 {
		return nil, nil, false
	}
	switch t.Op {
	case smt.OpVar:
		return t, nil, true
	case smt.OpNot, smt.OpNeg:
		v, chain, ok := solveToward(t.Args[0], depth+1)
		if !ok {
			return nil, nil, false
		}
		return v, append([]invStep{{op: t.Op}}, chain...), true
	case smt.OpAdd, smt.OpXor:
		// Commutative: prefer the side that reaches a variable.
		for i := 0; i < 2; i++ {
			if v, chain, ok := solveToward(t.Args[i], depth+1); ok {
				st := invStep{op: t.Op, other: t.Args[1-i]}
				return v, append([]invStep{st}, chain...), true
			}
		}
	case smt.OpSub:
		for i := 0; i < 2; i++ {
			if v, chain, ok := solveToward(t.Args[i], depth+1); ok {
				st := invStep{op: t.Op, other: t.Args[1-i], otherOnLeft: i == 1}
				return v, append([]invStep{st}, chain...), true
			}
		}
	case smt.OpMul:
		for i := 0; i < 2; i++ {
			o := t.Args[1-i]
			if o.IsConst() && o.Const&1 == 1 {
				if v, chain, ok := solveToward(t.Args[i], depth+1); ok {
					st := invStep{op: smt.OpMul, mulInv: modInverse32(o.Const)}
					return v, append([]invStep{st}, chain...), true
				}
			}
		}
	}
	return nil, nil, false
}

// modInverse32 computes the inverse of odd a modulo 2^32.
func modInverse32(a uint32) uint32 {
	x := a
	for i := 0; i < 5; i++ {
		x *= 2 - a*x
	}
	return x
}

// eval computes the class value implied by the definition under asg.
func (d *defn) eval(asg smt.Assignment) uint32 {
	val := smt.Eval(d.rhs, asg)
	width := d.rhs.Width
	maskW := func(v uint32) uint32 {
		if width >= 32 {
			return v
		}
		return v & (1<<uint(width) - 1)
	}
	for _, st := range d.chain {
		switch st.op {
		case smt.OpNot:
			val = maskW(^val)
		case smt.OpNeg:
			val = maskW(-val)
		case smt.OpAdd:
			val = maskW(val - smt.Eval(st.other, asg))
		case smt.OpXor:
			val = maskW(val ^ smt.Eval(st.other, asg))
		case smt.OpSub:
			if st.otherOnLeft {
				// other - x = val  =>  x = other - val
				val = maskW(smt.Eval(st.other, asg) - val)
			} else {
				// x - other = val  =>  x = val + other
				val = maskW(val + smt.Eval(st.other, asg))
			}
		case smt.OpMul:
			val = maskW(val * st.mulInv)
		}
	}
	return val
}

func dependsOnClass(t, r *smt.Term, find func(*smt.Term) *smt.Term) bool {
	for _, x := range smt.Vars(t) {
		if find(x) == r {
			return true
		}
	}
	return false
}

// mineHints reports (variable, constant) pairs appearing together under a
// comparison or equality anywhere in the formula.
func mineHints(phi *smt.Term, fn func(v *smt.Term, c uint32)) {
	seen := map[*smt.Term]bool{}
	var walk func(*smt.Term)
	walk = func(t *smt.Term) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch t.Op {
		case smt.OpEq, smt.OpUlt, smt.OpUle, smt.OpSlt, smt.OpSle:
			x, y := t.Args[0], t.Args[1]
			if x.Op == smt.OpVar && y.IsConst() {
				fn(x, y.Const)
				fn(x, y.Const+1)
				fn(x, y.Const-1)
			}
			if y.Op == smt.OpVar && x.IsConst() {
				fn(y, x.Const)
				fn(y, x.Const+1)
				fn(y, x.Const-1)
			}
		}
		for _, a := range t.Args {
			walk(a)
		}
	}
	walk(phi)
}

func collectConsts(t *smt.Term, fn func(uint32)) {
	seen := map[*smt.Term]bool{}
	var walk func(*smt.Term)
	walk = func(t *smt.Term) {
		if seen[t] {
			return
		}
		seen[t] = true
		if t.Op == smt.OpConst && t.Width > 1 {
			fn(t.Const)
		}
		for _, a := range t.Args {
			walk(a)
		}
	}
	walk(t)
}
