package solver

import (
	"context"
	"math/rand"
	"slices"

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
// is sound. phi, which b must have built, is compiled once (b.Compile)
// and probed by ProbeProgram; an smt.Assignment is built only for a
// returned model.
func Probe(ctx context.Context, b *smt.Builder, phi *smt.Term, tries int) (smt.Assignment, bool) {
	prog := b.Compile(phi)
	if prog.NumInputs() == 0 {
		return nil, false
	}
	in, ok := ProbeProgram(ctx, prog, int64(phi.ID), tries)
	if !ok {
		return nil, false
	}
	m := make(smt.Assignment, len(in))
	for i, v := range prog.Vars() {
		m[v] = in[i]
	}
	return m, true
}

// ProbeProgram is Probe over a Program whose root 0 is the formula: it
// returns the raw values of the inputs of a model, which the Program
// evaluates to 1, or false. seed fixes the sampling; tries is the number
// of sampled tries before the hint rounds and local search. Set-up and
// every try run over the Program's slots in flat arrays. A Program of
// more than 1<<16 inputs is not probed.
//
// ProbeProgram polls ctx before every try and every local-search move
// (one try is at most tens of milliseconds on the largest progen
// conditions); once it is cancelled it gives up with (nil, false), which
// is sound for the same reason: the probe only ever claims a model it has
// verified.
func ProbeProgram(ctx context.Context, prog *smt.Program, seed int64, tries int) ([]uint32, bool) {
	if prog.NumInputs() > 1<<16 {
		return nil, false
	}
	stop := poll.Stop(ctx, 1)
	c := newCompiled(prog)

	rng := rand.New(rand.NewSource(seed*2654435761 + 12345))
	for try := 0; try < tries+2*len(c.hints); try++ {
		if stop != nil && stop() {
			return nil, false
		}
		c.reset()
		for _, r := range c.inputs {
			var val uint32
			switch {
			case try == 0:
				val = 0
			case try == 1:
				val = 1
			case rng.Intn(3) == 0:
				val = rng.Uint32()
			default:
				val = c.pool[rng.Intn(len(c.pool))]
			}
			c.setClass(r, val)
		}
		if try >= tries {
			// Hint rounds: pin one suggested class, vary the rest.
			h := c.hints[(try-tries)/2]
			c.setClass(h.r, h.val)
		}
		c.compute()
		if c.vals[c.phi] == 1 {
			return c.in, true
		}
	}

	// Local search: pure sampling misses inputs that must satisfy several
	// guards at once; a short greedy repair loop over the inputs of
	// failing conjuncts (in the spirit of SLS tactics) closes most of the
	// gap. Soundness is unchanged — any model found is verified.
	if m, ok := c.localSearch(rng, stop); ok {
		return m, true
	}
	return nil, false
}

// compiled is a probed Program, with its inputs grouped into alias
// classes: a try writes the input classes' values into the inputs,
// applies the definitions, and reads phi and every conjunct off one pass.
// A class is named by its representative, an input index.
// A model is returned as in itself: the probe drops c once it has one.
type compiled struct {
	prog  *smt.Program
	in    []uint32 // raw input values
	vals  []uint32
	phi   int32
	conjs []int32 // phi's conjuncts' slots

	// parent is the union-find over variables related by alias
	// conjuncts; a representative is its own parent.
	parent []int32
	// A representative r's class is members[memberAt[r]:memberAt[r+1]],
	// in first-occurrence order.
	memberAt []int32
	members  []int32
	// def[r] is the index in defs of class r's definition, -1 for none.
	def    []int32
	defs   []defn    // in dependency order, contiguous for the try loop
	steps  []invStep // the definitions' chains
	inputs []int32   // undefined representatives: by term ID, or index without Vars
	pool   []uint32  // sample values
	hints  []hint

	// stamp and gen mark the slots a walk has visited.
	stamp []uint32
	gen   uint32
	// Local search's buffers: seen and seenGen mark the classes a
	// support walk has visited, vars holds a conjunct's variables and sup
	// its support.
	seen    []uint32
	seenGen uint32
	vars    []int32
	sup     []int32
}

// hint suggests a value for an input class: an equality or comparison
// between one of its variables and a constant.
type hint struct {
	r   int32
	val uint32
}

// newCompiled derives the probe's classes, definitions, sample pool and
// hints from prog. Every list is read off the slots in post-order, which
// for constants and for the comparisons that yield hints is the order of
// a pre-order walk of the term DAG: both are leaves or have only leaf
// operands, so no such node is visited while another is still open.
func newCompiled(prog *smt.Program) *compiled {
	nv := prog.NumInputs()
	phi := prog.Root(0)
	c := &compiled{
		prog: prog, in: make([]uint32, nv), vals: prog.Slots(), phi: phi,
		conjs:    []int32{phi},
		parent:   make([]int32, nv),
		memberAt: make([]int32, nv+1),
		members:  make([]int32, nv),
		def:      make([]int32, nv),
		stamp:    make([]uint32, prog.Len()),
	}
	if prog.Op(phi) == smt.OpAnd && prog.Width(phi) == 1 {
		c.conjs = prog.Args(phi)
	}
	neq := c.unionAliases()
	c.orderDefs(c.findDefs(neq))

	// Value pool: formula constants and near misses, plus small values.
	consts := c.distinctConsts()
	c.pool = append(make([]uint32, 0, 5+4*len(consts)), 0, 1, 2, 5, 0xFFFFFFFF)
	for _, k := range consts {
		c.pool = append(c.pool, k, k+1, k-1, k*2)
	}
	c.mineHints()
	return c
}

// unionAliases unions variables related by alias conjuncts (x = y),
// including the formal/actual parameter links of path conditions, and
// lists each class's variables. It returns the number of equality
// conjuncts.
func (c *compiled) unionAliases() (neq int) {
	p := c.prog
	for i := range c.parent {
		c.parent[i] = int32(i)
		c.def[i] = -1
	}
	for _, cj := range c.conjs {
		if p.Op(cj) != smt.OpEq {
			continue
		}
		neq++
		a := p.Args(cj)
		if p.Op(a[0]) == smt.OpVar && p.Op(a[1]) == smt.OpVar {
			rx, ry := c.find(p.Input(a[0])), c.find(p.Input(a[1]))
			if rx != ry {
				c.parent[rx] = ry
			}
		}
	}
	nv := int32(len(c.parent))
	for v := int32(0); v < nv; v++ {
		c.memberAt[c.find(v)+1]++
	}
	for r := int32(0); r < nv; r++ {
		c.memberAt[r+1] += c.memberAt[r]
	}
	fill := slices.Clone(c.memberAt[:nv])
	for v := int32(0); v < nv; v++ {
		r := c.find(v)
		c.members[fill[r]] = v
		fill[r]++
	}
	return neq
}

// findDefs finds a definition per alias class, and lists the classes
// without one as the inputs. Direct forms (class = term) are taken as-is;
// equations whose variable is buried under a chain of invertible
// operators, as the preprocessing passes produce (e.g. x + t = rhs), are
// solved numerically through the recorded inverse chain at evaluation
// time. The definitions come in conjunct order, def indexing them.
func (c *compiled) findDefs(neq int) []defn {
	p := c.prog
	found := make([]defn, 0, min(neq, len(c.parent)))
	c.steps = make([]invStep, 0, neq+32)
	deps := make([]int32, 0, 2*len(c.parent))
	for _, cj := range c.conjs {
		if p.Op(cj) != smt.OpEq {
			continue
		}
		a := p.Args(cj)
		for _, ord := range [2][2]int32{{a[0], a[1]}, {a[1], a[0]}} {
			lhs, rhs := ord[0], ord[1]
			lo := len(c.steps)
			v, ok := c.toward(lhs, 0)
			if !ok {
				continue
			}
			r := c.find(v)
			// Neither rhs nor the chain's side operands may depend on
			// the class.
			clean := c.def[r] < 0 && !c.dependsOn(rhs, r)
			for _, st := range c.steps[lo:] {
				if !clean {
					break
				}
				clean = st.other < 0 || !c.dependsOn(st.other, r)
			}
			if !clean {
				c.steps = c.steps[:lo]
				continue
			}
			chain := c.steps[lo:len(c.steps):len(c.steps)]
			slices.Reverse(chain) // toward records the innermost step first
			dlo := len(deps)
			deps = c.varsOf(rhs, deps)
			for _, st := range chain {
				if st.other >= 0 {
					deps = c.varsOf(st.other, deps)
				}
			}
			c.def[r] = int32(len(found))
			found = append(found, defn{chain: chain, slot: rhs, deps: deps[dlo:len(deps):len(deps)]})
			break
		}
	}
	c.inputs = make([]int32, 0, len(c.parent))
	for r := range c.parent {
		if c.parent[r] == int32(r) && c.def[r] < 0 {
			c.inputs = append(c.inputs, int32(r))
		}
	}
	if vars := p.Vars(); vars != nil {
		slices.SortFunc(c.inputs, func(x, y int32) int { return vars[x].ID - vars[y].ID })
	}
	return found
}

// orderDefs puts the definitions found in topological order, so each try
// is one pass, and gives each the span that refreshes its right-hand side
// and chain operands.
func (c *compiled) orderDefs(found []defn) {
	p := c.prog
	c.defs = make([]defn, 0, len(found))
	order := make([]int32, 0, len(found))
	state := make([]int8, len(c.parent))
	var roots []int32
	var visit func(r int32)
	visit = func(r int32) {
		if state[r] != 0 {
			return
		}
		state[r] = 1
		d := found[c.def[r]]
		for _, dep := range d.deps {
			if dr := c.find(dep); c.def[dr] >= 0 && state[dr] == 0 {
				visit(dr)
			}
		}
		state[r] = 2
		roots = append(roots[:0], d.slot)
		for _, st := range d.chain {
			if st.other >= 0 {
				roots = append(roots, st.other)
			}
		}
		d.span = p.Span(roots...)
		d.mask = ^uint32(0)
		if w := p.Width(d.slot); w < 32 {
			d.mask = 1<<uint(w) - 1
		}
		d.members = c.class(r)
		c.defs = append(c.defs, d)
		order = append(order, r)
	}
	for v := range c.parent {
		if r := c.find(int32(v)); c.def[r] >= 0 {
			visit(r)
		}
	}
	for i, r := range order {
		c.def[r] = int32(i)
	}
}

// mineHints collects targeted suggestions: an equality or comparison
// between a variable and a constant anywhere in the formula (e.g. the
// "b == 5" disjunct of a guard) suggests values for that variable's
// class.
func (c *compiled) mineHints() {
	p := c.prog
	c.hints = make([]hint, 0, maxHints)
	for s := int32(0); s < int32(p.Len()) && len(c.hints) < maxHints; s++ {
		switch p.Op(s) {
		case smt.OpEq, smt.OpUlt, smt.OpUle, smt.OpSlt, smt.OpSle:
			a := p.Args(s)
			x, y := a[0], a[1]
			if p.Op(x) == smt.OpVar && p.Op(y) == smt.OpConst {
				c.hint(p.Input(x), p.Const(y))
			}
			if p.Op(y) == smt.OpVar && p.Op(x) == smt.OpConst {
				c.hint(p.Input(y), p.Const(x))
			}
		}
	}
}

// maxHints bounds the hint rounds.
const maxHints = 96

// hint suggests k and its neighbours for variable v's class, unless the
// class is defined.
func (c *compiled) hint(v int32, k uint32) {
	r := c.find(v)
	for _, val := range [3]uint32{k, k + 1, k - 1} {
		if c.def[r] < 0 && len(c.hints) < maxHints {
			c.hints = append(c.hints, hint{r, val})
		}
	}
}

// distinctConsts returns the values of the formula's constants wider
// than one bit, each once, in the order of their first slot.
func (c *compiled) distinctConsts() []uint32 {
	// Sort (value, slot) pairs to find each value's first slot, then put
	// the first slots back in slot order.
	p := c.prog
	wide := func(s int32) bool { return p.Op(s) == smt.OpConst && p.Width(s) > 1 }
	n := 0
	for s := int32(0); s < int32(p.Len()); s++ {
		if wide(s) {
			n++
		}
	}
	firsts := make([]uint64, 0, n)
	for s := int32(0); s < int32(p.Len()); s++ {
		if wide(s) {
			firsts = append(firsts, uint64(p.Const(s))<<32|uint64(s))
		}
	}
	slices.Sort(firsts)
	n = 0
	for i, e := range firsts {
		if v := e >> 32; i == 0 || v != firsts[n-1]&(1<<32-1) {
			firsts[n] = e<<32 | v // slot high, value low
			n++
		}
	}
	firsts = firsts[:n]
	slices.Sort(firsts)
	out := make([]uint32, n)
	for i, e := range firsts {
		out[i] = uint32(e)
	}
	return out
}

// find returns v's class representative, compressing the path.
func (c *compiled) find(v int32) int32 {
	r := v
	for c.parent[r] != r {
		r = c.parent[r]
	}
	for c.parent[v] != r {
		v, c.parent[v] = c.parent[v], r
	}
	return r
}

// class returns representative r's variables.
func (c *compiled) class(r int32) []int32 {
	return c.members[c.memberAt[r]:c.memberAt[r+1]]
}

// walk starts a new visit of the slots.
func (c *compiled) walk() {
	c.gen++
	if c.gen == 0 { // wrapped: clear stale stamps
		clear(c.stamp)
		c.gen = 1
	}
}

// varsOf appends the variables under slot s to out, in first-occurrence
// order (as smt.Vars lists them).
func (c *compiled) varsOf(s int32, out []int32) []int32 {
	c.walk()
	return c.collectVars(s, out)
}

func (c *compiled) collectVars(s int32, out []int32) []int32 {
	if c.stamp[s] == c.gen {
		return out
	}
	c.stamp[s] = c.gen
	if c.prog.Op(s) == smt.OpVar {
		return append(out, c.prog.Input(s))
	}
	for _, a := range c.prog.Args(s) {
		out = c.collectVars(a, out)
	}
	return out
}

// dependsOn reports whether a variable of class r occurs under slot s.
func (c *compiled) dependsOn(s, r int32) bool {
	c.walk()
	return c.reaches(s, r)
}

func (c *compiled) reaches(s, r int32) bool {
	if c.stamp[s] == c.gen {
		return false
	}
	c.stamp[s] = c.gen
	if c.prog.Op(s) == smt.OpVar {
		return c.find(c.prog.Input(s)) == r
	}
	for _, a := range c.prog.Args(s) {
		if c.reaches(a, r) {
			return true
		}
	}
	return false
}

// reset unassigns every variable, as a fresh smt.Assignment does.
func (c *compiled) reset() { clear(c.in) }

func (c *compiled) setClass(r int32, val uint32) {
	for _, m := range c.class(r) {
		c.in[m] = val
	}
}

// compute settles the defined classes forward in dependency order — a
// second pass settles any residual cyclic orientation harmlessly — then
// evaluates phi and its conjuncts.
func (c *compiled) compute() {
	for pass := 0; pass < 2; pass++ {
		for i := range c.defs {
			d := &c.defs[i]
			c.prog.Run(c.in, c.vals, d.span)
			val := d.apply(c.vals)
			for _, m := range d.members {
				c.in[m] = val
			}
		}
	}
	c.prog.Run(c.in, c.vals, c.prog.All())
}

// score counts the satisfied conjuncts as of the last compute.
func (c *compiled) score() int {
	n := 0
	for _, s := range c.conjs {
		if c.vals[s] == 1 {
			n++
		}
	}
	return n
}

// support returns the input classes conjunct j depends on, chasing
// definitions, in first-occurrence order, in a buffer the next call
// reuses. The buffers have room for every variable and every input class,
// so they never grow.
func (c *compiled) support(j int) []int32 {
	c.seenGen++
	if c.seenGen == 0 { // wrapped: clear stale marks
		clear(c.seen)
		c.seenGen = 1
	}
	c.sup = c.sup[:0]
	c.vars = c.varsOf(c.conjs[j], c.vars[:0])
	for _, v := range c.vars {
		c.classInputs(c.find(v))
	}
	return c.sup
}

func (c *compiled) classInputs(r int32) {
	if c.seen[r] == c.seenGen {
		return
	}
	c.seen[r] = c.seenGen
	if c.def[r] < 0 {
		c.sup = append(c.sup, r)
		return
	}
	for _, dep := range c.defs[c.def[r]].deps {
		c.classInputs(c.find(dep))
	}
}

// localSearch greedily repairs a random assignment: pick an unsatisfied
// conjunct, pick an input class it depends on, and move it to the value
// that satisfies the most conjuncts. A non-nil stop is polled before every
// move.
func (c *compiled) localSearch(rng *rand.Rand, stop func() bool) ([]uint32, bool) {
	if len(c.inputs) == 0 {
		return nil, false
	}
	conjs := c.conjs
	if len(conjs) > 192 || len(conjs) < 2 {
		return nil, false // too big to afford, or nothing to repair against
	}
	c.seen = make([]uint32, len(c.in))
	c.vars = make([]int32, 0, len(c.in))
	c.sup = make([]int32, 0, len(c.inputs))
	for restart := 0; restart < 2; restart++ {
		c.reset()
		for _, r := range c.inputs {
			c.setClass(r, c.pool[rng.Intn(len(c.pool))])
		}
		c.compute()
		cur := c.score()
		for move := 0; move < 25 && cur < len(conjs); move++ {
			if stop != nil && stop() {
				return nil, false
			}
			// A random unsatisfied conjunct.
			bad := -1
			off := rng.Intn(len(conjs))
			for i := range conjs {
				if j := (i + off) % len(conjs); c.vals[conjs[j]] != 1 {
					bad = j
					break
				}
			}
			if bad < 0 {
				break
			}
			sup := c.support(bad)
			if len(sup) == 0 {
				break // the conjunct does not depend on any input
			}
			r := sup[rng.Intn(len(sup))]
			old := c.in[c.class(r)[0]]
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
					cand = c.pool[rng.Intn(len(c.pool))]
				}
				c.setClass(r, cand)
				c.compute()
				if sc := c.score(); sc > bestScore {
					best, bestScore = cand, sc
				}
			}
			c.setClass(r, best)
			c.compute()
			cur = bestScore
		}
		if cur == len(conjs) && c.vals[c.phi] == 1 {
			return c.in, true
		}
	}
	return nil, false
}

// defn is a definition "class = invert(chain, rhs)": evaluate rhs, then
// apply the inverse of each recorded operator step outward-in. deps are
// the variables under rhs and then under each chain operand, each list in
// first-occurrence order. The span refreshes rhs and the chain operands;
// mask is rhs's width mask, and members are the class's inputs.
type defn struct {
	chain   []invStep
	deps    []int32
	slot    int32 // rhs
	span    smt.Span
	mask    uint32
	members []int32
}

// invStep records one peeled operator: the variable was inside op, with
// the other operand's slot (-1 for unary ops and for constant factors) on
// the given side.
type invStep struct {
	op          smt.Op
	other       int32
	otherOnLeft bool
	mulInv      uint32 // modular inverse for odd multiplications
}

// toward peels invertible operators off slot s until a variable remains,
// returning the variable. On success it has appended the peeled chain to
// c.steps, innermost step first; on failure it has appended nothing.
func (c *compiled) toward(s int32, depth int) (int32, bool) {
	if depth > 32 {
		return 0, false
	}
	p := c.prog
	switch op := p.Op(s); op {
	case smt.OpVar:
		return p.Input(s), true
	case smt.OpNot, smt.OpNeg:
		if v, ok := c.toward(p.Args(s)[0], depth+1); ok {
			c.steps = append(c.steps, invStep{op: op, other: -1})
			return v, true
		}
	case smt.OpAdd, smt.OpXor, smt.OpSub:
		// Commutative (Sub: either side): prefer the side that reaches
		// a variable.
		a := p.Args(s)
		for i := 0; i < 2; i++ {
			if v, ok := c.toward(a[i], depth+1); ok {
				c.steps = append(c.steps, invStep{op: op, other: a[1-i], otherOnLeft: op == smt.OpSub && i == 1})
				return v, true
			}
		}
	case smt.OpMul:
		a := p.Args(s)
		for i := 0; i < 2; i++ {
			o := a[1-i]
			if p.Op(o) == smt.OpConst && p.Const(o)&1 == 1 {
				if v, ok := c.toward(a[i], depth+1); ok {
					c.steps = append(c.steps, invStep{op: op, other: -1, mulInv: modInverse32(p.Const(o))})
					return v, true
				}
			}
		}
	}
	return 0, false
}

// modInverse32 computes the inverse of odd a modulo 2^32.
func modInverse32(a uint32) uint32 {
	x := a
	for i := 0; i < 5; i++ {
		x *= 2 - a*x
	}
	return x
}

// apply computes the class value the definition implies from vals, in
// which its span has just run.
func (d *defn) apply(vals []uint32) uint32 {
	val := vals[d.slot]
	for i := range d.chain {
		st := &d.chain[i]
		switch st.op {
		case smt.OpNot:
			val = ^val & d.mask
		case smt.OpNeg:
			val = -val & d.mask
		case smt.OpAdd:
			val = (val - vals[st.other]) & d.mask
		case smt.OpXor:
			val = (val ^ vals[st.other]) & d.mask
		case smt.OpSub:
			if st.otherOnLeft {
				// other - x = val  =>  x = other - val
				val = (vals[st.other] - val) & d.mask
			} else {
				// x - other = val  =>  x = val + other
				val = (val + vals[st.other]) & d.mask
			}
		case smt.OpMul:
			val = val * st.mulInv & d.mask
		}
	}
	return val
}
