package smt

import (
	"context"
	"fmt"
	"sort"

	"fusion/internal/poll"
)

// A Pass is one equisatisfiability-preserving preprocessing step
// (Algorithm 3, line 2). Passes view the formula as a conjunction and may
// rewrite it into any equisatisfiable form; a pass that decides the formula
// returns the constant true or false.
type Pass struct {
	Name string
	Run  func(b *Builder, phi *Term) *Term
}

// DefaultPasses returns the preprocessing pipeline of the paper's solver
// (§4): forward/backward constant propagation, equality propagation,
// definition inlining, Gaussian elimination, strength reduction, and
// unconstrained-variable elimination. Gaussian elimination runs before
// strength reduction so linear reasoning still sees multiplications.
func DefaultPasses() []Pass {
	return []Pass{
		{Name: "const-prop", Run: ConstProp},
		{Name: "equality-prop", Run: EqualityProp},
		{Name: "solve-eqs", Run: SolveEqs},
		{Name: "gaussian", Run: GaussianEliminate},
		{Name: "strength-reduce", Run: StrengthReduce},
		{Name: "unconstrained", Run: UnconstrainedElim},
	}
}

// SolveEqs inlines variable definitions: a conjunct v = t with v a variable
// not occurring in t substitutes t for v throughout (the analogue of Z3's
// solve-eqs tactic). Hash-consing keeps the result a DAG, so inlining does
// not duplicate work downstream.
func SolveEqs(b *Builder, phi *Term) *Term { return solveEqsAllow(b, phi, nil) }

func solveEqsAllow(b *Builder, phi *Term, allow func(name string) bool) *Term {
	// Count how often each variable occurs, so large definitions are only
	// inlined into single uses. Inlining a big definition into many uses
	// trades named, propagation-friendly structure for deep expression
	// towers that are much harder on the SAT core.
	occurs := b.take(phi.ID + 1).withCounts()
	countOcc(occurs, phi)

	const inlineSize = 8
	sub := map[*Term]*Term{}
	var order []*Term
	for _, cj := range Conjuncts(phi) {
		if len(sub) >= 64 {
			break // resume on the next Preprocess round
		}
		if cj.Op != OpEq {
			continue
		}
		for _, ord := range [2][2]*Term{{cj.Args[0], cj.Args[1]}, {cj.Args[1], cj.Args[0]}} {
			v, t := ord[0], ord[1]
			if v.Op != OpVar || t == v {
				continue
			}
			if allow != nil && !allow(v.Name) {
				continue
			}
			if _, done := sub[v]; done {
				continue
			}
			t = Substitute(b, t, sub)
			if containsVar(b, t, v) {
				continue
			}
			// occurs counts the defining equation itself, so <= 2 means at
			// most one other use.
			if b.Size(t) > inlineSize && occurs.countOf(v.ID) > 2 {
				continue
			}
			sub[v] = t
			order = append(order, v)
			break
		}
	}
	b.give(occurs)
	if len(sub) == 0 {
		return phi
	}
	// Apply sequentially: a later substitution must also rewrite variables
	// introduced by an earlier one's replacement term.
	for _, v := range order {
		phi = Substitute(b, phi, map[*Term]*Term{v: sub[v]})
	}
	return phi
}

// countOcc counts in s how often each variable occurs under t: once per
// argument slot of a distinct non-variable subterm, and once for t itself.
func countOcc(s *scratch, t *Term) {
	if t.Op == OpVar {
		s.bump(t.ID)
		return
	}
	if !s.mark(t.ID) {
		return
	}
	for _, a := range t.Args {
		countOcc(s, a)
	}
}

// Preprocess runs the passes round-robin until a fixpoint or the round
// budget is exhausted, returning the rewritten formula. It polls ctx
// between passes (no single pass runs longer than a few hundred
// milliseconds on the progen corpus); once ctx is cancelled it returns the
// formula as rewritten so far, which is equisatisfiable with phi because
// every pass is.
func Preprocess(ctx context.Context, b *Builder, phi *Term, passes []Pass) *Term {
	const maxRounds = 8
	stop := poll.Stop(ctx, 1)
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, p := range passes {
			if stop != nil && stop() {
				return phi
			}
			next := p.Run(b, phi)
			if next != phi {
				changed = true
				phi = next
			}
			if phi.IsTrue() || phi.IsFalse() {
				return phi
			}
		}
		if !changed {
			break
		}
	}
	return phi
}

// Conjuncts flattens a formula into its top-level conjuncts.
func Conjuncts(t *Term) []*Term {
	if t.Op == OpAnd && t.Width == 1 {
		return t.Args
	}
	return []*Term{t}
}

// --- Constant propagation ---

// ConstProp performs forward and backward constant propagation over the
// conjunction: conjuncts of the form x = c substitute c for x everywhere,
// and equations t = c with an invertible top operator are solved backward
// (e.g., x + a = c becomes x = c - a).
func ConstProp(b *Builder, phi *Term) *Term { return constPropAllow(b, phi, nil) }

func constPropAllow(b *Builder, phi *Term, allow func(name string) bool) *Term {
	ok := func(v *Term) bool { return allow == nil || allow(v.Name) }
	for i := 0; i < 16; i++ {
		sub := map[*Term]*Term{}
		var learn func(t *Term)
		solve := func(t, c *Term) {
			// Backward propagation: invert the top operator of t when one
			// operand is constant, narrowing toward variables.
			for {
				if t.Op == OpVar {
					if _, dup := sub[t]; !dup && ok(t) {
						sub[t] = c
					}
					return
				}
				next, nc, ok := invertStep(b, t, c)
				if !ok {
					return
				}
				t, c = next, nc
			}
		}
		learn = func(cj *Term) {
			if cj.Op == OpEq {
				x, y := cj.Args[0], cj.Args[1]
				if y.IsConst() {
					solve(x, y)
				} else if x.IsConst() {
					solve(y, x)
				}
				return
			}
			// A bare boolean variable conjunct pins it to true; a negated
			// one pins it to false. (Conjuncts always have width 1.)
			if cj.Op == OpVar && ok(cj) {
				sub[cj] = b.True()
			}
			if cj.Op == OpNot && cj.Args[0].Op == OpVar && ok(cj.Args[0]) {
				sub[cj.Args[0]] = b.False()
			}
		}
		for _, cj := range Conjuncts(phi) {
			learn(cj)
		}
		if len(sub) == 0 {
			return phi
		}
		// Keep the defining equations x = c (they may constrain other
		// occurrences through non-invertible contexts) — substitution of a
		// variable by its constant makes them fold to true automatically.
		next := Substitute(b, phi, sub)
		if next == phi {
			return phi
		}
		phi = next
		if phi.IsTrue() || phi.IsFalse() {
			return phi
		}
	}
	return phi
}

// invertStep peels one invertible operator off t in the equation t = c,
// returning the operand to keep solving for and the new constant.
func invertStep(b *Builder, t, c *Term) (*Term, *Term, bool) {
	if !c.IsConst() {
		return nil, nil, false
	}
	w := t.Width
	switch t.Op {
	case OpAdd:
		if t.Args[1].IsConst() {
			return t.Args[0], b.Const(c.Const-t.Args[1].Const, w), true
		}
		if t.Args[0].IsConst() {
			return t.Args[1], b.Const(c.Const-t.Args[0].Const, w), true
		}
	case OpSub:
		if t.Args[1].IsConst() {
			return t.Args[0], b.Const(c.Const+t.Args[1].Const, w), true
		}
		if t.Args[0].IsConst() {
			return t.Args[1], b.Const(t.Args[0].Const-c.Const, w), true
		}
	case OpXor:
		if t.Args[1].IsConst() {
			return t.Args[0], b.Const(c.Const^t.Args[1].Const, w), true
		}
		if t.Args[0].IsConst() {
			return t.Args[1], b.Const(c.Const^t.Args[0].Const, w), true
		}
	case OpNot:
		return t.Args[0], b.Const(^c.Const, w), true
	case OpNeg:
		return t.Args[0], b.Const(-c.Const, w), true
	case OpMul:
		// Invertible when one factor is an odd constant.
		if t.Args[1].IsConst() && t.Args[1].Const&1 == 1 {
			inv := modInverse(t.Args[1].Const, w)
			return t.Args[0], b.Const(c.Const*inv, w), true
		}
		if t.Args[0].IsConst() && t.Args[0].Const&1 == 1 {
			inv := modInverse(t.Args[0].Const, w)
			return t.Args[1], b.Const(c.Const*inv, w), true
		}
	}
	return nil, nil, false
}

// modInverse computes the multiplicative inverse of odd a modulo 2^w by
// Newton iteration.
func modInverse(a uint32, w int) uint32 {
	x := a // correct to 3 bits
	for i := 0; i < 5; i++ {
		x *= 2 - a*x
	}
	return mask(x, w)
}

// --- Equality propagation ---

// EqualityProp merges variables related by x = y conjuncts through a
// union-find and substitutes a canonical representative for each class.
func EqualityProp(b *Builder, phi *Term) *Term { return equalityPropAllow(b, phi, nil) }

func equalityPropAllow(b *Builder, phi *Term, allow func(name string) bool) *Term {
	parent := map[*Term]*Term{}
	var find func(t *Term) *Term
	find = func(t *Term) *Term {
		p, ok := parent[t]
		if !ok || p == t {
			return t
		}
		r := find(p)
		parent[t] = r
		return r
	}
	union := func(x, y *Term) {
		rx, ry := find(x), find(y)
		if rx != ry {
			// Keep the variable with the smaller ID as representative so
			// the result is deterministic.
			if rx.ID > ry.ID {
				rx, ry = ry, rx
			}
			parent[ry] = rx
		}
	}
	n := 0
	for _, cj := range Conjuncts(phi) {
		if cj.Op == OpEq && cj.Args[0].Op == OpVar && cj.Args[1].Op == OpVar {
			union(cj.Args[0], cj.Args[1])
			n++
		}
	}
	if n == 0 {
		return phi
	}
	sub := map[*Term]*Term{}
	for t := range parent {
		if r := find(t); r != t && (allow == nil || allow(t.Name)) {
			sub[t] = r
		}
	}
	return Substitute(b, phi, sub)
}

// --- Strength reduction ---

// StrengthReduce rewrites expensive operators into cheaper equivalents:
// multiplication, division and remainder by powers of two become shifts and
// masks, which bit-blast to far fewer gates.
func StrengthReduce(b *Builder, phi *Term) *Term {
	w := reducer{b: b, s: b.take(phi.ID + 1).withMemo()}
	r := w.walk(phi)
	b.give(w.s)
	return r
}

// reducer is one StrengthReduce walk; its memo lives in a scratch table
// and rebuilt arguments on the table's stack.
type reducer struct {
	b *Builder
	s *scratch
}

func (w *reducer) walk(t *Term) *Term {
	s := w.s
	if s.has(t.ID) {
		return s.memo[t.ID]
	}
	r := t
	if t.Op != OpVar && t.Op != OpConst {
		base := len(s.buf)
		changed := false
		for _, a := range t.Args {
			na := w.walk(a)
			s.buf = append(s.buf, na)
			changed = changed || na != a
		}
		if changed {
			r = Rebuild(w.b, t.Op, t.Width, s.buf[base:])
		}
		s.buf = s.buf[:base]
		r = reduceOne(w.b, r)
	}
	s.mark(t.ID)
	s.memo[t.ID] = r
	return r
}

func reduceOne(b *Builder, t *Term) *Term {
	w := t.Width
	pick := func(x, c *Term) (*Term, uint32, bool) {
		if c.IsConst() {
			return x, c.Const, true
		}
		return nil, 0, false
	}
	switch t.Op {
	case OpMul:
		x, c, ok := pick(t.Args[0], t.Args[1])
		if !ok {
			x, c, ok = pick(t.Args[1], t.Args[0])
		}
		if ok {
			switch {
			case c == 0:
				return b.Const(0, w)
			case c == 1:
				return x
			case isPow2(c):
				return b.Shl(x, b.Const(log2(c), w))
			}
		}
	case OpUDiv:
		if x, c, ok := pick(t.Args[0], t.Args[1]); ok && isPow2(c) {
			if c == 1 {
				return x
			}
			return b.Lshr(x, b.Const(log2(c), w))
		}
	case OpURem:
		if x, c, ok := pick(t.Args[0], t.Args[1]); ok && isPow2(c) {
			return b.And(x, b.Const(c-1, w))
		}
	case OpUlt:
		// x < 1  <=>  x = 0; 0 < x  <=>  x != 0.
		if t.Args[1].IsConst() && t.Args[1].Const == 1 {
			return b.Eq(t.Args[0], b.Const(0, t.Args[0].Width))
		}
		if t.Args[0].IsConst() && t.Args[0].Const == 0 {
			return b.Not(b.Eq(t.Args[1], b.Const(0, t.Args[1].Width)))
		}
	}
	return t
}

func isPow2(c uint32) bool { return c != 0 && c&(c-1) == 0 }

func log2(c uint32) uint32 {
	var n uint32
	for c > 1 {
		c >>= 1
		n++
	}
	return n
}

// --- Gaussian elimination ---

// linExpr is a linear combination sum(coeff[v] * v) + k over 2^w.
type linExpr struct {
	coeff map[*Term]uint32
	k     uint32
	w     int
}

// asLinear decomposes t into a linear expression, or reports failure.
func asLinear(t *Term, depth int) (*linExpr, bool) {
	if depth > 64 {
		return nil, false
	}
	switch t.Op {
	case OpConst:
		return &linExpr{coeff: map[*Term]uint32{}, k: t.Const, w: t.Width}, true
	case OpVar:
		return &linExpr{coeff: map[*Term]uint32{t: 1}, w: t.Width}, true
	case OpAdd, OpSub:
		a, ok := asLinear(t.Args[0], depth+1)
		if !ok {
			return nil, false
		}
		bb, ok := asLinear(t.Args[1], depth+1)
		if !ok {
			return nil, false
		}
		sign := uint32(1)
		if t.Op == OpSub {
			sign = ^uint32(0) // -1
		}
		for v, c := range bb.coeff {
			a.coeff[v] += sign * c
			if a.coeff[v] == 0 {
				delete(a.coeff, v)
			}
		}
		a.k += sign * bb.k
		return a, true
	case OpNeg:
		a, ok := asLinear(t.Args[0], depth+1)
		if !ok {
			return nil, false
		}
		for v := range a.coeff {
			a.coeff[v] = -a.coeff[v]
		}
		a.k = -a.k
		return a, true
	case OpMul:
		var x *Term
		var c uint32
		if t.Args[0].IsConst() {
			c, x = t.Args[0].Const, t.Args[1]
		} else if t.Args[1].IsConst() {
			c, x = t.Args[1].Const, t.Args[0]
		} else {
			return nil, false
		}
		a, ok := asLinear(x, depth+1)
		if !ok {
			return nil, false
		}
		for v := range a.coeff {
			a.coeff[v] *= c
			if a.coeff[v] == 0 {
				delete(a.coeff, v)
			}
		}
		a.k *= c
		return a, true
	}
	return nil, false
}

// GaussianEliminate solves the linear conjuncts of the formula over the
// ring Z/2^w: any equation with an odd-coefficient variable is solved for
// that variable and substituted through the rest of the formula. Running
// it per function on local conditions is one of the expensive steps
// Algorithm 6 decomposes by modularity.
func GaussianEliminate(b *Builder, phi *Term) *Term {
	return gaussianAllow(b, phi, nil)
}

func gaussianAllow(b *Builder, phi *Term, allow func(name string) bool) *Term {
	sub := map[*Term]*Term{}
	var order []*Term
	for _, cj := range Conjuncts(phi) {
		if len(sub) >= 32 {
			break // budget: substitution rounds re-run via Preprocess
		}
		if cj.Op != OpEq {
			continue
		}
		la, ok := asLinear(cj.Args[0], 0)
		if !ok {
			continue
		}
		lb, ok := asLinear(cj.Args[1], 0)
		if !ok {
			continue
		}
		// Move everything to one side: la - lb = 0.
		for v, c := range lb.coeff {
			la.coeff[v] -= c
			if la.coeff[v] == 0 {
				delete(la.coeff, v)
			}
		}
		la.k -= lb.k
		w := cj.Args[0].Width
		// Find an odd-coefficient variable not already substituted.
		var pivot *Term
		var pc uint32
		vars := make([]*Term, 0, len(la.coeff))
		for v := range la.coeff {
			vars = append(vars, v)
		}
		sort.Slice(vars, func(i, j int) bool { return vars[i].ID < vars[j].ID })
		for _, v := range vars {
			if la.coeff[v]&1 == 1 && (allow == nil || allow(v.Name)) {
				if _, done := sub[v]; !done {
					pivot, pc = v, la.coeff[v]
					break
				}
			}
		}
		if pivot == nil {
			continue
		}
		// pivot = -inv(pc) * (k + sum of other terms).
		inv := modInverse(pc, w)
		rhs := b.Const(mask(-inv*la.k, w), w)
		for _, v := range vars {
			if v == pivot {
				continue
			}
			c := mask(-inv*la.coeff[v], w)
			if c == 0 {
				continue
			}
			rhs = b.Add(rhs, b.Mul(b.Const(c, w), v))
		}
		// Avoid self-referential substitutions through earlier pivots.
		rhs = Substitute(b, rhs, sub)
		if containsVar(b, rhs, pivot) {
			continue
		}
		sub[pivot] = rhs
		order = append(order, pivot)
	}
	if len(sub) == 0 {
		return phi
	}
	// Sequential application, as in SolveEqs: earlier replacement terms may
	// mention later pivots.
	for _, v := range order {
		phi = Substitute(b, phi, map[*Term]*Term{v: sub[v]})
	}
	return phi
}

// uncShape summarizes t as a chain of constant-parameterized operations
// ending in a single-parent unconstrained variable leaf, rendered as a
// string key with the leaf abstracted away. Two terms with the same shape
// and distinct leaves have identical value images of size 2^(w - tz), where
// tz accumulates the trailing zeros lost to even multipliers and shifts.
func uncShape(t *Term, parents *scratch, allow func(name string) bool, tz int) (string, int, bool) {
	if parents.countOf(t.ID) > 1 {
		return "", 0, false
	}
	switch t.Op {
	case OpVar:
		if allow != nil && !allow(t.Name) {
			return "", 0, false
		}
		return fmt.Sprintf("leaf%d", t.Width), tz, true
	case OpNot, OpNeg:
		s, z, ok := uncShape(t.Args[0], parents, allow, tz)
		return t.Op.String() + "(" + s + ")", z, ok
	case OpAdd, OpSub, OpXor:
		for i, c := 0, 1; i < 2; i, c = i+1, 0 {
			if t.Args[c].IsConst() {
				s, z, ok := uncShape(t.Args[i], parents, allow, tz)
				return fmt.Sprintf("%s%d.%d(%s)", t.Op, i, t.Args[c].Const, s), z, ok
			}
		}
	case OpMul:
		for i, c := 0, 1; i < 2; i, c = i+1, 0 {
			if t.Args[c].IsConst() && t.Args[c].Const != 0 {
				s, z, ok := uncShape(t.Args[i], parents, allow, tz+trailingZeros(t.Args[c].Const))
				return fmt.Sprintf("mul%d(%s)", t.Args[c].Const, s), z, ok
			}
		}
	case OpShl, OpLshr:
		if t.Args[1].IsConst() && int(t.Args[1].Const) < t.Width {
			s, z, ok := uncShape(t.Args[0], parents, allow, tz+int(t.Args[1].Const))
			return fmt.Sprintf("%s%d(%s)", t.Op, t.Args[1].Const, s), z, ok
		}
	}
	return "", 0, false
}

func trailingZeros(c uint32) int {
	n := 0
	for c&1 == 0 {
		c >>= 1
		n++
	}
	return n
}

// containsVar reports whether the variable v occurs in t, walking only
// subterms whose variable summary admits v.
func containsVar(b *Builder, t, v *Term) bool {
	s := b.take(t.ID + 1)
	found := findVar(s, t, v)
	b.give(s)
	return found
}

func findVar(s *scratch, t, v *Term) bool {
	if t.vars&v.vars == 0 || !s.mark(t.ID) {
		return false
	}
	if t == v {
		return true
	}
	for _, a := range t.Args {
		if findVar(s, a, v) {
			return true
		}
	}
	return false
}

// --- Unconstrained-variable elimination ---

// UnconstrainedElim replaces terms whose value ranges over the whole domain
// independently of everything else (Bryant et al.'s unconstrained-variable
// simplification; footnote 3 of the paper). A variable with a single parent
// under an invertible operator makes the parent unconstrained; conjuncts
// that become unconstrained booleans are satisfiable on their own and drop
// to true — this is how "a is unconstrained" propagation decides the
// motivating example without touching the SAT solver.
func UnconstrainedElim(b *Builder, phi *Term) *Term {
	return unconstrainedAllow(b, phi, nil)
}

func unconstrainedAllow(b *Builder, phi *Term, allow func(name string) bool) *Term {
	for i := 0; i < 8; i++ {
		next := unconstrainedOnce(b, phi, allow)
		if next == phi {
			return phi
		}
		phi = next
		if phi.IsTrue() || phi.IsFalse() {
			return phi
		}
	}
	return phi
}

func unconstrainedOnce(b *Builder, phi *Term, allow func(name string) bool) *Term {
	// Count parents of every node in the DAG; the root has the formula
	// itself as a parent.
	w := uncWalk{parents: b.take(phi.ID + 1).withCounts(), memo: b.take(phi.ID + 1).withCounts(), allow: allow}
	w.parents.bump(phi.ID)
	countParents(w.parents, phi)

	// Any conjunct that is an unconstrained boolean is satisfiable
	// independently of the rest: drop it.
	conjs := Conjuncts(phi)
	kept := make([]*Term, 0, len(conjs))
	changed := false
	for _, cj := range conjs {
		if w.unc(cj) {
			changed = true
			continue
		}
		kept = append(kept, cj)
	}
	b.give(w.memo)
	b.give(w.parents)
	if !changed {
		return phi
	}
	return b.And(kept...)
}

// countParents adds one to the parent count of each argument slot under
// t, walking each subterm once: from its first parent.
func countParents(s *scratch, t *Term) {
	for _, a := range t.Args {
		if s.bump(a.ID) == 1 {
			countParents(s, a)
		}
	}
}

// uncWalk decides which subterms' values can be chosen freely, given
// their parent counts; memo counts 1 for unconstrained, 0 otherwise.
type uncWalk struct {
	parents, memo *scratch
	allow         func(name string) bool
}

// unc reports whether t's value can be chosen freely.
func (w *uncWalk) unc(t *Term) bool {
	if w.memo.has(t.ID) {
		return w.memo.count[t.ID] == 1
	}
	res := false
	if w.parents.countOf(t.ID) <= 1 {
		switch t.Op {
		case OpVar:
			res = w.allow == nil || w.allow(t.Name)
		case OpNot, OpNeg:
			res = w.unc(t.Args[0])
		case OpXor:
			res = w.unc(t.Args[0]) || w.unc(t.Args[1])
		case OpAdd:
			res = w.unc(t.Args[0]) || w.unc(t.Args[1])
		case OpSub:
			res = w.unc(t.Args[0]) || w.unc(t.Args[1])
		case OpMul:
			res = (w.unc(t.Args[0]) && t.Args[1].IsConst() && t.Args[1].Const&1 == 1) ||
				(w.unc(t.Args[1]) && t.Args[0].IsConst() && t.Args[0].Const&1 == 1)
		case OpEq:
			res = w.unc(t.Args[0]) || w.unc(t.Args[1])
		case OpUlt, OpUle, OpSlt, OpSle:
			// Unconstrained when both sides are independent
			// unconstrained terms...
			res = w.unc(t.Args[0]) && w.unc(t.Args[1])
		case OpIte:
			res = w.unc(t.Args[1]) && w.unc(t.Args[2])
		}
		// ...or when both sides are the same function shape applied to
		// distinct unconstrained leaves (e.g. 2a < 2b in the paper's
		// motivating example): the images coincide and contain at
		// least two values, so both comparison outcomes are
		// realizable.
		if !res && len(t.Args) == 2 && t.Args[0] != t.Args[1] {
			switch t.Op {
			case OpEq, OpUlt, OpUle, OpSlt, OpSle:
				s0, tz0, ok0 := uncShape(t.Args[0], w.parents, w.allow, 0)
				s1, tz1, ok1 := uncShape(t.Args[1], w.parents, w.allow, 0)
				width := t.Args[0].Width
				res = ok0 && ok1 && s0 == s1 && tz0 == tz1 && tz0 < width
			}
		}
	}
	w.memo.mark(t.ID)
	w.memo.count[t.ID] = int32(boolVal(res))
	return res
}

// PassesWithKeep returns the default pipeline restricted so that variables
// in the keep set are never eliminated or treated as free choices. The
// fused solver uses it to preprocess per-function local conditions while
// preserving their interface variables (parameters, call results, return
// values, and asserted guards) — Algorithm 6's intraprocedural_preprocess.
func PassesWithKeep(keep map[string]bool) []Pass {
	allow := func(name string) bool { return !keep[name] }
	return []Pass{
		{Name: "const-prop", Run: func(b *Builder, phi *Term) *Term { return constPropAllow(b, phi, allow) }},
		{Name: "equality-prop", Run: func(b *Builder, phi *Term) *Term { return equalityPropAllow(b, phi, allow) }},
		{Name: "solve-eqs", Run: func(b *Builder, phi *Term) *Term { return solveEqsAllow(b, phi, allow) }},
		{Name: "gaussian", Run: func(b *Builder, phi *Term) *Term { return gaussianAllow(b, phi, allow) }},
		{Name: "strength-reduce", Run: StrengthReduce},
		{Name: "unconstrained", Run: func(b *Builder, phi *Term) *Term { return unconstrainedAllow(b, phi, allow) }},
	}
}
