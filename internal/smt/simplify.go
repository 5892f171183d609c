package smt

// SimplifyLocal is the lightweight formula simplification (LFS) of the
// evaluation: pure local rewriting, the analogue of Z3's "simplify" tactic.
// It performs a single bottom-up rewriting sweep with rules beyond the
// Builder's constructor canonicalization.
func SimplifyLocal(b *Builder, phi *Term) *Term {
	memo := map[*Term]*Term{}
	var walk func(*Term) *Term
	walk = func(t *Term) *Term {
		if r, ok := memo[t]; ok {
			return r
		}
		var r *Term
		switch t.Op {
		case OpVar, OpConst:
			r = t
		default:
			args := make([]*Term, len(t.Args))
			changed := false
			for i, a := range t.Args {
				args[i] = walk(a)
				changed = changed || args[i] != a
			}
			cur := t
			if changed {
				cur = Rebuild(b, t.Op, t.Width, args)
			}
			r = simplifyOne(b, cur)
		}
		memo[t] = r
		return r
	}
	return walk(phi)
}

func simplifyOne(b *Builder, t *Term) *Term {
	switch t.Op {
	case OpNot:
		// Push negation through comparisons: !(x < y) = y <= x, etc.
		x := t.Args[0]
		switch x.Op {
		case OpUlt:
			return b.Ule(x.Args[1], x.Args[0])
		case OpUle:
			return b.Ult(x.Args[1], x.Args[0])
		case OpSlt:
			return b.Sle(x.Args[1], x.Args[0])
		case OpSle:
			return b.Slt(x.Args[1], x.Args[0])
		}
	case OpEq:
		x, y := t.Args[0], t.Args[1]
		// ite(c, a, b) = a simplifies when a and b are distinct constants.
		for _, ord := range [2][2]*Term{{x, y}, {y, x}} {
			ite, v := ord[0], ord[1]
			if ite.Op == OpIte && v.IsConst() && ite.Args[1].IsConst() && ite.Args[2].IsConst() {
				switch {
				case ite.Args[1] == v && ite.Args[2] != v:
					return ite.Args[0]
				case ite.Args[2] == v && ite.Args[1] != v:
					return b.Not(ite.Args[0])
				case ite.Args[1] != v && ite.Args[2] != v:
					return b.False()
				}
			}
		}
		// x + c1 = c2 becomes x = c2 - c1 (and similar single-step
		// inversions), which exposes more sharing.
		if y.IsConst() {
			if nx, nc, ok := invertStep(b, x, y); ok {
				return b.Eq(nx, nc)
			}
		}
		if x.IsConst() {
			if ny, nc, ok := invertStep(b, y, x); ok {
				return b.Eq(ny, nc)
			}
		}
	case OpIte:
		c, x, y := t.Args[0], t.Args[1], t.Args[2]
		// ite(c, true, y) = c or y; ite(c, false, y) = !c and y; etc.
		if t.Width == 1 {
			switch {
			case x.IsTrue():
				return b.Or(c, y)
			case x.IsFalse():
				return b.And(b.Not(c), y)
			case y.IsTrue():
				return b.Or(b.Not(c), x)
			case y.IsFalse():
				return b.And(c, x)
			}
		}
		// Nested ite with the same condition collapses.
		if x.Op == OpIte && x.Args[0] == c {
			return b.Ite(c, x.Args[1], y)
		}
		if y.Op == OpIte && y.Args[0] == c {
			return b.Ite(c, x, y.Args[2])
		}
	case OpAnd:
		// Complementary literals: x and !x give false. (Quadratic scan
		// bounded to small conjunctions; the Builder already dedups.)
		if t.Width == 1 && len(t.Args) <= 64 {
			present := map[*Term]bool{}
			for _, a := range t.Args {
				present[a] = true
			}
			for _, a := range t.Args {
				if a.Op == OpNot && present[a.Args[0]] {
					return b.False()
				}
			}
		}
	}
	return t
}

// ContextSimplifier is the heavyweight formula simplification (HFS), the
// analogue of Z3's "ctx-solver-simplify" tactic: each conjunct is tested
// for redundancy under the rest of the formula by calling the solver, which
// makes it precise and expensive — exactly the trade-off the paper's
// evaluation measures.
type ContextSimplifier struct {
	// Solve decides a formula; wired to the standalone solver to avoid an
	// import cycle.
	Solve func(b *Builder, phi *Term) (sat bool, unknown bool)
	// MaxQueries bounds the number of solver calls per invocation.
	MaxQueries int
	// Queries counts solver calls across invocations.
	Queries int
}

// Simplify removes conjuncts implied by the remaining ones and detects
// top-level contradictions.
func (cs *ContextSimplifier) Simplify(b *Builder, phi *Term) *Term {
	conjs := Conjuncts(phi)
	if len(conjs) <= 1 {
		return phi
	}
	budget := cs.MaxQueries
	if budget <= 0 {
		budget = 64
	}
	kept := append([]*Term(nil), conjs...)
	for i := 0; i < len(kept); i++ {
		if budget == 0 {
			break
		}
		budget--
		cs.Queries++
		// rest ∧ ¬ci unsat  =>  ci is implied: drop it.
		rest := make([]*Term, 0, len(kept)-1)
		rest = append(rest, kept[:i]...)
		rest = append(rest, kept[i+1:]...)
		query := b.And(append(append([]*Term(nil), rest...), b.Not(kept[i]))...)
		sat, unknown := cs.Solve(b, query)
		if unknown {
			continue
		}
		if !sat {
			kept = rest
			i--
		}
	}
	return b.And(kept...)
}
