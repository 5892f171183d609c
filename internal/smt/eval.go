package smt

import "fmt"

// Assignment maps variable terms to concrete values (masked to the
// variable's width).
type Assignment map[*Term]uint32

// Eval computes the concrete value of t under the assignment. Unassigned
// variables evaluate to zero.
func Eval(t *Term, a Assignment) uint32 {
	memo := map[*Term]uint32{}
	var ev func(*Term) uint32
	ev = func(t *Term) uint32 {
		if v, ok := memo[t]; ok {
			return v
		}
		var v uint32
		switch t.Op {
		case OpVar:
			v = mask(a[t], t.Width)
		case OpConst:
			v = t.Const
		case OpNot:
			v = mask(^ev(t.Args[0]), t.Width)
		case OpNeg:
			v = mask(-ev(t.Args[0]), t.Width)
		case OpAnd:
			v = mask(^uint32(0), t.Width)
			for _, x := range t.Args {
				v &= ev(x)
			}
		case OpOr:
			for _, x := range t.Args {
				v |= ev(x)
			}
		case OpIte:
			if ev(t.Args[0]) == 1 {
				v = ev(t.Args[1])
			} else {
				v = ev(t.Args[2])
			}
		default:
			x, y := ev(t.Args[0]), ev(t.Args[1])
			f, ok := foldBinary(t.Op, x, y, t.Args[0].Width)
			if !ok {
				panic(fmt.Sprintf("smt: eval: unhandled operator %s", t.Op))
			}
			v = f
		}
		memo[t] = v
		return v
	}
	return ev(t)
}

// Substitute returns t with every occurrence of the given variables
// replaced, rebuilding (and re-simplifying) the term bottom-up in b.
// Subterms whose variable summary misses every replaced variable are
// returned as they are without being walked, so t and the replacements
// must be terms of b.
func Substitute(b *Builder, t *Term, sub map[*Term]*Term) *Term {
	w := substitution{b: b, sub: sub, prune: true}
	for k := range sub {
		w.keys |= k.vars
		w.prune = w.prune && k.vars != 0 // a variable-free key can sit anywhere
	}
	w.s = b.take(t.ID + 1).withMemo()
	r := w.walk(t)
	b.give(w.s)
	return r
}

// substitution is one Substitute walk; its memo lives in a scratch table
// and rebuilt arguments on the table's stack.
type substitution struct {
	b     *Builder
	sub   map[*Term]*Term
	keys  uint64
	prune bool
	s     *scratch
}

func (w *substitution) walk(t *Term) *Term {
	if w.prune && t.vars&w.keys == 0 {
		return t
	}
	s := w.s
	if s.has(t.ID) {
		return s.memo[t.ID]
	}
	r := t
	if x, ok := w.sub[t]; ok {
		r = x
	} else {
		base := -1 // start of t's arguments on the stack, once one changes
		for i, a := range t.Args {
			na := w.walk(a)
			if na != a && base < 0 {
				base = len(s.buf)
				s.buf = append(s.buf, t.Args[:i]...)
			}
			if base >= 0 {
				s.buf = append(s.buf, na)
			}
		}
		if base >= 0 {
			r = Rebuild(w.b, t.Op, t.Width, s.buf[base:])
			s.buf = s.buf[:base]
		}
	}
	s.mark(t.ID)
	s.memo[t.ID] = r
	return r
}

// Rebuild constructs op(args) through the Builder's canonicalizing
// constructors.
func Rebuild(b *Builder, op Op, width int, args []*Term) *Term {
	switch op {
	case OpNot:
		return b.Not(args[0])
	case OpNeg:
		return b.Neg(args[0])
	case OpAnd:
		return b.And(args...)
	case OpOr:
		return b.Or(args...)
	case OpXor:
		return b.Xor(args[0], args[1])
	case OpAdd:
		return b.Add(args[0], args[1])
	case OpSub:
		return b.Sub(args[0], args[1])
	case OpMul:
		return b.Mul(args[0], args[1])
	case OpUDiv:
		return b.UDiv(args[0], args[1])
	case OpURem:
		return b.URem(args[0], args[1])
	case OpShl:
		return b.Shl(args[0], args[1])
	case OpLshr:
		return b.Lshr(args[0], args[1])
	case OpEq:
		return b.Eq(args[0], args[1])
	case OpUlt:
		return b.Ult(args[0], args[1])
	case OpUle:
		return b.Ule(args[0], args[1])
	case OpSlt:
		return b.Slt(args[0], args[1])
	case OpSle:
		return b.Sle(args[0], args[1])
	case OpIte:
		return b.Ite(args[0], args[1], args[2])
	default:
		panic(fmt.Sprintf("smt: rebuild: unhandled operator %s", op))
	}
}

// RenameVars returns t with every variable renamed through fn, creating
// fresh variables in b, which must have built t. It is how conditions are
// cloned per calling context.
func RenameVars(b *Builder, t *Term, fn func(name string) string) *Term {
	sub := map[*Term]*Term{}
	for _, v := range Vars(t) {
		sub[v] = b.Var(fn(v.Name), v.Width)
	}
	return Substitute(b, t, sub)
}
