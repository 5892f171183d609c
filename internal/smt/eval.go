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
// returned as they are without being walked.
func Substitute(b *Builder, t *Term, sub map[*Term]*Term) *Term {
	var keys uint64
	prune := true
	for k := range sub {
		keys |= k.vars
		prune = prune && k.vars != 0 // a variable-free key can sit anywhere
	}
	memo := map[*Term]*Term{}
	var walk func(*Term) *Term
	walk = func(t *Term) *Term {
		if prune && t.vars&keys == 0 {
			return t
		}
		if r, ok := memo[t]; ok {
			return r
		}
		var r *Term
		if s, ok := sub[t]; ok {
			r = s
		} else {
			r = t
			var args []*Term // allocated once an argument changes
			for i, a := range t.Args {
				na := walk(a)
				if na != a && args == nil {
					args = make([]*Term, len(t.Args))
					copy(args, t.Args[:i])
				}
				if args != nil {
					args[i] = na
				}
			}
			if args != nil {
				r = Rebuild(b, t.Op, t.Width, args)
			}
		}
		memo[t] = r
		return r
	}
	return walk(t)
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
// fresh variables in b. It is how conditions are cloned per calling context.
func RenameVars(b *Builder, t *Term, fn func(name string) string) *Term {
	sub := map[*Term]*Term{}
	for _, v := range Vars(t) {
		sub[v] = b.Var(fn(v.Name), v.Width)
	}
	return Substitute(b, t, sub)
}
