package cond

import (
	"context"
	"fmt"
	"sort"

	"fusion/internal/lang"
	"fusion/internal/pdg"
	"fusion/internal/poll"
	"fusion/internal/smt"
	"fusion/internal/ssa"
)

// maxProgramValues bounds CompileSlice: a slice that needs more (value,
// context) pairs than this is not compiled. It is the probe's input limit
// (solver.ProbeProgram), restated for the pairs that would feed it.
const maxProgramValues = 1 << 16

// SliceProgram is a slice compiled straight into an smt.Program, with no
// term built: Translate's rules (5)-(8) with every defining equation
// turned into a computation. There is one slot per (SSA value, context),
// computed forward from the free inputs — root-context parameters,
// extern receivers and receivers of callees without a return value. A
// formal parameter's slot is the actual's slot in the caller instance,
// and a receiver's slot is the callee's return slot in the child
// instance. The Program's root is the conjunction of the paths' guard
// chains, the value constraints and the conditions of pruned ite edges.
type SliceProgram struct {
	Prog *smt.Program

	t *CtxTree // the instances' contexts, created on demand

	slots     map[valueCtx]int32
	instances map[funcCtx]bool
}

type valueCtx struct {
	v *ssa.Value
	c *Ctx
}

type funcCtx struct {
	f *ssa.Function
	c *Ctx
}

// Instances returns the number of (function, context) instances compiled.
func (sp *SliceProgram) Instances() int { return len(sp.instances) }

// Each calls fn with every non-constant value of every instance, its
// context and its slot. Several values may share a slot: a copy, a
// return, a branch, a linked parameter or receiver, or the value of an
// ite with a pruned edge is its source's slot.
func (sp *SliceProgram) Each(fn func(v *ssa.Value, c *Ctx, slot int32)) {
	for k, s := range sp.slots {
		if k.v.Op != ssa.OpConst {
			fn(k.v, k.c, s)
		}
	}
}

// CompileSlice compiles sl into a SliceProgram. Instances are created on
// demand from the paths' steps: a step's instance, the caller instance
// that holds a parameter's actual, and the child instance that returns a
// receiver's value. ok is false, with a partial program, when more than
// maxProgramValues (value, context) pairs are needed or ctx is cancelled;
// the count is checked as pairs are made, so the context tree is never
// enumerated.
func CompileSlice(ctx context.Context, sl *pdg.Slice) (sp *SliceProgram, ok bool) {
	e := &emitter{
		sl: sl, g: sl.G,
		sp: &SliceProgram{
			Prog:      smt.NewProgram(),
			t:         NewCtxTree(),
			slots:     map[valueCtx]int32{},
			instances: map[funcCtx]bool{},
		},
		vals:     map[*ssa.Function][]*ssa.Value{},
		asserted: map[int32]bool{},
		stop:     poll.Stop(ctx, 64),
	}
	for v := range sl.Values {
		e.vals[v.Fn] = append(e.vals[v.Fn], v)
	}
	for _, vs := range e.vals {
		sort.Slice(vs, func(i, j int) bool { return vs[i].ID < vs[j].ID })
	}
	t := e.sp.t
	ctxs := make([][]*Ctx, len(sl.Paths))
	for pi, p := range sl.Paths {
		ctxs[pi] = AssignContexts(t, p)
		for i, step := range p {
			e.emit(step.V.Fn, ctxs[pi][i])
			e.assertGuards(step.V, ctxs[pi][i])
			if step.Kind == pdg.StepCall {
				if c := e.g.SiteCall[step.Site]; c != nil {
					e.emit(c.Fn, ctxs[pi][i].Parent)
					e.assertGuards(c, ctxs[pi][i].Parent)
				}
			}
		}
	}
	for _, vc := range sl.Constraints {
		if vc.Path < len(sl.Paths) && vc.Step < len(sl.Paths[vc.Path]) {
			e.constrain(vc, sl.Paths[vc.Path][vc.Step].V, ctxs[vc.Path][vc.Step])
		}
	}
	if e.over {
		return e.sp, false
	}
	p := e.sp.Prog
	p.SetRoots(p.AddOp(smt.OpAnd, e.conjs...))
	return e.sp, true
}

// emitter is one CompileSlice run. Once over is set — too many pairs, or
// ctx cancelled — it emits nothing more.
type emitter struct {
	sl       *pdg.Slice
	g        *pdg.Graph
	sp       *SliceProgram
	vals     map[*ssa.Function][]*ssa.Value // sliced values per function, by ID
	conjs    []int32
	asserted map[int32]bool
	stop     func() bool
	over     bool
}

// inProgress marks a pair whose slot is being computed.
const inProgress = -1

// emit compiles every sliced value of f in c, once per instance.
func (e *emitter) emit(f *ssa.Function, c *Ctx) {
	k := funcCtx{f, c}
	if e.over || e.sp.instances[k] {
		return
	}
	e.sp.instances[k] = true
	for _, v := range e.vals[f] {
		if e.slot(v, c); e.over {
			return
		}
	}
}

// slot returns v's slot in c, compiling it on first use. Its result is
// meaningless once e.over is set.
func (e *emitter) slot(v *ssa.Value, c *Ctx) int32 {
	if e.over {
		return 0
	}
	k := valueCtx{v, c}
	if v.Op == ssa.OpConst {
		k.c = nil // a constant is one slot in every context
	}
	if s, ok := e.sp.slots[k]; ok {
		if s == inProgress {
			// Recursion is unrolled away before SSA construction, so a
			// cycle here indicates a pipeline bug.
			panic(fmt.Sprintf("cond: cyclic definition of %s in %s", VarName(v, c), c))
		}
		return s
	}
	if len(e.sp.slots) >= maxProgramValues || (e.stop != nil && e.stop()) {
		e.over = true
		return 0
	}
	e.sp.slots[k] = inProgress
	s := e.define(v, c)
	e.sp.slots[k] = s
	return s
}

// define compiles v in c: rule (6) for a value of the instance, rules (7)
// and (8) across call edges.
func (e *emitter) define(v *ssa.Value, c *Ctx) int32 {
	p := e.sp.Prog
	bits := pdg.TypeBits(v.Type)
	switch v.Op {
	case ssa.OpConst:
		return p.AddConst(v.Const, bits)
	case ssa.OpParam:
		if c.Parent == nil {
			return p.AddVar(bits) // root context: parameters are free
		}
		call := e.g.SiteCall[c.Site]
		idx := pdg.ParamIndex(v)
		if call == nil || idx < 0 || idx >= len(call.Args) {
			return p.AddVar(bits)
		}
		// Rule (7): the formal is the actual in the caller instance.
		e.emit(call.Fn, c.Parent)
		return e.slot(call.Args[idx], c.Parent)
	case ssa.OpCopy, ssa.OpReturn, ssa.OpBranch:
		return e.slot(v.Args[0], c)
	case ssa.OpNot, ssa.OpNeg:
		op := smt.OpNot
		if v.Op == ssa.OpNeg {
			op = smt.OpNeg
		}
		a := e.slot(v.Args[0], c)
		if e.over {
			return 0
		}
		return p.AddOp(op, a)
	case ssa.OpBin:
		l := e.slot(v.Args[0], c)
		r := e.slot(v.Args[1], c)
		if e.over {
			return 0
		}
		return e.bin(v.BinOp, l, r)
	case ssa.OpIte:
		cond := e.slot(v.Args[0], c)
		thenIn, elseIn := e.sl.IteTaken(v)
		switch {
		case thenIn && elseIn:
			t := e.slot(v.Args[1], c)
			f := e.slot(v.Args[2], c)
			if e.over {
				return 0
			}
			return p.AddOp(smt.OpIte, cond, t, f)
		case thenIn:
			e.assert(cond)
			return e.slot(v.Args[1], c)
		case elseIn:
			if e.over {
				return 0
			}
			e.assert(p.AddOp(smt.OpNot, cond))
			return e.slot(v.Args[2], c)
		default:
			// Both edges pruned by conflicting paths: infeasible, and the
			// value is unconstrained.
			e.assert(p.AddConst(0, 1))
			return p.AddVar(bits)
		}
	case ssa.OpCall:
		callee := e.g.Callee(v)
		if callee.Ret == nil {
			return p.AddVar(bits)
		}
		// Rule (8): the receiver is the callee's return value in the
		// child instance.
		child := e.sp.t.Child(c, v.Site)
		e.emit(callee, child)
		return e.slot(callee.Ret, child)
	case ssa.OpExtern:
		return p.AddVar(bits) // empty function: the receiver is unconstrained
	default:
		panic(fmt.Sprintf("cond: unhandled op %s", v.Op))
	}
}

// bin compiles a binary operator as Translator.BinTerm builds it.
func (e *emitter) bin(op lang.BinOp, l, r int32) int32 {
	p := e.sp.Prog
	switch op {
	case lang.OpAdd:
		return p.AddOp(smt.OpAdd, l, r)
	case lang.OpSub:
		return p.AddOp(smt.OpSub, l, r)
	case lang.OpMul:
		return p.AddOp(smt.OpMul, l, r)
	case lang.OpDiv:
		return p.AddOp(smt.OpUDiv, l, r)
	case lang.OpRem:
		return p.AddOp(smt.OpURem, l, r)
	case lang.OpEq:
		return p.AddOp(smt.OpEq, l, r)
	case lang.OpNe:
		return p.AddOp(smt.OpNot, p.AddOp(smt.OpEq, l, r))
	case lang.OpLt:
		return p.AddOp(smt.OpSlt, l, r)
	case lang.OpLe:
		return p.AddOp(smt.OpSle, l, r)
	case lang.OpGt:
		return p.AddOp(smt.OpSlt, r, l)
	case lang.OpGe:
		return p.AddOp(smt.OpSle, r, l)
	case lang.OpAnd, lang.OpBitAnd:
		return p.AddOp(smt.OpAnd, l, r)
	case lang.OpOr, lang.OpBitOr:
		return p.AddOp(smt.OpOr, l, r)
	case lang.OpBitXor:
		return p.AddOp(smt.OpXor, l, r)
	case lang.OpShl:
		return p.AddOp(smt.OpShl, l, r)
	case lang.OpShr:
		return p.AddOp(smt.OpLshr, l, r)
	default:
		panic(fmt.Sprintf("cond: unhandled binary operator %s", op))
	}
}

// assert adds slot s, a width-1 value, to the root's conjuncts, once;
// the constant true is left out.
func (e *emitter) assert(s int32) {
	p := e.sp.Prog
	if e.over || e.asserted[s] || (p.Op(s) == smt.OpConst && p.Const(s) == 1) {
		return
	}
	e.asserted[s] = true
	e.conjs = append(e.conjs, s)
}

// assertGuards asserts v's transitive chain of branch vertices in c —
// rule (5).
func (e *emitter) assertGuards(v *ssa.Value, c *Ctx) {
	for gd := v.Guard; gd != nil; gd = gd.Guard {
		e.assert(e.slot(gd, c))
	}
}

// constrain asserts a pinned path-step value, as
// Translator.ValueConstraints translates it, at step vertex v in c.
func (e *emitter) constrain(vc pdg.ValueConstraint, v *ssa.Value, c *Ctx) {
	p := e.sp.Prog
	switch vc.Kind {
	case pdg.ConstraintOutOfBounds:
		x := e.slot(v, c)
		if e.over {
			return
		}
		bits := pdg.TypeBits(v.Type)
		e.assert(p.AddOp(smt.OpOr,
			p.AddOp(smt.OpSlt, x, p.AddConst(0, bits)),
			p.AddOp(smt.OpSle, p.AddConst(vc.Bound, bits), x)))
	case pdg.ConstraintOutOfBoundsDyn:
		if vc.Arg < 0 || vc.Arg >= len(v.Args) || vc.BoundArg < 0 || vc.BoundArg >= len(v.Args) {
			return
		}
		idx := v.Args[vc.Arg]
		x := e.slot(idx, c)
		bnd := e.slot(v.Args[vc.BoundArg], c)
		if e.over {
			return
		}
		e.assert(p.AddOp(smt.OpOr,
			p.AddOp(smt.OpSlt, x, p.AddConst(0, pdg.TypeBits(idx.Type))),
			p.AddOp(smt.OpSle, bnd, x)))
	default:
		x := e.slot(v, c)
		if e.over {
			return
		}
		e.assert(p.AddOp(smt.OpEq, x, p.AddConst(vc.Value, pdg.TypeBits(v.Type))))
	}
}
