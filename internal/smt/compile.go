package smt

import (
	"fmt"
	"unsafe"
)

// Program is a term DAG compiled to straight-line code over one flat
// []uint32 of slots, for callers that evaluate the same formula under many
// assignments. Compilation gives every distinct sub-term one slot, and
// every non-constant one an instruction (op, width, argument slots), in
// post-order, so every argument is written before it is read; running a
// span of instructions allocates nothing. The arithmetic is Eval's — foldBinary and mask — so a Program
// and Eval agree on every node under every assignment.
//
// Slots are numbered in that post-order, so a walk over 0..Len()-1 meets
// every node after its arguments. After compilation a Program holds no
// term but its variables: callers read the DAG's shape off the slots
// (Op, Width, Args, Const, Input) without a term-keyed lookup.
//
// Run reads the variables from a separate inputs array: in[i] holds the
// raw value of input i — Vars()[i] for a compiled Program — which the
// variable's instruction masks to its width on read, exactly as Eval
// reads a[t].
//
// A Program need not come from terms: NewProgram starts an empty one,
// AddVar, AddConst and AddOp append slots in post-order, and SetRoots
// closes its full pass. Such a Program has inputs but no Vars.
type Program struct {
	code []instr
	// args holds And and Or operand slots, indexed by instr.x[0:2].
	args []int32
	// at maps a slot to its instruction in code, or a constant's slot k
	// to -1-k, its entry in consts.
	at     []int32
	vars   []*Term
	nin    int32 // inputs
	consts []constSlot
	roots  []int32
	all    Span
	mark   []uint32 // per-slot visit stamps for Span
	stamp  uint32
}

// instr computes one node: vals[dst] = op(vals[x[0]], vals[x[1]],
// vals[x[2]]). For a variable, x[0] indexes the inputs; for And and Or,
// args[x[0]:x[1]] are the operands.
type instr struct {
	op    uint8 // an Op
	w, aw uint8 // result width; first operand's width (foldBinary's w)
	dst   int32
	x     [3]int32
}

// constSlot is a constant node's slot, value and width.
type constSlot struct {
	slot int32
	v    uint32
	w    uint8
}

// Span is a contiguous run of a Program's instructions.
type Span struct{ lo, hi int32 }

// Compile compiles the DAG under roots, which must be terms of b; Root(i)
// is roots[i]'s slot. Its full pass, All, evaluates every node of it. The
// term-to-slot map lives in one of b's scratch tables for the length of
// the call, and the Program's slices are sized by a counting walk first,
// so compiling costs a fixed number of allocations whatever the DAG's size.
func (b *Builder) Compile(roots ...*Term) *Program {
	top := 0
	for _, r := range roots {
		top = max(top, r.ID)
	}
	s := b.take(top + 1)
	var sh dagShape
	for _, r := range roots {
		sh.count(s, r)
	}
	b.give(s)
	p := &Program{
		// The full pass, and room for spans as long again.
		code:   make([]instr, 0, 2*(sh.nodes-sh.consts)),
		args:   make([]int32, 0, sh.nary),
		at:     make([]int32, 0, sh.nodes),
		vars:   make([]*Term, 0, sh.vars),
		consts: make([]constSlot, 0, sh.consts),
		roots:  make([]int32, len(roots)),
	}
	c := compiler{p: p, s: b.take(top + 1).withCounts()}
	for i, r := range roots {
		p.roots[i] = c.visit(r)
	}
	b.give(c.s)
	p.all = Span{0, int32(len(p.code))}
	return p
}

// dagShape counts what a Program of a DAG holds: its distinct nodes,
// constants and variables, and the operands of its And and Or nodes.
type dagShape struct{ nodes, consts, vars, nary int }

func (sh *dagShape) count(s *scratch, t *Term) {
	if !s.mark(t.ID) {
		return
	}
	sh.nodes++
	switch t.Op {
	case OpConst:
		sh.consts++
	case OpVar:
		sh.vars++
	case OpAnd, OpOr:
		sh.nary += len(t.Args)
	}
	for _, a := range t.Args {
		sh.count(s, a)
	}
}

// compiler is one Compile walk: s marks the visited terms and maps each
// to its slot by ID.
type compiler struct {
	p *Program
	s *scratch
}

// visit compiles t after its arguments and returns its slot.
func (c *compiler) visit(t *Term) int32 {
	if !c.s.mark(t.ID) {
		return c.s.count[t.ID]
	}
	for _, a := range t.Args {
		c.visit(a)
	}
	p := c.p
	slot := int32(len(p.at))
	c.s.count[t.ID] = slot
	switch t.Op {
	case OpConst:
		return p.AddConst(t.Const, t.Width)
	case OpVar:
		p.vars = append(p.vars, t)
		return p.AddVar(t.Width)
	}
	p.at = append(p.at, int32(len(p.code)))
	in := instr{op: uint8(t.Op), w: uint8(t.Width), dst: slot}
	switch t.Op {
	case OpAnd, OpOr:
		in.x[0] = int32(len(p.args))
		for _, a := range t.Args {
			p.args = append(p.args, c.s.count[a.ID])
		}
		in.x[1] = int32(len(p.args))
	case OpNot, OpNeg:
		in.x[0] = c.s.count[t.Args[0].ID]
	case OpIte:
		for i, a := range t.Args {
			in.x[i] = c.s.count[a.ID]
		}
	default:
		if _, ok := foldBinary(t.Op, 0, 0, t.Args[0].Width); !ok {
			panic(fmt.Sprintf("smt: compile: unhandled operator %s", t.Op))
		}
		in.aw = uint8(t.Args[0].Width)
		in.x[0], in.x[1] = c.s.count[t.Args[0].ID], c.s.count[t.Args[1].ID]
	}
	p.code = append(p.code, in)
	return slot
}

// NewProgram returns an empty Program to append slots to.
func NewProgram() *Program { return &Program{} }

// AddVar appends input NumInputs() of width w and returns its slot.
func (p *Program) AddVar(w int) int32 {
	slot := int32(len(p.at))
	p.at = append(p.at, int32(len(p.code)))
	p.code = append(p.code, instr{op: uint8(OpVar), w: uint8(w), dst: slot, x: [3]int32{p.nin}})
	p.nin++
	return slot
}

// AddConst appends the w-bit constant v (truncated to w bits) and returns
// its slot.
func (p *Program) AddConst(v uint32, w int) int32 {
	slot := int32(len(p.at))
	p.at = append(p.at, -1-int32(len(p.consts)))
	p.consts = append(p.consts, constSlot{slot, mask(v, w), uint8(w)})
	return slot
}

// AddOp appends op over the argument slots, which must already exist,
// and returns its slot. The width follows the Builder's constructors:
// comparisons are width 1, an Ite has its branches' width, an And or Or
// without operands is true, and every other node has its first operand's
// width. And and Or take any number of operands, Not and Neg one, Ite
// three and every other operator two.
func (p *Program) AddOp(op Op, args ...int32) int32 {
	in := instr{op: uint8(op), dst: int32(len(p.at))}
	switch op {
	case OpAnd, OpOr:
		in.w = 1
		if len(args) > 0 {
			in.w = uint8(p.Width(args[0]))
		}
		in.x[0] = int32(len(p.args))
		p.args = append(p.args, args...)
		in.x[1] = int32(len(p.args))
	case OpNot, OpNeg:
		in.w = uint8(p.Width(args[0]))
		in.x[0] = args[0]
	case OpIte:
		in.w = uint8(p.Width(args[1]))
		copy(in.x[:], args[:3])
	default:
		aw := p.Width(args[0])
		if _, ok := foldBinary(op, 0, 0, aw); !ok {
			panic(fmt.Sprintf("smt: program: unhandled operator %s", op))
		}
		in.w, in.aw = uint8(aw), uint8(aw)
		switch op {
		case OpEq, OpUlt, OpUle, OpSlt, OpSle:
			in.w = 1
		}
		in.x[0], in.x[1] = args[0], args[1]
	}
	p.at = append(p.at, int32(len(p.code)))
	p.code = append(p.code, in)
	return in.dst
}

// SetRoots names the roots of a Program built with AddVar, AddConst and
// AddOp, and makes its full pass, All, every instruction appended so far.
func (p *Program) SetRoots(roots ...int32) {
	p.roots = roots
	p.all = Span{0, int32(len(p.code))}
}

// NumInputs returns the number of inputs Run reads.
func (p *Program) NumInputs() int { return int(p.nin) }

// Bytes returns the heap held by the Program's instruction, operand,
// slot and constant tables, by capacity.
func (p *Program) Bytes() int64 {
	return int64(cap(p.code))*int64(unsafe.Sizeof(instr{})) +
		int64(cap(p.args)+cap(p.at))*int64(unsafe.Sizeof(int32(0))) +
		int64(cap(p.consts))*int64(unsafe.Sizeof(constSlot{}))
}

// Len returns the number of slots; slots are numbered in post-order.
func (p *Program) Len() int { return len(p.at) }

// Root returns the slot of the i-th root passed to Compile.
func (p *Program) Root(i int) int32 { return p.roots[i] }

// Op returns the operator of slot s's node.
func (p *Program) Op(s int32) Op {
	if k := p.at[s]; k >= 0 {
		return Op(p.code[k].op)
	}
	return OpConst
}

// Width returns the width of slot s's node.
func (p *Program) Width(s int32) int {
	if k := p.at[s]; k >= 0 {
		return int(p.code[k].w)
	}
	return int(p.consts[-1-p.at[s]].w)
}

// Const returns the value of constant slot s.
func (p *Program) Const(s int32) uint32 {
	k := p.at[s]
	if k >= 0 {
		panic(fmt.Sprintf("smt: slot %d is not a constant", s))
	}
	return p.consts[-1-k].v
}

// Input returns variable slot s's index in Vars().
func (p *Program) Input(s int32) int32 {
	k := p.at[s]
	if k < 0 || Op(p.code[k].op) != OpVar {
		panic(fmt.Sprintf("smt: slot %d is not a variable", s))
	}
	return p.code[k].x[0]
}

// Args returns the slots of slot s's operands, in the term's argument
// order; constants and variables have none. The slice belongs to the
// Program and must not be modified.
func (p *Program) Args(s int32) []int32 {
	k := p.at[s]
	if k < 0 {
		return nil
	}
	in := &p.code[k]
	switch Op(in.op) {
	case OpVar:
		return nil
	case OpAnd, OpOr:
		return p.args[in.x[0]:in.x[1]]
	case OpNot, OpNeg:
		return in.x[:1]
	case OpIte:
		return in.x[:3]
	}
	return in.x[:2]
}

// Vars returns the compiled DAG's free variables in first-occurrence
// order; Run reads Vars()[i]'s raw value from in[i]. A Program built
// without terms has none.
func (p *Program) Vars() []*Term { return p.vars }

// Slots returns a fresh slot array with the constants written; Run never
// overwrites them.
func (p *Program) Slots() []uint32 {
	vals := make([]uint32, len(p.at))
	for _, c := range p.consts {
		vals[c.slot] = c.v
	}
	return vals
}

// All returns the span that evaluates every node of the compiled DAG.
func (p *Program) All() Span { return p.all }

// Span appends a re-evaluation of the sub-DAGs under the given slots and
// returns it: running it refreshes exactly the slots of those sub-DAGs
// from the current inputs. Its instructions are copies of the full
// pass's, in the same post-order.
func (p *Program) Span(roots ...int32) Span {
	if p.mark == nil {
		p.mark = make([]uint32, len(p.at))
	}
	p.stamp++
	lo := int32(len(p.code))
	for _, r := range roots {
		p.respan(r)
	}
	return Span{lo, int32(len(p.code))}
}

func (p *Program) respan(s int32) {
	k := p.at[s]
	if k < 0 || p.mark[s] == p.stamp {
		return
	}
	p.mark[s] = p.stamp
	for _, a := range p.Args(s) {
		p.respan(a)
	}
	p.code = append(p.code, p.code[k])
}

// Run executes span s over vals, which Slots allocated, reading the
// variables' raw values from in.
func (p *Program) Run(in, vals []uint32, s Span) {
	code := p.code[s.lo:s.hi]
	for i := range code {
		ins := &code[i]
		var v uint32
		switch Op(ins.op) {
		case OpVar:
			v = mask(in[ins.x[0]], int(ins.w))
		case OpNot:
			v = mask(^vals[ins.x[0]], int(ins.w))
		case OpNeg:
			v = mask(-vals[ins.x[0]], int(ins.w))
		case OpAnd:
			v = mask(^uint32(0), int(ins.w))
			for _, x := range p.args[ins.x[0]:ins.x[1]] {
				v &= vals[x]
			}
		case OpOr:
			for _, x := range p.args[ins.x[0]:ins.x[1]] {
				v |= vals[x]
			}
		case OpIte:
			if vals[ins.x[0]] == 1 {
				v = vals[ins.x[1]]
			} else {
				v = vals[ins.x[2]]
			}
		default:
			v, _ = foldBinary(Op(ins.op), vals[ins.x[0]], vals[ins.x[1]], int(ins.aw))
		}
		vals[ins.dst] = v
	}
}
