package smt

import "fmt"

// Program is a term DAG compiled to straight-line code over one flat
// []uint32 of slots, for callers that evaluate the same formula under many
// assignments. Compilation gives every distinct sub-term one slot, and
// every non-constant one an instruction (op, width, argument slots), in
// post-order, so every argument is written before it is read; running a
// span of instructions allocates nothing. The arithmetic is Eval's — foldBinary and mask — so a Program
// and Eval agree on every node under every assignment.
//
// Run reads the variables from a separate inputs array: in[i] holds the
// raw value of Vars()[i], which the variable's instruction masks to its
// width on read, exactly as Eval reads a[t].
type Program struct {
	code   []instr
	args   []int32 // n-ary operand slots, indexed by instr.a/instr.b
	slot   map[*Term]int32
	input  map[*Term]int32 // a variable's index in vars
	vars   []*Term
	consts []constSlot
	nslots int32
	all    Span
	mark   []uint32 // per-slot visit stamps for Span
	stamp  uint32
}

// instr computes one node: vals[dst] = op(vals[a], vals[b], vals[c]). For
// a variable, a indexes the inputs; for And and Or, args[a:b] are the
// operands.
type instr struct {
	op      uint8 // an Op
	w, aw   uint8 // result width; first operand's width (foldBinary's w)
	dst     int32
	a, b, c int32
}

// constSlot is a constant node's slot and value.
type constSlot struct {
	slot int32
	v    uint32
}

// Span is a contiguous run of a Program's instructions.
type Span struct{ lo, hi int32 }

// Compile compiles the DAG under roots. Its full pass, All, evaluates every
// node of it.
func Compile(roots ...*Term) *Program {
	p := &Program{slot: map[*Term]int32{}, input: map[*Term]int32{}}
	var visit func(t *Term)
	visit = func(t *Term) {
		if _, ok := p.slot[t]; ok {
			return
		}
		for _, a := range t.Args {
			visit(a)
		}
		s := p.nslots
		p.nslots++
		p.slot[t] = s
		switch t.Op {
		case OpConst:
			p.consts = append(p.consts, constSlot{s, t.Const})
			return
		case OpVar:
			p.input[t] = int32(len(p.vars))
			p.vars = append(p.vars, t)
		}
		p.emit(t, s)
	}
	for _, r := range roots {
		visit(r)
	}
	p.all = Span{0, int32(len(p.code))}
	p.mark = make([]uint32, p.nslots)
	return p
}

// emit appends the instruction computing t into slot s; t's operands
// must already have slots.
func (p *Program) emit(t *Term, s int32) {
	in := instr{op: uint8(t.Op), w: uint8(t.Width), dst: s}
	switch t.Op {
	case OpVar:
		in.a = p.input[t]
	case OpAnd, OpOr:
		in.a = int32(len(p.args))
		for _, x := range t.Args {
			p.args = append(p.args, p.slot[x])
		}
		in.b = int32(len(p.args))
	case OpNot, OpNeg:
		in.a = p.slot[t.Args[0]]
	case OpIte:
		in.a, in.b, in.c = p.slot[t.Args[0]], p.slot[t.Args[1]], p.slot[t.Args[2]]
	default:
		if _, ok := foldBinary(t.Op, 0, 0, t.Args[0].Width); !ok {
			panic(fmt.Sprintf("smt: compile: unhandled operator %s", t.Op))
		}
		in.aw = uint8(t.Args[0].Width)
		in.a, in.b = p.slot[t.Args[0]], p.slot[t.Args[1]]
	}
	p.code = append(p.code, in)
}

// Vars returns the compiled DAG's free variables in first-occurrence
// order; Run reads Vars()[i]'s raw value from in[i].
func (p *Program) Vars() []*Term { return p.vars }

// Input returns variable v's index in Vars(); v must be a variable of
// the compiled DAG.
func (p *Program) Input(v *Term) int32 {
	i, ok := p.input[v]
	if !ok {
		panic(fmt.Sprintf("smt: %s is not a variable of the compiled DAG", v.Name))
	}
	return i
}

// Slot returns the slot holding t's value; t must be a node of the
// compiled DAG.
func (p *Program) Slot(t *Term) int32 {
	s, ok := p.slot[t]
	if !ok {
		panic(fmt.Sprintf("smt: term %d is not in the compiled DAG", t.ID))
	}
	return s
}

// Slots returns a fresh slot array with the constants written; Run never
// overwrites them.
func (p *Program) Slots() []uint32 {
	vals := make([]uint32, p.nslots)
	for _, c := range p.consts {
		vals[c.slot] = c.v
	}
	return vals
}

// All returns the span that evaluates every node of the compiled DAG.
func (p *Program) All() Span { return p.all }

// Span appends a re-evaluation of the sub-DAGs under roots, which must be
// nodes of the compiled DAG, and returns it: running it refreshes exactly
// the slots of those sub-DAGs from the current inputs.
func (p *Program) Span(roots ...*Term) Span {
	p.stamp++
	lo := int32(len(p.code))
	var visit func(t *Term)
	visit = func(t *Term) {
		s := p.Slot(t)
		if p.mark[s] == p.stamp || t.Op == OpConst {
			return
		}
		p.mark[s] = p.stamp
		for _, a := range t.Args {
			visit(a)
		}
		p.emit(t, s)
	}
	for _, r := range roots {
		visit(r)
	}
	return Span{lo, int32(len(p.code))}
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
			v = mask(in[ins.a], int(ins.w))
		case OpNot:
			v = mask(^vals[ins.a], int(ins.w))
		case OpNeg:
			v = mask(-vals[ins.a], int(ins.w))
		case OpAnd:
			v = mask(^uint32(0), int(ins.w))
			for _, x := range p.args[ins.a:ins.b] {
				v &= vals[x]
			}
		case OpOr:
			for _, x := range p.args[ins.a:ins.b] {
				v |= vals[x]
			}
		case OpIte:
			if vals[ins.a] == 1 {
				v = vals[ins.b]
			} else {
				v = vals[ins.c]
			}
		default:
			v, _ = foldBinary(Op(ins.op), vals[ins.a], vals[ins.b], int(ins.aw))
		}
		vals[ins.dst] = v
	}
}
