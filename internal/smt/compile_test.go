package smt_test

import (
	"fmt"
	"math/rand"
	"testing"

	"fusion/internal/smt"
)

// termGen builds random terms over every operator at widths 1/8/16/32.
type termGen struct {
	b    *smt.Builder
	rng  *rand.Rand
	vars map[int][]*smt.Term
}

var genWidths = []int{1, 8, 16, 32}

func (g *termGen) term(w, depth int) *smt.Term {
	if depth == 0 || g.rng.Intn(6) == 0 {
		if g.rng.Intn(4) == 0 {
			return g.b.Const(g.value(), w)
		}
		vs := g.vars[w]
		return vs[g.rng.Intn(len(vs))]
	}
	sub := func() *smt.Term { return g.term(w, depth-1) }
	ops := 13
	if w == 1 {
		ops += 5 // comparisons and equality produce width 1
	}
	switch g.rng.Intn(ops) {
	case 0:
		return g.b.Not(sub())
	case 1:
		return g.b.Neg(sub())
	case 2:
		return g.b.And(sub(), sub(), sub())
	case 3:
		return g.b.Or(sub(), sub())
	case 4:
		return g.b.Xor(sub(), sub())
	case 5:
		return g.b.Add(sub(), sub())
	case 6:
		return g.b.Sub(sub(), sub())
	case 7:
		return g.b.Mul(sub(), sub())
	case 8:
		return g.b.UDiv(sub(), sub())
	case 9:
		return g.b.URem(sub(), sub())
	case 10:
		return g.b.Shl(sub(), sub())
	case 11:
		return g.b.Lshr(sub(), sub())
	case 12:
		return g.b.Ite(g.term(1, depth-1), sub(), sub())
	}
	aw := genWidths[g.rng.Intn(len(genWidths))]
	x, y := g.term(aw, depth-1), g.term(aw, depth-1)
	switch g.rng.Intn(5) {
	case 0:
		return g.b.Eq(x, y)
	case 1:
		return g.b.Ult(x, y)
	case 2:
		return g.b.Ule(x, y)
	case 3:
		return g.b.Slt(x, y)
	default:
		return g.b.Sle(x, y)
	}
}

// value draws a raw 32-bit value: zero divisors, shift amounts at and
// past every width, and values wider than any narrow variable's width,
// stored unmasked as the probe stores them.
func (g *termGen) value() uint32 {
	edge := []uint32{0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 0x80, 0xFF, 0x8000, 0xFFFF, 0x80000000, 0xFFFFFFFF}
	if g.rng.Intn(2) == 0 {
		return edge[g.rng.Intn(len(edge))]
	}
	return g.rng.Uint32()
}

// subterms returns the distinct nodes of the DAG under roots.
func subterms(roots ...*smt.Term) []*smt.Term {
	seen := map[*smt.Term]bool{}
	var out []*smt.Term
	var walk func(*smt.Term)
	walk = func(t *smt.Term) {
		if seen[t] {
			return
		}
		seen[t] = true
		out = append(out, t)
		for _, a := range t.Args {
			walk(a)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return out
}

// compileAll compiles the DAG under roots with every node of it as a
// further root, and returns the Program and each node's slot.
func compileAll(b *smt.Builder, roots []*smt.Term) (*smt.Program, map[*smt.Term]int32) {
	nodes := subterms(roots...)
	p := b.Compile(append(append([]*smt.Term{}, roots...), nodes...)...)
	slot := map[*smt.Term]int32{}
	for j, n := range nodes {
		slot[n] = p.Root(len(roots) + j)
	}
	return p, slot
}

// TestProgramShapeMatchesTerms: the slots describe the compiled DAG
// exactly. Every node has its own slot, numbered after its arguments'
// (post-order), with the term's operator, width, operand slots in
// argument order, constant value or variable index, and the roots passed
// as the only roots compile to the same program as with every node added.
func TestProgramShapeMatchesTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for iter := 0; iter < 200; iter++ {
		g := &termGen{b: smt.NewBuilder(), rng: rng, vars: map[int][]*smt.Term{}}
		for _, w := range genWidths {
			for i := 0; i < 3; i++ {
				g.vars[w] = append(g.vars[w], g.b.Var(fmt.Sprintf("v%d_%d", w, i), w))
			}
		}
		var roots []*smt.Term
		for i := 0; i < 3; i++ {
			roots = append(roots, g.term(genWidths[rng.Intn(len(genWidths))], 5))
		}
		p, slot := compileAll(g.b, roots)
		if p.Len() != len(slot) {
			t.Fatalf("iter %d: %d slots for %d nodes", iter, p.Len(), len(slot))
		}
		bare := g.b.Compile(roots...)
		if bare.Len() != p.Len() || len(bare.Vars()) != len(p.Vars()) {
			t.Fatalf("iter %d: extra roots changed the program", iter)
		}
		for i := range roots {
			if bare.Root(i) != p.Root(i) {
				t.Fatalf("iter %d: root %d at slot %d alone, %d with every node", iter, i, bare.Root(i), p.Root(i))
			}
		}
		for n, s := range slot {
			if p.Op(s) != n.Op || p.Width(s) != n.Width {
				t.Fatalf("iter %d: slot %d is %s/%d, term %v", iter, s, p.Op(s), p.Width(s), n)
			}
			switch n.Op {
			case smt.OpConst:
				if p.Const(s) != n.Const {
					t.Fatalf("iter %d: constant slot %d holds %#x, term %v", iter, s, p.Const(s), n)
				}
			case smt.OpVar:
				if v := p.Vars()[p.Input(s)]; v != n {
					t.Fatalf("iter %d: variable slot %d reads %v, term %v", iter, s, v, n)
				}
			}
			args := p.Args(s)
			if len(args) != len(n.Args) {
				t.Fatalf("iter %d: slot %d has %d operands, term %v", iter, s, len(args), n)
			}
			for i, a := range n.Args {
				if args[i] != slot[a] || args[i] >= s {
					t.Fatalf("iter %d: operand %d of slot %d is slot %d, want %d below it", iter, i, s, args[i], slot[a])
				}
			}
		}
	}
}

// TestProgramMatchesEval is the differential test of the compiled
// evaluator against the reference interpreter: on random terms over every
// operator, under random raw assignments (some variables left unassigned),
// every node's slot must hold the value Eval computes for it — after the
// full pass, and after a span re-evaluates one root's sub-DAG under new
// inputs.
func TestProgramMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	seen := map[smt.Op]bool{}
	for iter := 0; iter < 400; iter++ {
		g := &termGen{b: smt.NewBuilder(), rng: rng, vars: map[int][]*smt.Term{}}
		for _, w := range genWidths {
			for i := 0; i < 3; i++ {
				g.vars[w] = append(g.vars[w], g.b.Var(fmt.Sprintf("v%d_%d", w, i), w))
			}
		}
		var roots []*smt.Term
		for i := 0; i < 3; i++ {
			roots = append(roots, g.term(genWidths[rng.Intn(len(genWidths))], 5))
		}
		p, slot := compileAll(g.b, roots)
		spans := make([]smt.Span, len(roots))
		for i := range roots {
			spans[i] = p.Span(p.Root(i))
		}
		in, vals := make([]uint32, len(p.Vars())), p.Slots()
		assign := func() smt.Assignment {
			asg := smt.Assignment{}
			for i, v := range p.Vars() {
				in[i] = 0
				if rng.Intn(8) != 0 {
					asg[v] = g.value()
					in[i] = asg[v]
				}
			}
			return asg
		}
		check := func(what string, asg smt.Assignment, nodes []*smt.Term) {
			t.Helper()
			for _, n := range nodes {
				seen[n.Op] = true
				if got, want := vals[slot[n]], smt.Eval(n, asg); got != want {
					t.Fatalf("iter %d, %s: %v = %#x compiled, %#x by Eval", iter, what, n, got, want)
				}
			}
		}
		for round := 0; round < 4; round++ {
			asg := assign()
			p.Run(in, vals, p.All())
			check("full pass", asg, subterms(roots...))
			k := rng.Intn(len(roots))
			asg = assign()
			p.Run(in, vals, spans[k])
			check(fmt.Sprintf("span of root %d", k), asg, subterms(roots[k]))
		}
	}
	for op := smt.OpVar; op <= smt.OpIte; op++ {
		if !seen[op] {
			t.Errorf("no %s node was generated", op)
		}
	}
}

// TestBuiltProgramMatchesCompiled: a Program appended slot by slot with
// AddVar, AddConst and AddOp, replaying a compiled Program's slots, gets
// the same widths, inputs and values under every assignment, so AddOp
// derives each width as the Builder's constructors do.
func TestBuiltProgramMatchesCompiled(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for iter := 0; iter < 200; iter++ {
		g := &termGen{b: smt.NewBuilder(), rng: rng, vars: map[int][]*smt.Term{}}
		for _, w := range genWidths {
			for i := 0; i < 3; i++ {
				g.vars[w] = append(g.vars[w], g.b.Var(fmt.Sprintf("v%d_%d", w, i), w))
			}
		}
		root := g.term(genWidths[rng.Intn(len(genWidths))], 5)
		p := g.b.Compile(root)
		q := smt.NewProgram()
		for s := int32(0); s < int32(p.Len()); s++ {
			var got int32
			switch p.Op(s) {
			case smt.OpConst:
				got = q.AddConst(p.Const(s), p.Width(s))
			case smt.OpVar:
				got = q.AddVar(p.Width(s))
			default:
				got = q.AddOp(p.Op(s), p.Args(s)...)
			}
			if got != s || q.Width(s) != p.Width(s) {
				t.Fatalf("iter %d: slot %d rebuilt as slot %d of width %d, want width %d", iter, s, got, q.Width(s), p.Width(s))
			}
		}
		q.SetRoots(p.Root(0))
		if q.NumInputs() != p.NumInputs() || q.Vars() != nil || q.Bytes() <= 0 {
			t.Fatalf("iter %d: %d inputs (vars %v, %d bytes), want %d inputs and no vars", iter, q.NumInputs(), q.Vars(), q.Bytes(), p.NumInputs())
		}
		in := make([]uint32, p.NumInputs())
		pv, qv := p.Slots(), q.Slots()
		for round := 0; round < 4; round++ {
			for i := range in {
				in[i] = g.value()
			}
			p.Run(in, pv, p.All())
			q.Run(in, qv, q.All())
			for s := range pv {
				if pv[s] != qv[s] {
					t.Fatalf("iter %d: slot %d is %#x compiled, %#x built", iter, s, pv[s], qv[s])
				}
			}
		}
	}
}
