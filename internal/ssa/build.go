package ssa

import (
	"fmt"
	"sort"

	"fusion/internal/lang"
)

// Build converts a normalized, checked program into SSA form. It returns an
// error if the program still contains loops (i.e., was not normalized).
func Build(prog *lang.Program) (*Program, error) {
	p := &Program{Funcs: map[string]*Function{}, Externs: map[string]*lang.FuncDecl{}}
	for _, f := range prog.Funcs {
		if f.Extern {
			p.Externs[f.Name] = f
		}
	}
	for _, fd := range prog.Funcs {
		if fd.Extern {
			continue
		}
		b := &builder{prog: prog, p: p, fn: &Function{Name: fd.Name, Decl: fd}}
		if err := b.buildFunc(fd); err != nil {
			return nil, err
		}
		p.Funcs[fd.Name] = b.fn
		p.Order = append(p.Order, b.fn)
	}
	for _, f := range p.Order {
		computeUses(f)
	}
	return p, nil
}

func computeUses(f *Function) {
	for _, v := range f.Values {
		for _, a := range v.Args {
			a.Uses = append(a.Uses, v)
		}
	}
}

type builder struct {
	prog  *lang.Program
	p     *Program
	fn    *Function
	env   map[string]*Value
	guard *Value // innermost branch vertex, nil at function entry
}

func (b *builder) newValue(op Op, t lang.Type, pos lang.Pos, args ...*Value) *Value {
	v := &Value{
		ID: len(b.fn.Values), Op: op, Type: t, Args: args,
		Guard: b.guard, Pos: pos, Fn: b.fn,
	}
	b.fn.Values = append(b.fn.Values, v)
	return v
}

func (b *builder) buildFunc(fd *lang.FuncDecl) error {
	b.env = map[string]*Value{}
	for _, prm := range fd.Params {
		v := b.newValue(OpParam, prm.Type, prm.Pos)
		v.Name = prm.Name
		b.fn.Params = append(b.fn.Params, v)
		b.env[prm.Name] = v
	}
	declared, err := b.buildBlock(fd.Body)
	if err != nil {
		return err
	}
	_ = declared
	if fd.Ret != lang.TypeVoid && b.fn.Ret == nil {
		return fmt.Errorf("ssa: function %s: missing return after normalization", fd.Name)
	}
	return nil
}

// buildBlock builds a block's statements and returns the names it declared,
// which go out of scope when the block ends.
func (b *builder) buildBlock(blk *lang.BlockStmt) ([]string, error) {
	var declared []string
	for _, s := range blk.Stmts {
		names, err := b.buildStmt(s)
		if err != nil {
			return nil, err
		}
		declared = append(declared, names...)
	}
	for _, n := range declared {
		delete(b.env, n)
	}
	return nil, nil
}

func (b *builder) buildStmt(s lang.Stmt) ([]string, error) {
	switch s := s.(type) {
	case *lang.BlockStmt:
		_, err := b.buildBlock(s)
		return nil, err
	case *lang.VarDecl:
		v, err := b.buildDef(s.Name, s.Init, s.Pos)
		if err != nil {
			return nil, err
		}
		b.env[s.Name] = v
		return []string{s.Name}, nil
	case *lang.AssignStmt:
		v, err := b.buildDef(s.Name, s.Val, s.Pos)
		if err != nil {
			return nil, err
		}
		b.env[s.Name] = v
		return nil, nil
	case *lang.ExprStmt:
		_, err := b.buildExpr(s.X)
		return nil, err
	case *lang.ReturnStmt:
		if s.Val == nil {
			return nil, nil
		}
		v, err := b.buildExpr(s.Val)
		if err != nil {
			return nil, err
		}
		if b.fn.Ret != nil {
			return nil, fmt.Errorf("ssa: function %s: multiple returns after normalization", b.fn.Name)
		}
		ret := b.newValue(OpReturn, v.Type, s.Pos, v)
		b.fn.Ret = ret
		return nil, nil
	case *lang.IfStmt:
		return nil, b.buildIf(s)
	case *lang.WhileStmt:
		return nil, fmt.Errorf("ssa: %s: loop present; program was not normalized", s.Pos)
	default:
		return nil, fmt.Errorf("ssa: unknown statement %T", s)
	}
}

// buildDef builds the value defining a source variable. A fresh vertex is
// always created for copies of already-named values so that each
// source-level definition has its own statement vertex, matching the
// paper's v1 = v2 edges.
func (b *builder) buildDef(name string, e lang.Expr, pos lang.Pos) (*Value, error) {
	v, err := b.buildExpr(e)
	if err != nil {
		return nil, err
	}
	if v.Name != "" || v.Op == OpConst || v.Op == OpParam || v.Guard != b.guard {
		cp := b.newValue(OpCopy, v.Type, pos, v)
		cp.Name = name
		return cp, nil
	}
	v.Name = name
	// Call vertices keep their call-site position (it identifies the
	// source occurrence for the checkers); other expressions adopt the
	// defining statement's position.
	if v.Op != OpCall && v.Op != OpExtern {
		v.Pos = pos
	}
	return v, nil
}

func (b *builder) buildIf(s *lang.IfStmt) error {
	cond, err := b.buildExpr(s.Cond)
	if err != nil {
		return err
	}
	outer := b.guard
	before := copyEnv(b.env)

	// Then branch, guarded by branch(cond).
	brT := b.newValue(OpBranch, lang.TypeBool, s.Pos, cond)
	b.guard = brT
	if _, err := b.buildBlock(s.Then); err != nil {
		return err
	}
	envT := copyEnv(b.env)
	b.env = copyEnv(before)
	b.guard = outer

	envE := before
	if s.Else != nil {
		// Else branch, guarded by branch(!cond).
		notC := b.newValue(OpNot, lang.TypeBool, s.Pos, cond)
		brF := b.newValue(OpBranch, lang.TypeBool, s.Pos, notC)
		b.guard = brF
		if _, err := b.buildBlock(s.Else); err != nil {
			return err
		}
		envE = copyEnv(b.env)
		b.env = copyEnv(before)
		b.guard = outer
	}

	// Merge: names visible before the if that were redefined in either
	// branch get an explicit ite-assignment. Names are merged in sorted
	// order so vertex IDs are deterministic.
	names := make([]string, 0, len(before))
	for name := range before {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		orig := before[name]
		tv, ev := envT[name], envE[name]
		if tv == nil {
			tv = orig
		}
		if ev == nil {
			ev = orig
		}
		if tv == ev {
			b.env[name] = tv
			continue
		}
		ite := b.newValue(OpIte, tv.Type, s.Pos, cond, tv, ev)
		ite.Name = name
		b.env[name] = ite
	}
	return nil
}

// widthMask returns the all-ones mask of a type's width.
func widthMask(t lang.Type) uint32 {
	w := t.Bits()
	if w >= 32 {
		return ^uint32(0)
	}
	return 1<<uint(w) - 1
}

func copyEnv(env map[string]*Value) map[string]*Value {
	out := make(map[string]*Value, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}

func (b *builder) buildExpr(e lang.Expr) (*Value, error) {
	switch e := e.(type) {
	case *lang.IntLitExpr:
		t := e.LitType()
		v := b.newValue(OpConst, t, e.Pos)
		// Constants are stored masked to their type's width, so a narrow
		// literal's bit pattern is exactly what the backend emits.
		v.Const = e.Value & widthMask(t)
		return v, nil
	case *lang.BoolLitExpr:
		v := b.newValue(OpConst, lang.TypeBool, e.Pos)
		if e.Value {
			v.Const = 1
		}
		return v, nil
	case *lang.NullLitExpr:
		v := b.newValue(OpConst, lang.TypePtr, e.Pos)
		return v, nil
	case *lang.IdentExpr:
		v, ok := b.env[e.Name]
		if !ok {
			return nil, fmt.Errorf("ssa: %s: undefined variable %s", e.Pos, e.Name)
		}
		return v, nil
	case *lang.UnaryExpr:
		x, err := b.buildExpr(e.X)
		if err != nil {
			return nil, err
		}
		if e.Op == lang.OpNot {
			return b.newValue(OpNot, lang.TypeBool, e.Pos, x), nil
		}
		return b.newValue(OpNeg, x.Type, e.Pos, x), nil
	case *lang.BinExpr:
		l, err := b.buildExpr(e.L)
		if err != nil {
			return nil, err
		}
		r, err := b.buildExpr(e.R)
		if err != nil {
			return nil, err
		}
		// Arithmetic results carry their operands' type (sema guarantees
		// both sides agree), so narrow operations stay at narrow width.
		t := l.Type
		if e.Op.IsComparison() || e.Op.IsLogical() {
			t = lang.TypeBool
		}
		v := b.newValue(OpBin, t, e.Pos, l, r)
		v.BinOp = e.Op
		return v, nil
	case *lang.CallExpr:
		var args []*Value
		for _, a := range e.Args {
			av, err := b.buildExpr(a)
			if err != nil {
				return nil, err
			}
			args = append(args, av)
		}
		callee := b.prog.Func(e.Name)
		if callee == nil {
			return nil, fmt.Errorf("ssa: %s: call to unknown function %s", e.Pos, e.Name)
		}
		op := OpCall
		if callee.Extern {
			op = OpExtern
		}
		v := b.newValue(op, callee.Ret, e.Pos, args...)
		v.Callee = e.Name
		v.Site = b.p.NumSites
		b.p.NumSites++
		return v, nil
	default:
		return nil, fmt.Errorf("ssa: unknown expression %T", e)
	}
}
