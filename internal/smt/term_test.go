package smt

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

func TestHashConsing(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	if b.Add(x, y) != b.Add(x, y) {
		t.Error("identical terms must be pointer-equal")
	}
	if b.Var("x", 32) != x {
		t.Error("same variable name must intern to the same term")
	}
	if b.Const(5, 32) != b.Const(5, 32) {
		t.Error("constants must intern")
	}
}

func TestConstFolding(t *testing.T) {
	b := NewBuilder()
	c := func(v uint32) *Term { return b.Const(v, 32) }
	cases := []struct {
		got  *Term
		want uint32
	}{
		{b.Add(c(3), c(4)), 7},
		{b.Sub(c(3), c(4)), 0xFFFFFFFF},
		{b.Mul(c(6), c(7)), 42},
		{b.UDiv(c(42), c(5)), 8},
		{b.UDiv(c(42), c(0)), 0xFFFFFFFF},
		{b.URem(c(42), c(5)), 2},
		{b.URem(c(42), c(0)), 42},
		{b.Shl(c(1), c(4)), 16},
		{b.Shl(c(1), c(40)), 0},
		{b.Lshr(c(16), c(4)), 1},
		{b.Neg(c(1)), 0xFFFFFFFF},
		{b.Xor(c(0xF0), c(0xFF)), 0x0F},
	}
	for i, cse := range cases {
		if !cse.got.IsConst() || cse.got.Const != cse.want {
			t.Errorf("case %d: got %v, want %d", i, cse.got, cse.want)
		}
	}
}

func TestBooleanCanonicalization(t *testing.T) {
	b := NewBuilder()
	p := b.Var("p", 1)
	q := b.Var("q", 1)
	if b.And(p, b.True()) != p {
		t.Error("and with true must elide")
	}
	if !b.And(p, b.False()).IsFalse() {
		t.Error("and with false must absorb")
	}
	if b.Or(p, b.False()) != p {
		t.Error("or with false must elide")
	}
	if b.Not(b.Not(p)) != p {
		t.Error("double negation must cancel")
	}
	if b.And(p, q, p) != b.And(p, q) {
		t.Error("and must deduplicate")
	}
	if b.And(b.And(p, q), p) != b.And(p, q) {
		t.Error("and must flatten")
	}
	if !b.Eq(p, p).IsTrue() {
		t.Error("x = x must fold to true")
	}
	if b.Eq(p, b.True()) != p {
		t.Error("p = true must fold to p")
	}
	if b.Eq(b.False(), p) != b.Not(p) {
		t.Error("false = p must fold to !p")
	}
	if b.Ite(b.True(), p, q) != p || b.Ite(b.False(), p, q) != q {
		t.Error("ite with constant condition must fold")
	}
	if b.Ite(b.Not(p), q, p) != b.Ite(p, p, q) {
		t.Error("ite over a negated condition must swap arms")
	}
}

func TestComparisonFolding(t *testing.T) {
	b := NewBuilder()
	c := func(v uint32) *Term { return b.Const(v, 8) }
	if !b.Ult(c(3), c(4)).IsTrue() || !b.Ult(c(4), c(3)).IsFalse() {
		t.Error("ult folding wrong")
	}
	// Signed: 0xFF is -1 as int8.
	if !b.Slt(c(0xFF), c(0)).IsTrue() {
		t.Error("slt must treat 0xFF as negative at width 8")
	}
	if !b.Sle(c(0x80), c(0x7F)).IsTrue() {
		t.Error("INT8_MIN <= INT8_MAX must hold")
	}
	x := b.Var("x", 8)
	if !b.Ult(x, x).IsFalse() || !b.Ule(x, x).IsTrue() {
		t.Error("reflexive comparisons must fold")
	}
}

func TestSizeAndVars(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	sum := b.Add(x, y)
	phi := b.Eq(b.Mul(sum, sum), b.Const(4, 32))
	if got := b.Size(phi); got != 6 { // phi, mul, sum, x, y, const
		t.Errorf("Size: got %d, want 6", got)
	}
	vars := Vars(phi)
	if len(vars) != 2 {
		t.Errorf("Vars: got %d, want 2", len(vars))
	}
	// TreeSize counts the shared sum (3 nodes) twice: eq + mul + 2*3 + const.
	if got := TreeSize(phi, 1000); got != 9 {
		t.Errorf("TreeSize: got %d, want 9", got)
	}
	if got := TreeSize(phi, 3); got != 3 {
		t.Errorf("TreeSize cap: got %d, want 3", got)
	}
}

func TestEvalMatchesGoSemantics(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	f := func(xv, yv uint32) bool {
		a := Assignment{x: xv, y: yv}
		if Eval(b.Add(x, y), a) != xv+yv {
			return false
		}
		if Eval(b.Mul(x, y), a) != xv*yv {
			return false
		}
		if Eval(b.Slt(x, y), a) != boolVal(int32(xv) < int32(yv)) {
			return false
		}
		if Eval(b.Sle(x, y), a) != boolVal(int32(xv) <= int32(yv)) {
			return false
		}
		if Eval(b.Ult(x, y), a) != boolVal(xv < yv) {
			return false
		}
		if yv != 0 && Eval(b.UDiv(x, y), a) != xv/yv {
			return false
		}
		sh := yv % 64
		want := uint32(0)
		if sh < 32 {
			want = xv << sh
		}
		if Eval(b.Shl(x, b.Const(sh, 32)), a) != want {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSubstitute(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	phi := b.Eq(b.Add(x, y), b.Const(10, 32))
	got := Substitute(b, phi, map[*Term]*Term{x: b.Const(4, 32)})
	want := b.Eq(y, b.Const(6, 32))
	// Substitution folds 4 + y = 10; depending on canonicalization this is
	// Eq(Add(4, y), 10). Either form must be semantically y = 6.
	if Eval(got, Assignment{y: 6}) != 1 || Eval(got, Assignment{y: 7}) != 0 {
		t.Errorf("substitute: got %v, want equivalent of %v", got, want)
	}
}

func TestRenameVars(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 32)
	phi := b.Eq(x, b.Const(1, 32))
	got := RenameVars(b, phi, func(n string) string { return n + "@1" })
	vars := Vars(got)
	if len(vars) != 1 || vars[0].Name != "x@1" {
		t.Errorf("rename: got vars %v", vars)
	}
}

func TestModInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		a := rng.Uint32() | 1 // odd
		inv := modInverse(a, 32)
		if a*inv != 1 {
			t.Fatalf("modInverse(%d) = %d: product %d", a, inv, a*inv)
		}
	}
	if got := modInverse(3, 8); mask(3*got, 8) != 1 {
		t.Errorf("width-8 inverse of 3 wrong: %d", got)
	}
}

func TestBuilderAccounting(t *testing.T) {
	b := NewBuilder()
	if b.NumTerms() != 0 {
		t.Error("fresh builder must be empty")
	}
	x := b.Var("x", 32)
	b.Add(x, b.Const(1, 32))
	if b.NumTerms() != 3 {
		t.Errorf("NumTerms: got %d, want 3", b.NumTerms())
	}
	if b.EstimatedBytes() <= 0 {
		t.Error("EstimatedBytes must grow")
	}
	v1 := b.FreshVar(32)
	v2 := b.FreshVar(32)
	if v1 == v2 {
		t.Error("FreshVar must not collide")
	}
}

func TestMixedWidthPanics(t *testing.T) {
	b := NewBuilder()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mixed-width equality")
		}
	}()
	b.Eq(b.Var("a", 8), b.Var("b", 16))
}

// TestEstimatedBytesChargesStringKey pins the byte estimate to the
// decimal string key ("op:width:hexconst:name,id,...") terms were once
// interned under: every new term still charges that key's length.
func TestEstimatedBytesChargesStringKey(t *testing.T) {
	b := NewBuilder()
	stringKey := func(x *Term) string {
		k := strconv.Itoa(int(x.Op)) + ":" + strconv.Itoa(x.Width) + ":" +
			strconv.FormatUint(uint64(x.Const), 16) + ":" + x.Name
		for _, a := range x.Args {
			k += "," + strconv.Itoa(a.ID)
		}
		return k
	}
	rng := rand.New(rand.NewSource(5))
	pool := []*Term{b.Var("x", 32)}
	for i := 0; i < 2000; i++ {
		before, n := b.EstimatedBytes(), b.NumTerms()
		var x *Term
		switch rng.Intn(5) {
		case 0:
			x = b.Var("v"+strconv.Itoa(rng.Intn(500)), 32)
		case 1:
			x = b.Const(rng.Uint32()>>uint(rng.Intn(32)), 32)
		case 2:
			x = b.Add(pool[rng.Intn(len(pool))], b.Var("w"+strconv.Itoa(i), 32))
		case 3:
			bs := make([]*Term, 2+rng.Intn(6))
			for j := range bs {
				bs[j] = b.Ult(b.Var("p"+strconv.Itoa(rng.Intn(40)), 32), b.Const(uint32(j), 32))
			}
			x = b.And(bs...)
		default:
			x = b.Ite(b.Var("c"+strconv.Itoa(rng.Intn(9)), 1), pool[rng.Intn(len(pool))], b.Const(7, 32))
		}
		if x.Width == 32 {
			pool = append(pool, x)
		}
		if b.NumTerms() != n+1 {
			continue // hit an interned term, or built sub-terms on the way
		}
		want := int64(64 + 8*len(x.Args) + len(x.Name) + len(stringKey(x)))
		if got := b.EstimatedBytes() - before; got != want {
			t.Fatalf("%v charged %d bytes, want %d", x, got, want)
		}
	}
}

// TestInternSeparatesArguments checks the hash-consing key beyond its
// three inline argument slots: conjunctions that differ only in a
// packed argument, or in their argument count, stay distinct.
func TestInternSeparatesArguments(t *testing.T) {
	b := NewBuilder()
	vs := make([]*Term, 6)
	for i := range vs {
		vs[i] = b.Var("b"+strconv.Itoa(i), 1)
	}
	a4 := b.And(vs[0], vs[1], vs[2], vs[3])
	if a4 == b.And(vs[0], vs[1], vs[2], vs[4]) || a4 == b.And(vs[0], vs[1], vs[2], vs[3], vs[4]) {
		t.Fatal("distinct conjunctions interned to one term")
	}
	if a4 != b.And(vs[0], vs[1], vs[2], vs[3]) {
		t.Fatal("identical conjunctions interned to different terms")
	}
}

// unprunedSubstitute is Substitute without the variable-summary pruning:
// it walks every subterm.
func unprunedSubstitute(b *Builder, t *Term, sub map[*Term]*Term) *Term {
	memo := map[*Term]*Term{}
	var walk func(*Term) *Term
	walk = func(t *Term) *Term {
		if r, ok := memo[t]; ok {
			return r
		}
		r := t
		if s, ok := sub[t]; ok {
			r = s
		} else if len(t.Args) > 0 {
			args := make([]*Term, len(t.Args))
			changed := false
			for i, a := range t.Args {
				args[i] = walk(a)
				changed = changed || args[i] != a
			}
			if changed {
				r = Rebuild(b, t.Op, t.Width, args)
			}
		}
		memo[t] = r
		return r
	}
	return walk(t)
}

// TestSubstituteMatchesUnprunedWalk substitutes into random formulas over
// more variables than the summary has bits, so summaries collide, and
// requires the pruned walk to return the unpruned walk's term — also for
// a variable-free key, which no summary can rule out.
func TestSubstituteMatchesUnprunedWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewBuilder()
	vars := make([]*Term, 150)
	for i := range vars {
		vars[i] = b.Var("s"+strconv.Itoa(i), 8)
	}
	var gen func(depth int) *Term
	gen = func(depth int) *Term {
		if depth == 0 || rng.Intn(4) == 0 {
			if rng.Intn(5) == 0 {
				return b.Const(uint32(rng.Intn(4)), 8)
			}
			return vars[rng.Intn(len(vars))]
		}
		switch rng.Intn(4) {
		case 0:
			return b.Add(gen(depth-1), gen(depth-1))
		case 1:
			return b.Mul(gen(depth-1), gen(depth-1))
		case 2:
			return b.Ite(b.Ult(gen(depth-1), gen(depth-1)), gen(depth-1), gen(depth-1))
		default:
			return b.Xor(gen(depth-1), gen(depth-1))
		}
	}
	for i := 0; i < 300; i++ {
		phi := b.And(b.Eq(gen(6), gen(6)), b.Ule(gen(5), gen(5)))
		sub := map[*Term]*Term{}
		for j := rng.Intn(4); j >= 0; j-- {
			sub[vars[rng.Intn(len(vars))]] = gen(2)
		}
		if i%10 == 0 {
			sub[b.Const(uint32(rng.Intn(4)), 8)] = gen(1)
		}
		want := unprunedSubstitute(b, phi, sub)
		if got := Substitute(b, phi, sub); got != want {
			t.Fatalf("Substitute = %v, want %v", got, want)
		}
	}
}

// refNary is the n-ary constructor with a map-based visited set: the
// reference the scratch-table operand dedup must match term for term.
func refNary(b *Builder, op Op, xs []*Term) *Term {
	width := 1
	if len(xs) > 0 {
		width = xs[0].Width
	}
	allOnes := mask(^uint32(0), width)
	unit, zero := allOnes, uint32(0)
	if op == OpOr {
		unit, zero = 0, allOnes
	}
	var flat []*Term
	seen := map[*Term]bool{}
	var push func(t *Term) bool
	push = func(t *Term) bool {
		if t.Op == op {
			for _, a := range t.Args {
				if !push(a) {
					return false
				}
			}
			return true
		}
		if t.IsConst() {
			if t.Const == unit {
				return true
			}
			if t.Const == zero {
				return false
			}
		}
		if !seen[t] {
			seen[t] = true
			flat = append(flat, t)
		}
		return true
	}
	for _, x := range xs {
		if !push(x) {
			return b.Const(zero, width)
		}
	}
	switch len(flat) {
	case 0:
		return b.Const(unit, width)
	case 1:
		return flat[0]
	}
	return b.intern(op, width, 0, "", flat)
}

// refRebuild is Rebuild with conjunctions and disjunctions built by
// refNary.
func refRebuild(b *Builder, op Op, width int, args []*Term) *Term {
	if op == OpAnd || op == OpOr {
		return refNary(b, op, args)
	}
	return Rebuild(b, op, width, args)
}

// refSubstitute is Substitute with a map memo, rebuilding through
// refRebuild.
func refSubstitute(b *Builder, t *Term, sub map[*Term]*Term) *Term {
	var keys uint64
	prune := true
	for k := range sub {
		keys |= k.vars
		prune = prune && k.vars != 0
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
		r := t
		if s, ok := sub[t]; ok {
			r = s
		} else if len(t.Args) > 0 {
			args := make([]*Term, len(t.Args))
			changed := false
			for i, a := range t.Args {
				args[i] = walk(a)
				changed = changed || args[i] != a
			}
			if changed {
				r = refRebuild(b, t.Op, t.Width, args)
			}
		}
		memo[t] = r
		return r
	}
	return walk(t)
}

// refContainsVar and refSize are containsVar and Size with map-based
// visited sets.
func refContainsVar(t, v *Term) bool {
	seen := map[*Term]bool{}
	var walk func(*Term) bool
	walk = func(t *Term) bool {
		if t.vars&v.vars == 0 || seen[t] {
			return false
		}
		seen[t] = true
		if t == v {
			return true
		}
		for _, a := range t.Args {
			if walk(a) {
				return true
			}
		}
		return false
	}
	return walk(t)
}

func refSize(t *Term) int {
	seen := map[*Term]bool{}
	var walk func(*Term) int
	walk = func(t *Term) int {
		if seen[t] {
			return 0
		}
		seen[t] = true
		n := 1
		for _, a := range t.Args {
			n += walk(a)
		}
		return n
	}
	return walk(t)
}

// refSolveEqs is SolveEqs over the map-based references.
func refSolveEqs(b *Builder, phi *Term) *Term {
	occurs := map[*Term]int{}
	seen := map[*Term]bool{}
	var countOcc func(t *Term)
	countOcc = func(t *Term) {
		if t.Op == OpVar {
			occurs[t]++
			return
		}
		if seen[t] {
			return
		}
		seen[t] = true
		for _, a := range t.Args {
			countOcc(a)
		}
	}
	countOcc(phi)
	sub := map[*Term]*Term{}
	var order []*Term
	for _, cj := range Conjuncts(phi) {
		if len(sub) >= 64 {
			break
		}
		if cj.Op != OpEq {
			continue
		}
		for _, ord := range [2][2]*Term{{cj.Args[0], cj.Args[1]}, {cj.Args[1], cj.Args[0]}} {
			v, t := ord[0], ord[1]
			if v.Op != OpVar || t == v {
				continue
			}
			if _, done := sub[v]; done {
				continue
			}
			t = refSubstitute(b, t, sub)
			if refContainsVar(t, v) {
				continue
			}
			if refSize(t) > 8 && occurs[v] > 2 {
				continue
			}
			sub[v] = t
			order = append(order, v)
			break
		}
	}
	for _, v := range order {
		phi = refSubstitute(b, phi, map[*Term]*Term{v: sub[v]})
	}
	return phi
}

// refGaussian is GaussianEliminate over the map-based references.
func refGaussian(b *Builder, phi *Term) *Term {
	sub := map[*Term]*Term{}
	var order []*Term
	for _, cj := range Conjuncts(phi) {
		if len(sub) >= 32 {
			break
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
		for v, c := range lb.coeff {
			la.coeff[v] -= c
			if la.coeff[v] == 0 {
				delete(la.coeff, v)
			}
		}
		la.k -= lb.k
		w := cj.Args[0].Width
		var pivot *Term
		var pc uint32
		vars := make([]*Term, 0, len(la.coeff))
		for v := range la.coeff {
			vars = append(vars, v)
		}
		sort.Slice(vars, func(i, j int) bool { return vars[i].ID < vars[j].ID })
		for _, v := range vars {
			if _, done := sub[v]; la.coeff[v]&1 == 1 && !done {
				pivot, pc = v, la.coeff[v]
				break
			}
		}
		if pivot == nil {
			continue
		}
		inv := modInverse(pc, w)
		rhs := b.Const(mask(-inv*la.k, w), w)
		for _, v := range vars {
			if c := mask(-inv*la.coeff[v], w); v != pivot && c != 0 {
				rhs = b.Add(rhs, b.Mul(b.Const(c, w), v))
			}
		}
		rhs = refSubstitute(b, rhs, sub)
		if refContainsVar(rhs, pivot) {
			continue
		}
		sub[pivot] = rhs
		order = append(order, pivot)
	}
	for _, v := range order {
		phi = refSubstitute(b, phi, map[*Term]*Term{v: sub[v]})
	}
	return phi
}

// lockstep builds the same random DAGs in two builders: a through the
// package's constructors and walks, ref through the map-based references.
type lockstep struct {
	t      *testing.T
	a, ref *Builder
	rngA   *rand.Rand
	rngR   *rand.Rand
}

// pair is one term built in both builders.
type pair struct{ a, ref *Term }

// same fails the test unless the two terms and builders agree: equal IDs
// and renderings, equal term counts and byte estimates.
func (ls *lockstep) same(what string, p pair) {
	ls.t.Helper()
	if p.a.ID != p.ref.ID || p.a.String() != p.ref.String() {
		ls.t.Fatalf("%s: got %v (ID %d), reference %v (ID %d)", what, p.a, p.a.ID, p.ref, p.ref.ID)
	}
	if ls.a.NumTerms() != ls.ref.NumTerms() || ls.a.EstimatedBytes() != ls.ref.EstimatedBytes() {
		ls.t.Fatalf("%s: builder at %d terms/%d bytes, reference at %d/%d", what,
			ls.a.NumTerms(), ls.a.EstimatedBytes(), ls.ref.NumTerms(), ls.ref.EstimatedBytes())
	}
}

// build runs gen on both sides with identically seeded randomness.
func (ls *lockstep) build(gen func(b *Builder, rng *rand.Rand, ref bool) *Term) pair {
	return pair{gen(ls.a, ls.rngA, false), gen(ls.ref, ls.rngR, true)}
}

// randDAG builds a random DAG over 40 8-bit variables whose conjunctions
// and disjunctions (boolean and bitwise, nested, with repeated and unit
// operands) go through the scratch-table constructor or refNary. Its root
// is a formula, or an 8-bit term with bvRoot.
func randDAG(b *Builder, rng *rand.Rand, ref bool, depth int, bvRoot bool) *Term {
	nary := func(op Op, xs ...*Term) *Term {
		if ref {
			return refNary(b, op, xs)
		}
		return b.nary(op, xs)
	}
	var bv func(d int) *Term
	var boolean func(d int) *Term
	bv = func(d int) *Term {
		if d == 0 || rng.Intn(4) == 0 {
			if rng.Intn(5) == 0 {
				return b.Const(uint32(rng.Intn(4))*0x55, 8)
			}
			return b.Var("d"+strconv.Itoa(rng.Intn(40)), 8)
		}
		switch rng.Intn(5) {
		case 0:
			return b.Add(bv(d-1), bv(d-1))
		case 1:
			return b.Mul(bv(d-1), bv(d-1))
		case 2:
			return b.Ite(boolean(d-1), bv(d-1), bv(d-1))
		default:
			xs := make([]*Term, 1+rng.Intn(5))
			for i := range xs {
				xs[i] = bv(d - 1)
			}
			if rng.Intn(3) == 0 {
				xs = append(xs, xs[0])
			}
			return nary([...]Op{OpAnd, OpOr}[rng.Intn(2)], xs...)
		}
	}
	boolean = func(d int) *Term {
		if d == 0 || rng.Intn(5) == 0 {
			return b.Ult(bv(0), bv(0))
		}
		switch rng.Intn(3) {
		case 0:
			return b.Eq(bv(d-1), bv(d-1))
		case 1:
			return b.Not(boolean(d - 1))
		default:
			xs := make([]*Term, 1+rng.Intn(6))
			for i := range xs {
				xs[i] = boolean(d - 1)
			}
			if rng.Intn(3) == 0 {
				xs = append(xs, b.True(), xs[len(xs)-1])
			}
			return nary([...]Op{OpAnd, OpOr}[rng.Intn(2)], xs...)
		}
	}
	if bvRoot {
		return bv(depth)
	}
	return boolean(depth)
}

// TestScratchWalksMatchReferences checks the scratch-table walks against
// their map-based references on random DAGs, built in lockstep in two
// builders: And/Or dedup, Substitute (whose rebuilds call And and Or),
// Size, and SolveEqs and GaussianEliminate with several pivots, whose
// occurrence table stays live across nested Substitute calls. Each must
// return the reference's term and leave both builders with the same term
// count and byte estimate; on one builder, the reference must then find
// every term already built.
func TestScratchWalksMatchReferences(t *testing.T) {
	ls := &lockstep{t: t, a: NewBuilder(), ref: NewBuilder(),
		rngA: rand.New(rand.NewSource(23)), rngR: rand.New(rand.NewSource(23))}
	v := func(b *Builder, i int) *Term { return b.Var("d"+strconv.Itoa(i), 8) }
	for i := 0; i < 200; i++ {
		phi := ls.build(func(b *Builder, rng *rand.Rand, ref bool) *Term { return randDAG(b, rng, ref, 5, false) })
		ls.same("random DAG", phi)
		if n, want := ls.a.Size(phi.a), refSize(phi.ref); n != want {
			t.Fatalf("Size = %d, reference %d", n, want)
		}

		// Substitute, with its result checked against the reference on the
		// same builder too.
		sub := ls.build(func(b *Builder, rng *rand.Rand, ref bool) *Term { return randDAG(b, rng, ref, 2, true) })
		subA, subR := map[*Term]*Term{}, map[*Term]*Term{}
		ls.rngR.Intn(6)
		for j := ls.rngA.Intn(6); j >= 0; j-- {
			k := ls.rngA.Intn(40)
			ls.rngR.Intn(40)
			subA[v(ls.a, k)] = v(ls.a, (k+7)%40)
			subR[v(ls.ref, k)] = v(ls.ref, (k+7)%40)
		}
		subA[v(ls.a, 1)], subR[v(ls.ref, 1)] = sub.a, sub.ref
		got := pair{Substitute(ls.a, phi.a, subA), refSubstitute(ls.ref, phi.ref, subR)}
		ls.same("Substitute", got)
		n := ls.a.NumTerms()
		if r := refSubstitute(ls.a, phi.a, subA); r != got.a || ls.a.NumTerms() != n {
			t.Fatalf("reference Substitute on the same builder: %v, want %v", r, got.a)
		}

		// SolveEqs and GaussianEliminate over several definitions and
		// linear equations conjoined with the DAG.
		eqs := ls.build(func(b *Builder, rng *rand.Rand, ref bool) *Term {
			cjs := []*Term{phi.a}
			if ref {
				cjs[0] = phi.ref
			}
			for j := 2 + rng.Intn(4); j > 0; j-- {
				x, y, z := v(b, rng.Intn(40)), v(b, rng.Intn(40)), v(b, rng.Intn(40))
				c := b.Const(uint32(rng.Intn(256))|1, 8)
				switch rng.Intn(3) {
				case 0: // a definition, perhaps chained through another
					cjs = append(cjs, b.Eq(x, b.Add(b.Mul(y, z), c)))
				case 1: // a linear equation with an odd coefficient
					cjs = append(cjs, b.Eq(b.Add(b.Mul(c, x), y), b.Sub(z, c)))
				default:
					cjs = append(cjs, b.Eq(x, b.Xor(y, c)))
				}
			}
			if ref {
				return refNary(b, OpAnd, cjs)
			}
			return b.And(cjs...)
		})
		ls.same("conjunction", eqs)
		ls.same("SolveEqs", pair{SolveEqs(ls.a, eqs.a), refSolveEqs(ls.ref, eqs.ref)})
		ls.same("GaussianEliminate", pair{GaussianEliminate(ls.a, eqs.a), refGaussian(ls.ref, eqs.ref)})
	}
}
