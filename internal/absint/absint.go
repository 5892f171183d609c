package absint

import (
	"fmt"
	"sort"
	"strings"

	"fusion/internal/lang"
	"fusion/internal/pdg"
	"fusion/internal/ssa"
)

// Analysis holds the whole-program interval facts: one invariant interval
// per PDG vertex (sound for every calling context, i.e. computed with top
// parameters), plus per-function return summaries and a bounded cache of
// call-site instantiations with sharper argument intervals.
type Analysis struct {
	G *pdg.Graph

	// vals is the context-insensitive invariant per vertex: the interval
	// of every value the vertex can compute in any execution, assuming its
	// guard chain holds (gated SSA only consumes a value under its guard).
	vals map[*ssa.Value]Interval
	// summaries maps each function to its return interval with top
	// parameters.
	summaries map[*ssa.Function]Interval

	instMemo map[instCacheKey]Interval
	visiting map[*ssa.Function]bool
	budget   int

	// zone enables the relational (difference-bound) domain; rootZone and
	// guardZone record, per function root and per guard vertex, the zone
	// valid whenever that guard chain holds (computed in the record pass).
	zone      bool
	rootZone  map[*ssa.Function]*dbm[*ssa.Value]
	guardZone map[*ssa.Value]*dbm[*ssa.Value]

	// stride enables the congruence domain; strides holds the per-vertex
	// invariant stride (reduced against the interval, valid whenever the
	// vertex's guard chain holds) and stSummaries the per-function return
	// stride with top parameters, both recorded in the record pass only.
	stride      bool
	strides     map[*ssa.Value]Stride
	stSummaries map[*ssa.Function]Stride

	Stats Stats
}

// Config tunes the analysis.
type Config struct {
	// DisableZone turns off the relational (difference-bound) domain,
	// leaving the interval tier alone — the `-absint=intervals` ablation.
	DisableZone bool
	// DisableStride turns off the congruence (stride) domain — the
	// `-absint=nostride` ablation; `-absint=intervals` disables it too.
	DisableStride bool
}

// Stats accounts for the analysis work and precision.
type Stats struct {
	Functions      int
	Vertices       int
	NonTrivial     int // vertices with an interval strictly below top
	Instantiations int
	CacheHits      int
	// ZoneEdges is the total difference-bound fact count recorded across
	// all guard environments.
	ZoneEdges int
	// StrideFacts counts vertices whose invariant stride is strictly
	// below top (a proper congruence or a singleton).
	StrideFacts int
}

type instCacheKey struct {
	f    *ssa.Function
	args string
}

const (
	maxInstDepth = 32
	// evalBudget bounds the total number of per-call-site re-evaluations;
	// beyond it the top-parameter summary is used instead.
	evalBudget = 20000
)

func width(v *ssa.Value) int { return pdg.TypeBits(v.Type) }

// Analyze runs the sparse abstract interpretation over the whole program:
// functions are processed bottom-up over the call graph (callees before
// callers) so call vertices can use callee summaries; call-graph cycles —
// which normalization removes, so they indicate an unnormalized input —
// degrade to the top summary (the degenerate widening).
func Analyze(g *pdg.Graph) *Analysis { return AnalyzeWith(g, Config{}) }

// AnalyzeWith is Analyze with explicit domain configuration.
func AnalyzeWith(g *pdg.Graph, cfg Config) *Analysis {
	a := &Analysis{
		G:           g,
		vals:        map[*ssa.Value]Interval{},
		summaries:   map[*ssa.Function]Interval{},
		instMemo:    map[instCacheKey]Interval{},
		visiting:    map[*ssa.Function]bool{},
		budget:      evalBudget,
		zone:        !cfg.DisableZone,
		rootZone:    map[*ssa.Function]*dbm[*ssa.Value]{},
		guardZone:   map[*ssa.Value]*dbm[*ssa.Value]{},
		stride:      !cfg.DisableStride,
		strides:     map[*ssa.Value]Stride{},
		stSummaries: map[*ssa.Function]Stride{},
	}
	// Bottom-up call-graph order.
	done := map[*ssa.Function]bool{}
	var visit func(f *ssa.Function)
	visit = func(f *ssa.Function) {
		if done[f] || a.visiting[f] {
			return
		}
		a.visiting[f] = true
		for _, v := range f.Values {
			if v.Op == ssa.OpCall {
				visit(g.Callee(v))
			}
		}
		delete(a.visiting, f)
		done[f] = true
		a.summaries[f] = a.evalFunction(f, nil, true, 0)
		a.Stats.Functions++
	}
	for _, f := range g.Prog.Order {
		visit(f)
	}
	for v, iv := range a.vals {
		a.Stats.Vertices++
		if !iv.IsTopFor(width(v)) {
			a.Stats.NonTrivial++
		}
	}
	for _, z := range a.rootZone {
		a.Stats.ZoneEdges += len(z.edges)
	}
	for _, z := range a.guardZone {
		a.Stats.ZoneEdges += len(z.edges)
	}
	for _, st := range a.strides {
		if !st.IsTop() {
			a.Stats.StrideFacts++
		}
	}
	return a
}

// RemainingBudget exposes the instantiation budget left after analysis,
// for tests asserting that no-information calls do not consume it.
func (a *Analysis) RemainingBudget() int { return a.budget }

// zoneOf returns the zone valid whenever v's guard chain holds: the
// environment of v's innermost guard, or the function root zone for
// unguarded vertices. Nil when the zone domain is disabled.
func (a *Analysis) zoneOf(v *ssa.Value) *dbm[*ssa.Value] {
	if v.Guard != nil {
		return a.guardZone[v.Guard]
	}
	return a.rootZone[v.Fn]
}

// ZoneFacts returns the difference-bound facts proven to hold whenever v's
// guard chain holds, for the differential soundness tests. A nil endpoint
// in a fact stands for the constant zero.
func (a *Analysis) ZoneFacts(v *ssa.Value) []DiffFact {
	z := a.zoneOf(v)
	if z == nil || z.dead {
		return nil
	}
	out := make([]DiffFact, 0, len(z.edges))
	for k, c := range z.edges {
		out = append(out, DiffFact{X: k.x, Y: k.y, C: c})
	}
	return out
}

// DiffBound returns the tightest proven upper bound on x − y valid under
// the guard chains of both vertices, consulting the zone of each. ok is
// false when the domain is off or no bound is known.
func (a *Analysis) DiffBound(x, y *ssa.Value) (c int64, ok bool) {
	if x == y || x.Op == ssa.OpConst || y.Op == ssa.OpConst ||
		width(x) != 32 || width(y) != 32 {
		return 0, false
	}
	for _, z := range [2]*dbm[*ssa.Value]{a.zoneOf(x), a.zoneOf(y)} {
		if z == nil || z.dead {
			continue
		}
		if d, found := z.diff(x, 0, y, 0); found && (!ok || d < c) {
			c, ok = d, true
		}
	}
	return c, ok
}

// IntervalOf returns the invariant interval of a vertex.
func (a *Analysis) IntervalOf(v *ssa.Value) (Interval, bool) {
	iv, ok := a.vals[v]
	return iv, ok
}

// StrideOf returns the invariant stride of a vertex, valid whenever its
// guard chain holds. ok is false when the congruence domain is disabled
// or the vertex was never analyzed.
func (a *Analysis) StrideOf(v *ssa.Value) (Stride, bool) {
	st, ok := a.strides[v]
	return st, ok
}

// strideInvariantOf returns v's whole-program stride, defaulting to top.
func (a *Analysis) strideInvariantOf(v *ssa.Value) Stride {
	if v.Op == ssa.OpConst {
		return SingleStride(SignExt(v.Const, width(v)))
	}
	if st, ok := a.strides[v]; ok {
		return st
	}
	return TopStride()
}

// StrideFact returns the exportable congruence of an integer vertex:
// v ≡ r (mod m) with m >= 2 and 0 <= r < m, over the MATHEMATICAL value
// of v. ok is false for constants, top, bottom, and singleton strides
// (singletons already export as bounds). Encoding the fact over machine
// arithmetic as URem(v, m) == r is exact only when m divides 2^bits —
// with m below 2^bits, or v would reduce modulo zero — or v is proven
// non-negative with m in range; the caller must add those side
// conditions at v's own width (see fusioncore's residual export).
func (a *Analysis) StrideFact(v *ssa.Value) (m, r int64, ok bool) {
	if width(v) == 1 || v.Op == ssa.OpConst {
		return 0, 0, false
	}
	st, found := a.strides[v]
	if !found || st.IsBottom() || st.S < 2 {
		return 0, 0, false
	}
	return st.S, st.B, true
}

// Bounds returns the exportable signed bounds of an integer vertex at its
// own width: ok is false for booleans, constants, unanalyzed or top
// vertices (top judged per width), and for bottom (unreachable) vertices,
// which the refutation tier handles.
func (a *Analysis) Bounds(v *ssa.Value) (lo, hi int64, ok bool) {
	if width(v) == 1 || v.Op == ssa.OpConst {
		return 0, 0, false
	}
	iv, found := a.vals[v]
	if !found || iv.IsTopFor(width(v)) || iv.IsBottom() {
		return 0, 0, false
	}
	return iv.Lo, iv.Hi, true
}

// Annotation renders a vertex's abstract facts for graph dumps: the
// interval when nontrivial, the stride when a proper congruence, and up
// to three difference bounds from the vertex's guard environment —
// sorted, so DOT output stays byte-identical across runs. Empty for
// vertices without any fact.
func (a *Analysis) Annotation(v *ssa.Value) string {
	var parts []string
	iv, ok := a.vals[v]
	if ok && !iv.IsTopFor(width(v)) {
		parts = append(parts, iv.String())
	}
	if st, ok := a.strides[v]; ok && !st.IsBottom() && st.S >= 2 {
		parts = append(parts, st.String())
	}
	if width(v) == 32 && v.Op != ssa.OpConst {
		var rel []string
		for _, d := range a.ZoneFacts(v) {
			// Only proper relational facts with v on the left: bounds
			// against the zero node restate the interval.
			if d.X != v || d.Y == nil {
				continue
			}
			rel = append(rel, fmt.Sprintf("%s−%s≤%d", zoneName(d.X), zoneName(d.Y), d.C))
		}
		sort.Strings(rel)
		if len(rel) > 3 {
			rel = rel[:3]
		}
		parts = append(parts, rel...)
	}
	return strings.Join(parts, " ")
}

// zoneName labels a DBM endpoint for annotations; nil is the zero node.
func zoneName(x *ssa.Value) string {
	if x == nil {
		return "0"
	}
	if x.Name != "" {
		return x.Name
	}
	return fmt.Sprintf("v%d", x.ID)
}

// evalFunction evaluates f's body with the given argument intervals (nil
// means all top). With record set, per-vertex results are stored as the
// whole-program invariants. f.Values is in construction (topological)
// order and normalized programs are loop-free, so a single forward pass
// reaches the fixpoint.
func (a *Analysis) evalFunction(f *ssa.Function, args []Interval, record bool, depth int) Interval {
	local := make(map[*ssa.Value]Interval, len(f.Values))
	// The zone and stride domains are only tracked in the record pass:
	// instantiation passes re-evaluate intervals alone per call site, and
	// their result is met with the top-parameter summary the record pass
	// computed with the full product, so skipping the product there
	// merely costs precision, never soundness. The zone is the expensive
	// half: it closes a difference-bound matrix per guard environment,
	// which the record pass keeps but an instantiation would discard.
	stride := a.stride && record
	var localSt map[*ssa.Value]Stride
	if stride {
		localSt = make(map[*ssa.Value]Stride, len(f.Values))
	}
	ref := newRefiner(local, localSt, a.zone && record, stride)

	for _, v := range f.Values {
		env := ref.envFor(v.Guard)
		var iv Interval
		var st Stride
		if v.Guard != nil && env.unreachable {
			iv = Bottom() // the guard chain can never hold: dead code
			st = BotStride()
		} else {
			iv = a.transfer(v, args, env, depth)
			if stride {
				iv, st = reduce(iv, stFitWidth(a.strideTransfer(v, env), width(v)))
			}
		}
		local[v] = iv
		if stride {
			localSt[v] = st
			a.strides[v] = st
		}
		ref.noteDef(v)
		if record {
			a.vals[v] = iv
		}
	}
	if record && a.zone {
		// The zones are valid for any arguments: the record pass runs with
		// top parameters, so every recorded fact is a whole-program
		// invariant under its guard chain.
		a.rootZone[f] = ref.root.z
		for g, env := range ref.envs {
			a.guardZone[g] = env.z
		}
	}
	if stride && f.Ret != nil {
		a.stSummaries[f] = localSt[f.Ret]
	}
	if f.Ret == nil {
		return Top(32)
	}
	return local[f.Ret]
}

// strideTransfer evaluates one vertex in the congruence domain under its
// guard environment.
func (a *Analysis) strideTransfer(v *ssa.Value, env *refEnv) Stride {
	switch v.Op {
	case ssa.OpCall:
		return a.strideSummaryOrTop(a.G.Callee(v))
	case ssa.OpBin:
		// The record pass keeps a same-operand subtraction of a dead
		// operand dead; the refuter leaves that to the interval view.
		if v.BinOp == lang.OpSub && v.Args[0] == v.Args[1] && env.stride(v.Args[0]).IsBottom() {
			return BotStride()
		}
	}
	return strideOf(env, v)
}

// stBinOp is the width-parametric stride transfer dispatch. The wrapping
// operators (add, sub, mul, shl) are modular, so the caller's stFitWidth
// reduction keeps them sound at narrow widths; unsigned remainder with a
// possibly-negative narrow dividend is the one case whose 32-bit fallback
// (reinterpretation modulo 2^32) does not transfer, so it gives up.
func stBinOp(op lang.BinOp, sx, sy Stride, ix, iy Interval, w int) Stride {
	if w > 1 && w < 32 && op == lang.OpRem && !ix.IsBottom() && ix.Lo < 0 {
		return TopStride()
	}
	switch op {
	case lang.OpAdd:
		return StAdd(sx, sy, ix, iy)
	case lang.OpSub:
		return StSub(sx, sy, ix, iy)
	case lang.OpMul:
		return StMul(sx, sy, ix, iy)
	case lang.OpShl:
		return StShl(sx, sy, ix, iy)
	case lang.OpDiv:
		return StUDiv(sx, sy, ix, iy)
	case lang.OpRem:
		return StURem(sx, sy, ix, iy)
	default:
		return TopStride()
	}
}

func (a *Analysis) strideSummaryOrTop(f *ssa.Function) Stride {
	if st, ok := a.stSummaries[f]; ok {
		return st
	}
	return TopStride()
}

// transfer evaluates one vertex under its guard environment: a
// parameter takes the instantiation's argument interval, a call
// instantiates the callee, and every other equation is transferOf's.
func (a *Analysis) transfer(v *ssa.Value, args []Interval, env *refEnv, depth int) Interval {
	switch v.Op {
	case ssa.OpParam:
		idx := pdg.ParamIndex(v)
		if args != nil && idx >= 0 && idx < len(args) {
			return args[idx]
		}
		return Top(width(v))
	case ssa.OpCall:
		callArgs := make([]Interval, len(v.Args))
		for i, x := range v.Args {
			callArgs[i] = env.interval(x)
		}
		return a.evalCall(a.G.Callee(v), callArgs, depth)
	}
	return transferOf(env, v)
}

// unsignedFlavored reports the operators whose interval transfers reason
// about 32-bit unsigned views or bit patterns.
func unsignedFlavored(op lang.BinOp) bool {
	switch op {
	case lang.OpDiv, lang.OpRem, lang.OpShl, lang.OpShr,
		lang.OpBitAnd, lang.OpBitOr, lang.OpBitXor:
		return true
	}
	return false
}

// binInterval is the width-parametric interval transfer for one binary
// operator: w is the RESULT width (1 for comparisons and boolean
// operators). The comparison transfers are width-independent given
// width-correct operand intervals (all comparisons are signed at the
// operands' width); the arithmetic transfers compute over mathematical
// integers and are fitted to the result width afterwards; the
// unsigned/bit-pattern transfers are only exact at a narrow width when
// both operand patterns coincide with their values, i.e. both operands
// are provably non-negative in the narrow range.
func binInterval(op lang.BinOp, l, r Interval, isBool bool, w int) Interval {
	if w > 1 && w < 32 && unsignedFlavored(op) {
		if l.IsBottom() || r.IsBottom() {
			return Bottom()
		}
		if !l.Within(0, maxFor(w)) || !r.Within(0, maxFor(w)) {
			return Top(w)
		}
	}
	var out Interval
	switch op {
	case lang.OpAdd:
		out = Add(l, r)
	case lang.OpSub:
		out = Sub(l, r)
	case lang.OpMul:
		out = Mul(l, r)
	case lang.OpDiv:
		out = UDiv(l, r)
	case lang.OpRem:
		out = URem(l, r)
	case lang.OpEq:
		out = Eq(l, r)
	case lang.OpNe:
		out = NotBool(Eq(l, r))
	case lang.OpLt:
		out = Slt(l, r)
	case lang.OpLe:
		out = Sle(l, r)
	case lang.OpGt:
		out = Slt(r, l)
	case lang.OpGe:
		out = Sle(r, l)
	case lang.OpAnd, lang.OpBitAnd:
		if isBool {
			out = AndBool(l, r)
		} else {
			out = BitAnd(l, r)
		}
	case lang.OpOr, lang.OpBitOr:
		if isBool {
			out = OrBool(l, r)
		} else {
			out = BitOr(l, r)
		}
	case lang.OpBitXor:
		out = BitXor(l, r)
	case lang.OpShl:
		out = Shl(l, r)
	case lang.OpShr:
		out = Lshr(l, r)
	default:
		out = Top(w)
	}
	return fitWidth(out, w)
}

// evalCall resolves a call vertex: the callee body is re-evaluated with
// the actual argument intervals when they carry information (memoized and
// budgeted), otherwise the top-parameter summary answers directly.
func (a *Analysis) evalCall(callee *ssa.Function, args []Interval, depth int) Interval {
	if callee.Ret == nil {
		return Top(32)
	}
	if a.visiting[callee] || depth >= maxInstDepth {
		return a.summaryOrTop(callee)
	}
	allTop := true
	for i, iv := range args {
		// Width-aware: a boolean argument's [0, 1] is its lattice top and
		// carries no information, so it must not trigger an instantiation.
		if i < len(callee.Params) && !iv.IsTopFor(width(callee.Params[i])) {
			allTop = false
			break
		}
	}
	if allTop {
		return a.summaryOrTop(callee)
	}
	key := instCacheKey{f: callee, args: intervalKey(args)}
	if iv, ok := a.instMemo[key]; ok {
		a.Stats.CacheHits++
		return iv
	}
	if a.budget <= 0 {
		return a.summaryOrTop(callee)
	}
	a.budget--
	a.Stats.Instantiations++
	a.visiting[callee] = true
	iv := a.evalFunction(callee, args, false, depth+1)
	delete(a.visiting, callee)
	// Stay within the top-parameter summary: the instantiation can only
	// sharpen it.
	iv = iv.Meet(a.summaryOrTop(callee))
	a.instMemo[key] = iv
	return iv
}

func (a *Analysis) summaryOrTop(f *ssa.Function) Interval {
	if iv, ok := a.summaries[f]; ok {
		return iv
	}
	if f.Ret != nil {
		return Top(width(f.Ret))
	}
	return Top(32)
}

func intervalKey(args []Interval) string {
	var b strings.Builder
	for _, iv := range args {
		fmt.Fprintf(&b, "%d:%d;", iv.Lo, iv.Hi)
	}
	return b.String()
}
