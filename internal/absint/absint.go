package absint

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"fusion/internal/lang"
	"fusion/internal/pdg"
	"fusion/internal/ssa"
)

// Analysis holds the whole-program facts: one fact record per function
// (sound for every calling context, i.e. computed with top parameters),
// plus a bounded cache of call-site instantiations with sharper argument
// intervals.
type Analysis struct {
	G *pdg.Graph

	// facts holds each function's record, made by its record pass.
	facts map[*ssa.Function]*fnFacts

	instMemo map[instCacheKey]Interval
	visiting map[*ssa.Function]bool
	budget   int
	// frames holds each evaluation depth's per-body state, reused by
	// every pass at that depth. Passes nest strictly: the record pass
	// runs at depth 0 and is never re-entered, and evalCall runs a
	// callee's pass at depth+1 only while the caller's pass waits, up to
	// maxInstDepth. So no two live passes ever share a frame.
	frames [maxInstDepth + 1]frame
	// keyBuf is the scratch buffer instantiation memo keys are built in.
	keyBuf []byte

	// zone enables the relational (difference-bound) domain.
	zone bool
	// stride enables the congruence domain.
	stride bool

	Stats Stats
}

// fnFacts is one function's whole-program facts, made by its record pass
// with top parameters, so each holds for any arguments. vals holds each
// value's interval: everything the vertex can compute in any execution,
// assuming its guard chain holds (gated SSA only consumes a value under
// its guard); strides holds its stride, reduced against the interval.
// Both are indexed by the value's ID. ret and retSt are the function's
// return interval and stride. root is the zone valid on the unguarded
// path, and zones, indexed by a guard's ID, the zone valid whenever that
// guard's chain holds.
type fnFacts struct {
	vals []Interval
	// strides is nil when the congruence domain is off.
	strides []Stride
	ret     Interval
	retSt   Stride
	// root and zones are nil when the zone domain is off.
	root  *dbm[*ssa.Value]
	zones []*dbm[*ssa.Value]
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
	Instantiations int
	CacheHits      int
	// ZoneEdges is the total difference-bound fact count recorded across
	// all guard environments.
	ZoneEdges int
	// StrideFacts counts vertices whose invariant stride is strictly
	// below top (a proper congruence or a singleton).
	StrideFacts int
}

// frame is one evaluation depth's reusable state: the body's refiner and
// the argument intervals of the call being instantiated from it.
type frame struct {
	ref      refiner
	callArgs []Interval
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
		G:        g,
		facts:    map[*ssa.Function]*fnFacts{},
		instMemo: map[instCacheKey]Interval{},
		visiting: map[*ssa.Function]bool{},
		budget:   evalBudget,
		zone:     !cfg.DisableZone,
		stride:   !cfg.DisableStride,
	}
	// Bottom-up call-graph order.
	var visit func(f *ssa.Function)
	visit = func(f *ssa.Function) {
		if a.facts[f] != nil || a.visiting[f] {
			return
		}
		a.visiting[f] = true
		for _, v := range f.Values {
			if v.Op == ssa.OpCall {
				visit(g.Callee(v))
			}
		}
		delete(a.visiting, f)
		a.facts[f] = a.record(f)
	}
	for _, f := range g.Prog.Order {
		visit(f)
	}
	return a
}

// record runs f's record pass, with top parameters and every enabled
// domain, and makes f's fact record from it: the pass's depth-0 tables
// are handed over, so the next record pass allocates its own.
func (a *Analysis) record(f *ssa.Function) *fnFacts {
	ret := a.evalFunction(f, nil, true, 0)
	ref := &a.frames[0].ref
	fx := &fnFacts{vals: ref.local, ret: ret, retSt: TopStride()}
	ref.local = nil
	if a.stride {
		fx.strides, ref.localSt = ref.localSt, nil
		if f.Ret != nil {
			fx.retSt = fx.strides[f.Ret.ID]
		}
		for _, st := range fx.strides {
			if !st.IsTop() {
				a.Stats.StrideFacts++
			}
		}
	}
	if a.zone {
		fx.root, fx.zones = ref.root.z, make([]*dbm[*ssa.Value], len(f.Values))
		a.Stats.ZoneEdges += len(fx.root.edges)
		for id, env := range ref.envs {
			if env != nil {
				fx.zones[id] = env.z
				a.Stats.ZoneEdges += len(env.z.edges)
			}
		}
	}
	return fx
}

// RemainingBudget exposes the instantiation budget left after analysis,
// for tests asserting that no-information calls do not consume it.
func (a *Analysis) RemainingBudget() int { return a.budget }

// zoneOf returns the zone valid whenever v's guard chain holds: the
// environment of v's innermost guard, or the function root zone for
// unguarded vertices. Nil when the zone domain is disabled.
func (a *Analysis) zoneOf(v *ssa.Value) *dbm[*ssa.Value] {
	fx := a.facts[v.Fn]
	if fx == nil || !a.zone {
		return nil
	}
	if v.Guard != nil {
		return fx.zones[v.Guard.ID]
	}
	return fx.root
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

// IntervalOf returns the invariant interval of a vertex.
func (a *Analysis) IntervalOf(v *ssa.Value) (Interval, bool) {
	fx := a.facts[v.Fn]
	if fx == nil {
		return Interval{}, false
	}
	return fx.vals[v.ID], true
}

// StrideOf returns the invariant stride of a vertex, valid whenever its
// guard chain holds. ok is false when the congruence domain is disabled
// or the vertex was never analyzed.
func (a *Analysis) StrideOf(v *ssa.Value) (Stride, bool) {
	fx := a.facts[v.Fn]
	if fx == nil || fx.strides == nil {
		return Stride{}, false
	}
	return fx.strides[v.ID], true
}

// strideInvariantOf returns v's whole-program stride, defaulting to top.
func (a *Analysis) strideInvariantOf(v *ssa.Value) Stride {
	if v.Op == ssa.OpConst {
		return SingleStride(SignExt(v.Const, width(v)))
	}
	if st, ok := a.StrideOf(v); ok {
		return st
	}
	return TopStride()
}

// Annotation renders a vertex's abstract facts for graph dumps: the
// interval when nontrivial, the stride when a proper congruence, and up
// to three difference bounds from the vertex's guard environment —
// sorted, so DOT output stays byte-identical across runs. Empty for
// vertices without any fact.
func (a *Analysis) Annotation(v *ssa.Value) string {
	var parts []string
	iv, ok := a.IntervalOf(v)
	if ok && !iv.IsTopFor(width(v)) {
		parts = append(parts, iv.String())
	}
	if st, ok := a.StrideOf(v); ok && !st.IsBottom() && st.S >= 2 {
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

// evalFunction evaluates f's body in depth's frame with the given
// argument intervals (nil means all top); record marks the record pass.
// f.Values is in construction (topological) order and normalized
// programs are loop-free, so a single forward pass reaches the fixpoint.
func (a *Analysis) evalFunction(f *ssa.Function, args []Interval, record bool, depth int) Interval {
	// The zone and stride domains are only tracked in the record pass:
	// instantiation passes re-evaluate intervals alone per call site, and
	// their result is met with the top-parameter summary the record pass
	// computed with the full product, so skipping the product there
	// merely costs precision, never soundness. The zone is the expensive
	// half: it closes a difference-bound matrix per guard environment,
	// which the record pass keeps but an instantiation would discard.
	stride := a.stride && record
	ref := &a.frames[depth].ref
	ref.reset(f, a.zone && record, stride)

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
		ref.define(v, iv, st)
		ref.noteDef(v)
	}
	if f.Ret == nil {
		return Top(32)
	}
	return ref.local[f.Ret.ID]
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
	if fx := a.facts[f]; fx != nil {
		return fx.retSt
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
		// The callee's pass runs one frame deeper, so it never touches
		// this frame's argument buffer while reading its arguments.
		fr := &a.frames[depth]
		fr.callArgs = fr.callArgs[:0]
		for _, x := range v.Args {
			fr.callArgs = append(fr.callArgs, env.interval(x))
		}
		return a.evalCall(a.G.Callee(v), fr.callArgs, depth)
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
	a.keyBuf = appendIntervalKey(a.keyBuf[:0], args)
	if iv, ok := a.instMemo[instCacheKey{f: callee, args: string(a.keyBuf)}]; ok {
		a.Stats.CacheHits++
		return iv
	}
	if a.budget <= 0 {
		return a.summaryOrTop(callee)
	}
	// The callee's own calls reuse keyBuf, so copy the key out first.
	key := instCacheKey{f: callee, args: string(a.keyBuf)}
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
	if fx := a.facts[f]; fx != nil {
		return fx.ret
	}
	if f.Ret != nil {
		return Top(width(f.Ret))
	}
	return Top(32)
}

// appendIntervalKey appends the memo key of an argument list to b.
func appendIntervalKey(b []byte, args []Interval) []byte {
	for _, iv := range args {
		b = strconv.AppendInt(b, iv.Lo, 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, iv.Hi, 10)
		b = append(b, ';')
	}
	return b
}
