// Package sparse implements the sparse analysis of Algorithms 1, 2 and 5:
// data-flow facts propagate along data-dependence edges of the program
// dependence graph, skipping control flow entirely (temporal sparsity), and
// only the facts a statement uses are tracked (spatial sparsity).
//
// The engine enumerates the set Π of source-to-sink data-dependence paths
// with CFL call/return matching for context-sensitivity. Path feasibility
// is decided afterwards by whichever solver design the caller plugs in —
// the conventional one computes and caches explicit path conditions, the
// fused one works on the dependence graph directly. The enumeration itself
// is identical in both designs, which is the paper's point (3) in §3.3.
package sparse

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"fusion/internal/failure"
	"fusion/internal/faultinject"
	"fusion/internal/lang"
	"fusion/internal/pdg"
	"fusion/internal/ssa"
)

// Spec defines a source/sink value-flow query, e.g. "null pointers reaching
// dereferences" or a taint problem.
type Spec struct {
	Name string
	// IsSource reports whether a vertex introduces the tracked fact.
	IsSource func(v *ssa.Value) bool
	// SinkCalls maps extern function names to the argument positions that
	// must not receive the tracked value; nil positions mean any argument.
	SinkCalls map[string][]int
	// TaintThroughExtern propagates the fact through extern calls from
	// arguments to the receiver (true for taint, false for null tracking).
	TaintThroughExtern bool
	// SinkDivisors treats the divisor operand of every division and
	// remainder as a sink; the candidate then carries a value constraint
	// (divisor = 0) that the engines assert when checking feasibility —
	// the division-by-zero checker (CWE-369).
	SinkDivisors bool
	// SinkBounds maps extern function names to an index-sink description:
	// the candidate carries an out-of-bounds constraint (index outside
	// [0, Size)) — the out-of-bounds access checker (CWE-125).
	SinkBounds map[string]IndexSink
}

// IndexSink describes a bounds-checked extern argument: the Arg-th
// argument indexes a buffer of Size elements — or, when DynBound is set,
// a buffer whose length is the BoundArg-th argument of the same call.
type IndexSink struct {
	Arg      int
	Size     uint32
	DynBound bool
	BoundArg int
}

// Candidate is one source-to-sink flow discovered by the propagation: the
// data-dependence path π whose feasibility determines whether the bug is
// real.
type Candidate struct {
	Spec   *Spec
	Source *ssa.Value
	Sink   *ssa.Value // the sink vertex (an extern call, or a division)
	ArgIdx int        // which sink argument receives the value
	Path   pdg.Path
	// ConstrainStep, when >= 0, is the path index the sink constrains:
	// with ConstrainKind pdg.ConstraintEq its value must equal
	// ConstrainValue for the bug to manifest (e.g. a zero divisor); with
	// pdg.ConstraintOutOfBounds it must fall outside [0, ConstrainBound);
	// with pdg.ConstraintOutOfBoundsDyn the step is the sink call itself
	// and its ConstrainArg argument must fall outside
	// [0, ConstrainBoundArg argument).
	ConstrainStep     int
	ConstrainKind     pdg.ConstraintKind
	ConstrainValue    uint32
	ConstrainBound    uint32
	ConstrainArg      int
	ConstrainBoundArg int
}

// Constraints returns the candidate's value constraints, referencing path
// index pathIdx.
func (c Candidate) Constraints(pathIdx int) []pdg.ValueConstraint {
	if c.ConstrainStep < 0 {
		return nil
	}
	return []pdg.ValueConstraint{{
		Path: pathIdx, Step: c.ConstrainStep, Kind: c.ConstrainKind,
		Value: c.ConstrainValue, Bound: c.ConstrainBound,
		Arg: c.ConstrainArg, BoundArg: c.ConstrainBoundArg,
	}}
}

// ApplyConstraint records the candidate's value constraint (if any) on a
// slice computed over its path.
func (c Candidate) ApplyConstraint(sl *pdg.Slice, pathIdx int) {
	sl.Constraints = append(sl.Constraints, c.Constraints(pathIdx)...)
}

// enumLimits bounds one per-source search.
type enumLimits struct {
	pathsPerSource, pathLen, stepsPerSource, callDepth int
}

// limits is what every search runs under. Only tests inside the package
// change it, to exercise truncation.
var limits = enumLimits{pathsPerSource: 8, pathLen: 512, stepsPerSource: 200_000, callDepth: 64}

// Engine enumerates candidate flows on a program dependence graph.
type Engine struct {
	G *pdg.Graph
	// Oracle, when set, vetoes candidates that are already proven
	// infeasible (e.g. by the absint invariants); pruned candidates still
	// count against the per-source path bound so enumeration order and the
	// surviving report set are unchanged. Must be safe for concurrent use
	// when Workers > 1 (the absint oracle is: the analysis is read-only
	// after construction).
	Oracle func(Candidate) bool
	// Pruned counts candidates the oracle discarded.
	Pruned int
	// Workers fans per-source enumeration out on a worker pool; results
	// are merged in source order, so the candidate list is byte-identical
	// to a sequential run. 0 or 1 means sequential.
	Workers int
	// Failures records contained per-source enumeration crashes, in
	// source order: a panicking search loses that source's candidates but
	// never the run. Appended to by RunContext.
	Failures []*failure.UnitFailure
}

// NewEngine returns an engine over g.
func NewEngine(g *pdg.Graph) *Engine { return &Engine{G: g} }

// Sources returns the spec's source vertices in deterministic order.
func (e *Engine) Sources(spec *Spec) []*ssa.Value {
	var out []*ssa.Value
	for _, f := range e.G.Prog.Order {
		for _, v := range f.Values {
			if spec.IsSource(v) {
				out = append(out, v)
			}
		}
	}
	return out
}

// Run enumerates candidates for a spec across the whole program.
func (e *Engine) Run(spec *Spec) []Candidate {
	return e.RunContext(context.Background(), spec)
}

// RunContext enumerates candidates under ctx: cancellation stops the
// traversal cooperatively and returns the candidates found so far. With
// Workers > 1 the per-source enumerations run concurrently.
func (e *Engine) RunContext(ctx context.Context, spec *Spec) []Candidate {
	srcs := e.Sources(spec)
	workers := e.Workers
	if workers > len(srcs) {
		workers = len(srcs)
	}
	if workers <= 1 {
		var out []Candidate
		for _, src := range srcs {
			if ctx.Err() != nil {
				break
			}
			cands, pruned, fail := e.containedFromSource(ctx, spec, src)
			e.Pruned += pruned
			if fail != nil {
				e.Failures = append(e.Failures, fail)
			}
			out = append(out, cands...)
		}
		return out
	}
	type result struct {
		cands  []Candidate
		pruned int
		fail   *failure.UnitFailure
	}
	results := make([]result, len(srcs))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(srcs) {
					return
				}
				if ctx.Err() != nil {
					continue // drain remaining indexes without searching
				}
				cands, pruned, fail := e.containedFromSource(ctx, spec, srcs[i])
				results[i] = result{cands, pruned, fail}
			}
		}()
	}
	wg.Wait()
	// Stable merge in source order; the pruned counts and failures fold
	// in afterwards so neither needs synchronization.
	var out []Candidate
	for _, r := range results {
		e.Pruned += r.pruned
		if r.fail != nil {
			e.Failures = append(e.Failures, r.fail)
		}
		out = append(out, r.cands...)
	}
	return out
}

// SourceLabel names one enumeration unit (a spec/source pair) for failure
// reports and fault-injection matching.
func SourceLabel(spec *Spec, src *ssa.Value) string {
	return fmt.Sprintf("%s source %d:%d", spec.Name, src.Pos.Line, src.Pos.Col)
}

// containedFromSource runs one per-source search under recover: a panic
// anywhere in the traversal is returned as a *failure.UnitFailure and
// only that source's candidates are lost.
func (e *Engine) containedFromSource(ctx context.Context, spec *Spec, src *ssa.Value) (cands []Candidate, pruned int, fail *failure.UnitFailure) {
	unit := SourceLabel(spec, src)
	defer func() {
		if v := recover(); v != nil {
			cands, pruned = nil, 0
			fail = failure.FromPanicAt(unit, "enum", v, "containedFromSource")
		}
	}()
	faultinject.Fire("panic.enum", unit)
	cands, pruned = e.fromSource(ctx, spec, src)
	return cands, pruned, nil
}

// stackKey renders a call-string for the visited set.
func stackKey(stack []int) string {
	// Compact encoding; stacks are short in normalized programs.
	b := make([]byte, 0, len(stack)*3)
	for _, s := range stack {
		b = append(b, byte(s), byte(s>>8), byte(s>>16))
	}
	return string(b)
}

type visitKey struct {
	v     *ssa.Value
	stack string
}

// fromSource enumerates candidate flows starting at one source vertex via
// depth-first traversal of the data-dependence edges, matching call and
// return labels with an explicit stack (CFL-reachability). It touches no
// shared engine state — it returns the pruned count instead of bumping
// e.Pruned — so concurrent per-source searches need no synchronization.
// Cancelling ctx stops the traversal at the next polling point.
func (e *Engine) fromSource(ctx context.Context, spec *Spec, src *ssa.Value) ([]Candidate, int) {
	lim := limits
	var out []Candidate
	steps := 0
	pruned := 0
	visited := map[visitKey]bool{}
	// found counts emitted plus oracle-pruned candidates: pruning must not
	// change which paths the enumeration explores, only drop proven-safe
	// results.
	found := func() int { return len(out) + pruned }
	emit := func(c Candidate) {
		if e.Oracle != nil && e.Oracle(c) {
			pruned++
			return
		}
		out = append(out, c)
	}

	var dfs func(v *ssa.Value, path pdg.Path, stack []int)
	dfs = func(v *ssa.Value, path pdg.Path, stack []int) {
		if found() >= lim.pathsPerSource || len(path) >= lim.pathLen {
			return
		}
		steps++
		if steps > lim.stepsPerSource {
			return
		}
		if steps&1023 == 0 && ctx.Err() != nil {
			// Cancelled: burn the step budget so every pending frame of
			// this source bails out immediately.
			steps = lim.stepsPerSource + 1
			return
		}
		key := visitKey{v: v, stack: stackKey(stack)}
		if visited[key] {
			return
		}
		visited[key] = true
		defer delete(visited, key) // path-local cycle guard

		// Successor edges, deterministically ordered.
		uses := append([]*ssa.Value(nil), v.Uses...)
		sort.Slice(uses, func(i, j int) bool { return uses[i].ID < uses[j].ID })

		for _, u := range uses {
			switch u.Op {
			case ssa.OpCall:
				callee := e.G.Callee(u)
				for idx, a := range u.Args {
					if a != v || idx >= len(callee.Params) {
						continue
					}
					if len(stack) >= lim.callDepth {
						continue
					}
					np := path.Extend(callee.Params[idx], pdg.StepCall, u.Site)
					pushed := make([]int, len(stack)+1)
					copy(pushed, stack)
					pushed[len(stack)] = u.Site
					dfs(callee.Params[idx], np, pushed)
				}
			case ssa.OpExtern:
				// Sink check: the tracked value feeds a sink argument.
				if idxs, ok := spec.SinkCalls[u.Callee]; ok {
					for ai, a := range u.Args {
						if a != v {
							continue
						}
						if len(idxs) > 0 && !containsInt(idxs, ai) {
							continue
						}
						emit(Candidate{
							Spec: spec, Source: src, Sink: u, ArgIdx: ai,
							Path:          path.Extend(u, pdg.StepIntra, 0),
							ConstrainStep: -1,
						})
						if found() >= lim.pathsPerSource {
							return
						}
					}
				}
				if is, ok := spec.SinkBounds[u.Callee]; ok {
					for ai, a := range u.Args {
						if a != v || ai != is.Arg {
							continue
						}
						np := path.Extend(u, pdg.StepIntra, 0)
						cand := Candidate{
							Spec: spec, Source: src, Sink: u, ArgIdx: ai,
							Path: np,
							// The index is the second-to-last step; the bug
							// manifests when it escapes [0, Size).
							ConstrainStep:  len(np) - 2,
							ConstrainKind:  pdg.ConstraintOutOfBounds,
							ConstrainBound: is.Size,
						}
						if is.DynBound {
							// Dynamic bound: constrain the sink call itself
							// (the last step); its BoundArg argument is the
							// buffer length.
							cand.ConstrainStep = len(np) - 1
							cand.ConstrainKind = pdg.ConstraintOutOfBoundsDyn
							cand.ConstrainBound = 0
							cand.ConstrainArg = is.Arg
							cand.ConstrainBoundArg = is.BoundArg
						}
						emit(cand)
						if found() >= lim.pathsPerSource {
							return
						}
					}
				}
				if spec.TaintThroughExtern {
					dfs(u, path.Extend(u, pdg.StepIntra, 0), stack)
				}
			case ssa.OpBranch:
				// Facts do not flow through control decisions.
			default:
				if spec.SinkDivisors && u.Op == ssa.OpBin &&
					(u.BinOp == lang.OpDiv || u.BinOp == lang.OpRem) && u.Args[1] == v {
					np := path.Extend(u, pdg.StepIntra, 0)
					emit(Candidate{
						Spec: spec, Source: src, Sink: u, ArgIdx: 1,
						Path: np,
						// The divisor is the second-to-last step; it must
						// be zero for the division to trap.
						ConstrainStep:  len(np) - 2,
						ConstrainValue: 0,
					})
					if found() >= lim.pathsPerSource {
						return
					}
				}
				dfs(u, path.Extend(u, pdg.StepIntra, 0), stack)
			}
		}

		// Return edges: ascend to the callers of this function.
		if v == v.Fn.Ret {
			callers := append([]*ssa.Value(nil), e.G.Callers[v.Fn.Name]...)
			sort.Slice(callers, func(i, j int) bool { return callers[i].Site < callers[j].Site })
			for _, c := range callers {
				if len(stack) > 0 {
					// Matched return: must pair with the call we entered
					// through.
					if stack[len(stack)-1] != c.Site {
						continue
					}
					np := path.Extend(c, pdg.StepReturn, c.Site)
					popped := make([]int, len(stack)-1)
					copy(popped, stack)
					dfs(c, np, popped)
				} else {
					// Unbalanced ascent into an arbitrary caller.
					np := path.Extend(c, pdg.StepReturn, c.Site)
					dfs(c, np, stack)
				}
			}
		}
	}

	dfs(src, pdg.Path{{V: src, Kind: pdg.StepStart}}, nil)
	return out, pruned
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// NullSource reports pointer-typed null constants, the sources of the
// null-exception checker.
func NullSource(v *ssa.Value) bool {
	return v.Op == ssa.OpConst && v.Type == lang.TypePtr && v.Const == 0
}

// ExternCallSource returns an IsSource predicate matching calls to any of
// the named extern functions (taint sources like gets or getpass).
func ExternCallSource(names ...string) func(v *ssa.Value) bool {
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	return func(v *ssa.Value) bool {
		return v.Op == ssa.OpExtern && set[v.Callee]
	}
}
