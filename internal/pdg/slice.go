package pdg

import (
	"sort"

	"fusion/internal/ssa"
)

// Slice is a program slice with respect to a set Π of data-dependence
// paths: the sub-graph G[Π] of Figure 8, rules (1)-(3). It contains every
// vertex the paths transitively data- or control-depend on, the ite edges
// pruned by rule (1), and the call sites through which each function is
// entered (the labeled call/return edges of the slice, which later drive
// context-sensitive cloning).
type Slice struct {
	G     *Graph
	Paths []Path
	// Values is V[Π], the vertices of the slice.
	Values map[*ssa.Value]bool
	// PrunedArgs records, per ite vertex, which value argument indices
	// (1 = then, 2 = else) were pruned by rule (1)'s X_d set.
	PrunedArgs map[*ssa.Value]map[int]bool
	// Entered records, per function, the call sites through which the
	// slice enters it. Functions with no entry are slice roots whose
	// parameters are free.
	Entered map[*ssa.Function]map[int]bool
	// paramsSeen tracks parameters already in the slice per function, so
	// newly discovered entry sites can revisit them.
	paramsSeen map[*ssa.Function][]*ssa.Value
	// Constraints pins path-step values in the condition — e.g. a
	// division-by-zero check asserts the divisor is zero at the sink.
	Constraints []ValueConstraint
}

// ConstraintKind discriminates how a value constraint pins a path step.
type ConstraintKind int

const (
	// ConstraintEq requires the step value to equal Value exactly (e.g. a
	// zero divisor at a division sink).
	ConstraintEq ConstraintKind = iota
	// ConstraintOutOfBounds requires the step value to fall outside the
	// index range [0, Bound) under signed interpretation — the sink
	// condition of an out-of-bounds access checker.
	ConstraintOutOfBounds
	// ConstraintOutOfBoundsDyn is the dynamic-bound variant: the step
	// value is a sink call whose argument Arg must fall outside
	// [0, args[BoundArg]) under signed interpretation.
	ConstraintOutOfBoundsDyn
)

// ValueConstraint constrains the vertex at Paths[Path][Step] in the
// context the path visits it in: ConstraintEq pins it to Value,
// ConstraintOutOfBounds requires it to miss [0, Bound), and
// ConstraintOutOfBoundsDyn requires the step's Arg argument to miss
// [0, BoundArg argument).
type ValueConstraint struct {
	Path     int
	Step     int
	Kind     ConstraintKind
	Value    uint32 // ConstraintEq payload
	Bound    uint32 // ConstraintOutOfBounds payload
	Arg      int    // ConstraintOutOfBoundsDyn: index argument position
	BoundArg int    // ConstraintOutOfBoundsDyn: bound argument position
}

// ComputeSlice applies rules (1)-(3) to the paths and returns the slice.
// Its running time is linear in the size of the resulting slice.
func ComputeSlice(g *Graph, paths []Path) *Slice {
	s := &Slice{
		G:          g,
		Paths:      paths,
		Values:     map[*ssa.Value]bool{},
		PrunedArgs: map[*ssa.Value]map[int]bool{},
		Entered:    map[*ssa.Function]map[int]bool{},
		paramsSeen: map[*ssa.Function][]*ssa.Value{},
	}
	var work []*ssa.Value
	add := func(v *ssa.Value) {
		if v != nil && !s.Values[v] {
			s.Values[v] = true
			work = append(work, v)
		}
	}

	// Rule (1): prune the ite edges not taken by any path.
	for _, p := range paths {
		for i := 1; i < len(p); i++ {
			u, v := p[i-1].V, p[i].V
			if p[i].Kind != StepIntra || v.Op != ssa.OpIte {
				continue
			}
			thenArg, elseArg := v.Args[1], v.Args[2]
			if u == thenArg && u != elseArg {
				s.pruneArg(v, 2)
			} else if u == elseArg && u != thenArg {
				s.pruneArg(v, 1)
			}
		}
	}

	// Seed the worklist with the path vertices and record labeled
	// crossings. A call-edge crossing additionally seeds the call vertex's
	// guard chain (the call must execute for the path to be feasible).
	enter := func(f *ssa.Function, site int) {
		m := s.Entered[f]
		if m == nil {
			m = map[int]bool{}
			s.Entered[f] = m
		}
		if m[site] {
			return
		}
		m[site] = true
		for _, prm := range s.paramsSeen[f] {
			s.bindParam(prm, site, add)
		}
	}
	for _, p := range paths {
		for i, st := range p {
			add(st.V)
			switch st.Kind {
			case StepCall:
				enter(st.V.Fn, st.Site)
				if c := g.SiteCall[st.Site]; c != nil {
					add(c.Guard)
				}
			case StepReturn:
				if i > 0 {
					enter(p[i-1].V.Fn, st.Site)
				}
			}
		}
		// The sink vertex of a path is where value constraints attach; an
		// extern sink's arguments (e.g. a dynamic buffer bound) are
		// referenced by those constraints, so they join the slice even
		// though the extern receiver itself stays free.
		if n := len(p); n > 0 && p[n-1].V.Op == ssa.OpExtern {
			for _, a := range p[n-1].V.Args {
				add(a)
			}
		}
	}

	// Rules (2) and (3): transitive closure over control and data
	// dependence, with call/return edges followed context-sensitively
	// through the Entered map.
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		add(v.Guard)
		switch v.Op {
		case ssa.OpConst:
			// no dependences
		case ssa.OpIte:
			add(v.Args[0])
			if !s.PrunedArgs[v][1] {
				add(v.Args[1])
			}
			if !s.PrunedArgs[v][2] {
				add(v.Args[2])
			}
		case ssa.OpCall:
			callee := g.Callee(v)
			if callee.Ret != nil {
				enter(callee, v.Site)
				add(callee.Ret)
			}
		case ssa.OpExtern:
			// The receiver of an empty function is unconstrained, so its
			// arguments contribute nothing to the path condition. (The
			// data-dependence edge still exists for sparse propagation.)
		case ssa.OpParam:
			f := v.Fn
			s.paramsSeen[f] = append(s.paramsSeen[f], v)
			for site := range s.Entered[f] {
				s.bindParam(v, site, add)
			}
		default:
			for _, a := range v.Args {
				add(a)
			}
		}
	}
	return s
}

func (s *Slice) pruneArg(ite *ssa.Value, idx int) {
	m := s.PrunedArgs[ite]
	if m == nil {
		m = map[int]bool{}
		s.PrunedArgs[ite] = m
	}
	m[idx] = true
}

// bindParam adds the actual argument bound to a parameter at the given
// call site, along with the guard chain of the call vertex.
func (s *Slice) bindParam(prm *ssa.Value, site int, add func(*ssa.Value)) {
	c := s.G.SiteCall[site]
	if c == nil {
		return
	}
	idx := ParamIndex(prm)
	if idx >= 0 && idx < len(c.Args) {
		add(c.Args[idx])
	}
	add(c.Guard)
}

// IteTaken reports how an ite vertex should translate under rule (6):
// thenOnly means only the then edge is in the slice, elseOnly the converse,
// and both means a full ite term is required.
func (s *Slice) IteTaken(ite *ssa.Value) (thenIn, elseIn bool) {
	pruned := s.PrunedArgs[ite]
	thenIn = s.Values[ite.Args[1]] && !pruned[1]
	elseIn = s.Values[ite.Args[2]] && !pruned[2]
	return thenIn, elseIn
}

// Size returns the number of vertices in the slice.
func (s *Slice) Size() int { return len(s.Values) }

// Roots returns the functions the slice touches that are never entered
// through a call site; their parameters are the free variables of the path
// condition.
func (s *Slice) Roots() []*ssa.Function {
	seen := map[*ssa.Function]bool{}
	var out []*ssa.Function
	for v := range s.Values {
		f := v.Fn
		if !seen[f] && len(s.Entered[f]) == 0 {
			seen[f] = true
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
