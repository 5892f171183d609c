package engines

import (
	"context"
	"fmt"
	"sort"
	"time"

	"fusion/internal/cond"
	"fusion/internal/driver"
	"fusion/internal/failure"
	"fusion/internal/fusioncore"
	"fusion/internal/pdg"
	"fusion/internal/sat"
	"fusion/internal/smt"
	"fusion/internal/solver"
	"fusion/internal/sparse"
	"fusion/internal/ssa"
)

// The paper's §3.1 taint example checks two data-dependence paths at once:
// a password and a destination flowing into send(c, d) is only a leak if
// both paths are *simultaneously* feasible — the conjunction of their path
// conditions must be satisfiable. This file implements that joint checking
// on top of both engine designs.

// JointChecker is implemented by engines that can decide the joint
// feasibility of several flows.
type JointChecker interface {
	CheckJointPaths(ctx context.Context, g *pdg.Graph, paths []pdg.Path) sat.Status
}

// CheckJointPaths implements JointChecker for the fused engine. Like a
// candidate, each joint query is solved one-shot on a builder of its own
// under the per-candidate budget, so it is safe concurrently with Check.
func (e *Fusion) CheckJointPaths(parent context.Context, g *pdg.Graph, paths []pdg.Path) sat.Status {
	ctx, cancel := withDeadline(parent, e.Budget.Deadline)
	defer cancel()
	b := smt.NewBuilder()
	r := fusioncore.Solve(ctx, b, g, paths, e.solveOptions())
	e.notePeak(b)
	return r.Status
}

// CheckJointPaths implements JointChecker for the conventional engine,
// translating into the summary cache like the per-candidate checks; the
// per-candidate deadline starts once the cache lock is held, as in
// checkOne.
func (e *Pinpoint) CheckJointPaths(parent context.Context, g *pdg.Graph, paths []pdg.Path) sat.Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	ctx, cancel := withDeadline(parent, e.Budget.Deadline)
	defer cancel()
	opts := options(e.Budget)
	opts.Ctx = ctx
	sl := pdg.ComputeSlice(g, paths)
	tr := cond.Translate(e.cache, sl)
	return solver.NewSession(e.cache).Solve(tr.Phi, opts).Status
}

// JointGroup is a set of candidate flows into distinct arguments of the
// same sink call.
type JointGroup struct {
	Sink  *ssa.Value
	Flows []sparse.Candidate
}

// GroupBySink collects candidates that target distinct argument positions
// of the same sink vertex; only sinks receiving two or more tracked
// arguments form a group. When several flows reach the same argument, one
// representative per argument is kept (joint checking asks whether the
// arguments can be tainted together, not which path does it).
func GroupBySink(cands []sparse.Candidate) []JointGroup {
	type key struct {
		sink *ssa.Value
	}
	byArg := map[key]map[int]sparse.Candidate{}
	for _, c := range cands {
		k := key{c.Sink}
		if byArg[k] == nil {
			byArg[k] = map[int]sparse.Candidate{}
		}
		if _, dup := byArg[k][c.ArgIdx]; !dup {
			byArg[k][c.ArgIdx] = c
		}
	}
	var out []JointGroup
	for k, args := range byArg {
		if len(args) < 2 {
			continue
		}
		g := JointGroup{Sink: k.sink}
		idxs := make([]int, 0, len(args))
		for i := range args {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			g.Flows = append(g.Flows, args[i])
		}
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Sink, out[j].Sink
		if a.Fn.Name != b.Fn.Name {
			return a.Fn.Name < b.Fn.Name
		}
		return a.ID < b.ID
	})
	return out
}

// JointVerdict is the result of checking one group.
type JointVerdict struct {
	Group  JointGroup
	Status sat.Status
	Time   time.Duration
	// Failure records a contained crash; Status is then Unknown.
	Failure *failure.UnitFailure
}

// jointUnitLabel names one group for failure reports, stable under
// enumeration order: the sink's function and vertex plus the flow count.
func jointUnitLabel(grp JointGroup) string {
	return fmt.Sprintf("joint %s#%d*%d", grp.Sink.Fn.Name, grp.Sink.ID, len(grp.Flows))
}

// CheckJoint decides every multi-argument sink group with the given
// engine, each in one attempt under panic containment like a candidate:
// a crashed group ends Unknown with its failure, labelled with the group
// and the joint stage. Once ctx is done the remaining groups are skipped
// and stay Unknown.
func CheckJoint(ctx context.Context, eng JointChecker, g *pdg.Graph, cands []sparse.Candidate) []JointVerdict {
	groups := GroupBySink(cands)
	out, fails := driver.ParallelCheck(ctx, len(groups), 1, func(i int) JointVerdict {
		v := JointVerdict{Group: groups[i]}
		if ctx.Err() != nil {
			return v
		}
		paths := make([]pdg.Path, len(v.Group.Flows))
		for j, f := range v.Group.Flows {
			paths[j] = f.Path
		}
		t0 := time.Now()
		v.Status = eng.CheckJointPaths(ctx, g, paths)
		v.Time = time.Since(t0)
		return v
	})
	for i, f := range fails {
		if f != nil {
			f.Unit, f.Stage = jointUnitLabel(groups[i]), "joint"
			out[i] = JointVerdict{Group: groups[i], Failure: f}
		}
	}
	return out
}
