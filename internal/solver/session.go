// Solver sessions: one (Builder, Solver, Blaster) triple that answers the
// stream of related queries a single candidate issues — the context
// simplifier's sub-queries, the QE projection's cube queries, the
// abstraction-refinement loop's depths — through assumption-based solving,
// so learned clauses and the Tseitin encodings of shared hash-consed
// subterms carry over from one query of the candidate to the next. A
// session lives for one candidate: nothing it learns outlives the
// candidate, so no verdict can depend on which candidates came before.

package solver

import (
	"context"
	"time"

	"fusion/internal/bitblast"
	"fusion/internal/poll"
	"fusion/internal/sat"
	"fusion/internal/smt"
)

// maxConflicts bounds every SAT search a session runs.
const maxConflicts = 4_000_000

// Session is one candidate's solving stack. It is NOT safe for concurrent
// use; callers create one per candidate and drop it when the candidate is
// decided. Retained clauses and encodings change only the cost of a
// solve, never its answer.
type Session struct {
	b  *smt.Builder
	s  *sat.Solver
	bl *bitblast.Blaster
	// oneShot makes every query that reaches the SAT core start on a
	// fresh solver and blaster and assert phi directly instead of under an
	// activation literal: the standalone solver of Algorithm 3.
	oneShot bool
}

// NewSession returns a solving stack over b. Every formula passed to
// Solve must be built by b — encodings key on hash-consed term identity.
func NewSession(b *smt.Builder) *Session { return &Session{b: b} }

// Solve answers phi: probe, preprocessing with early exit, then the CDCL
// core — reached through an assumption on phi's activation literal, so
// the query can be retired afterwards without destroying anything learned
// (on the one-shot path, through a direct assertion on a fresh stack).
// With WantModel, a model that preprocessing left partial is completed by
// a second, pass-free solve of phi; equisatisfiability guarantees one
// exists.
func (ss *Session) Solve(phi *smt.Term, opts Options) Result {
	res := ss.solveOnce(phi, opts)
	if opts.WantModel && res.Status == sat.Sat && !modelCovers(res.Model, phi) {
		raw := opts
		raw.Passes = NoPasses
		raw.WantModel = false
		raw.NoProbe = true // the first solve's probe already failed on this phi, seed and tries
		if full := ss.solveOnce(phi, raw); full.Status == sat.Sat {
			res.Model = full.Model
		}
	}
	return res
}

func modelCovers(m smt.Assignment, phi *smt.Term) bool {
	for _, v := range smt.Vars(phi) {
		if _, ok := m[v]; !ok {
			return false
		}
	}
	return true
}

func (ss *Session) solveOnce(phi *smt.Term, opts Options) Result {
	var res Result
	res.SizeBefore = ss.b.Size(phi)
	if cancelled(opts.Ctx) {
		return res // Status zero value is Unknown
	}
	if !opts.NoProbe && !phi.IsConst() {
		t0 := time.Now()
		m, ok := Probe(opts.Ctx, ss.b, phi, 32)
		res.ProbeTime = time.Since(t0)
		if ok {
			res.Status = sat.Sat
			res.DecidedByProbe = true
			res.Model = m
			return res
		}
	}
	if cancelled(opts.Ctx) {
		return res // cancelled between probe and preprocessing
	}
	passes := opts.Passes
	if passes == nil {
		passes = smt.DefaultPasses()
	}
	t0 := time.Now()
	phi = smt.Preprocess(opts.Ctx, ss.b, phi, passes)
	res.PreprocessTime = time.Since(t0)
	res.SizeAfter = ss.b.Size(phi)
	if phi.IsTrue() {
		res.Status = sat.Sat
		res.Preprocessed = true
		return res
	}
	if phi.IsFalse() {
		res.Status = sat.Unsat
		res.Preprocessed = true
		return res
	}
	if cancelled(opts.Ctx) {
		return res // cancelled between preprocessing and blasting
	}

	// The stack is built on first use. A one-shot query's assertion is
	// permanent, so it always gets a fresh one. A solver that is not Okay
	// derived a root contradiction — impossible from guard and Tseitin
	// clauses alone — so its state is not trusted either.
	if ss.s == nil || ss.oneShot || !ss.s.Okay() {
		ss.s = sat.New()
		ss.bl = bitblast.New(ss.s)
	}

	t1 := time.Now()
	s := ss.s
	s.MaxConflicts = maxConflicts
	s.MaxDecisions = opts.MaxDecisions // also clears a previous query's bound
	if opts.Timeout > 0 {
		s.Deadline = time.Now().Add(opts.Timeout)
	} else {
		s.Deadline = time.Time{}
	}
	s.Ctx = opts.Ctx
	before := s.Stats()
	vars, clauses := s.NumVars(), s.NumClauses()

	// A blast the context stops unwinds without memoizing its unfinished
	// terms or registering an activation literal, so the stack stays
	// valid for the candidate's next query.
	ss.bl.Stop = poll.Stop(opts.Ctx, 1)
	var assumps []sat.Lit
	var err error
	if ss.oneShot {
		err = ss.bl.AssertTrue(phi)
	} else {
		var act sat.Lit
		act, err = ss.bl.Assume(phi)
		assumps = []sat.Lit{act}
	}
	res.BlastTime = time.Since(t1)
	res.Vars = s.NumVars() - vars
	res.Clauses = s.NumClauses() - clauses
	var st sat.Status
	if err == nil {
		stallFault(opts)
		if !cancelled(opts.Ctx) {
			st, err = s.SolveAssuming(assumps)
		}
	}
	res.SearchTime = time.Since(t1)
	after := s.Stats()
	res.Conflicts = after.Conflicts - before.Conflicts
	res.Decisions = after.Decisions - before.Decisions
	res.Props = after.Props - before.Props
	if err != nil {
		res.Status = sat.Unknown
		res.Exhausted = err == sat.ErrBudget && !cancelled(opts.Ctx)
		return res
	}
	res.Status = st
	if st == sat.Sat {
		res.Model = smt.Assignment{}
		for _, v := range smt.Vars(phi) {
			res.Model[v] = ss.bl.ModelValue(v)
		}
	}
	return res
}

// cancelled reports whether ctx is non-nil and done.
func cancelled(ctx context.Context) bool { return ctx != nil && ctx.Err() != nil }
