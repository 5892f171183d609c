// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver with two-literal watching, VSIDS-style activity ordering, first-UIP
// conflict analysis with non-chronological backjumping, Luby restarts, and
// phase saving. It is the decision engine the bit-vector solver bit-blasts
// into, standing in for the SAT core of Z3 in the paper's stack.
package sat

import (
	"context"
	"errors"
	"time"

	"fusion/internal/poll"
)

// Lit is a literal: variable index shifted left once, low bit = negated.
// Variables are 0-based.
type Lit int32

// MkLit builds a literal for variable v, negated when neg is true.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Flip returns the complementary literal.
func (l Lit) Flip() Lit { return l ^ 1 }

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func (b lbool) flip() lbool {
	switch b {
	case lTrue:
		return lFalse
	case lFalse:
		return lTrue
	}
	return lUndef
}

type clause struct {
	lits     []Lit
	learned  bool
	activity float64
}

// Status is a solver verdict.
type Status int

// Verdicts.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// ErrBudget is returned when the conflict budget or deadline is exhausted.
var ErrBudget = errors.New("sat: budget exhausted")

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	clauses  []*clause
	learnts  []*clause
	watches  [][]*clause // watches[lit] = clauses watching lit
	assigns  []lbool
	level    []int32
	reason   []*clause
	trail    []Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	order    *varHeap
	phase    []lbool // saved phases

	claInc float64

	ok        bool // false once a top-level conflict is found
	Conflicts int64
	Props     int64
	Decisions int64

	// MaxConflicts bounds the search; <= 0 means unbounded.
	MaxConflicts int64
	// MaxDecisions bounds the number of branching decisions; <= 0
	// means unbounded. Unlike the wall-clock deadline it is exact and
	// machine-independent, so exhaustion is deterministic.
	MaxDecisions int64
	// Deadline aborts the search when passed; zero means none.
	Deadline time.Time
	// Ctx, when non-nil, cancels the search cooperatively: it is polled
	// on every iteration of the search loop — lock-free, and propagation
	// over a large clause database can make one iteration take
	// milliseconds — returning Unknown with ErrBudget once cancelled.
	Ctx context.Context
	// StallHook, when non-nil, is called once at the start of every
	// restart of the CDCL search. It exists for deterministic fault
	// injection (the stall.solve point wedges the search mid-CDCL until
	// its context is done); production code leaves it nil.
	StallHook func()

	seen    []bool
	toClear []int

	decisionsAtStart int64

	// assumptions are the pseudo-decisions of the current SolveAssuming
	// call, placed one per decision level below every real decision.
	assumptions []Lit
	// conflictLits is the final conflict of the last assumption-based
	// solve: the subset of assumptions whose conjunction is already
	// unsatisfiable under the clause database (see FinalConflict).
	conflictLits []Lit
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, claInc: 1, ok: true}
	s.order = &varHeap{act: &s.activity}
	return s
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NumClauses returns the number of problem (non-learned) clauses attached.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumLearnts returns the number of learned clauses currently retained.
// Across SolveAssuming calls the learned database persists, so this is the
// cross-query reuse a warm session carries into its next solve.
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// Okay reports that no top-level (assumption-independent) contradiction has
// been derived; once false, every future solve is Unsat.
func (s *Solver) Okay() bool { return s.ok }

// Stats is a snapshot of the solver's monotonic search counters. On a
// long-lived solver (a warm session) they accumulate across queries, so
// per-query costs are deltas between two snapshots.
type Stats struct {
	Conflicts int64
	Decisions int64
	Props     int64
}

// Stats returns the current search-counter snapshot.
func (s *Solver) Stats() Stats {
	return Stats{Conflicts: s.Conflicts, Decisions: s.Decisions, Props: s.Props}
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assigns)
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, lFalse)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

func (s *Solver) value(l Lit) lbool {
	v := s.assigns[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Neg() {
		return v.flip()
	}
	return v
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a clause over the given literals. It returns false if the
// formula became trivially unsatisfiable.
//
// Clauses may be added between solves on the same instance: the trail is
// first backtracked to the root level, which invalidates any model left by
// a previous Sat verdict (read it with ValueOf before adding more clauses).
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		// A previous solve left its (pseudo-)decisions on the trail;
		// release them so the clause simplifies against root-level facts
		// only and unit propagation runs at the root.
		s.cancelUntil(0)
	}
	// Normalize: drop duplicate and false literals, detect tautologies.
	var out []Lit
	seen := map[Lit]bool{}
	for _, l := range lits {
		if l.Var() >= s.NumVars() {
			panic("sat: literal over unallocated variable")
		}
		switch s.value(l) {
		case lTrue:
			return true // already satisfied at level 0
		case lFalse:
			continue
		}
		if seen[l.Flip()] {
			return true // tautology
		}
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		if s.propagate() != nil {
			s.ok = false
			return false
		}
		return true
	}
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

func (s *Solver) attach(c *clause) {
	s.watches[c.lits[0].Flip()] = append(s.watches[c.lits[0].Flip()], c)
	s.watches[c.lits[1].Flip()] = append(s.watches[c.lits[1].Flip()], c)
}

func (s *Solver) uncheckedEnqueue(l Lit, from *clause) {
	v := l.Var()
	if l.Neg() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the conflicting clause or
// nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		ws := s.watches[p]
		kept := ws[:0]
		var confl *clause
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			if confl != nil {
				kept = append(kept, c)
				continue
			}
			// Ensure the false literal is lits[1].
			if c.lits[0] == p.Flip() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.value(c.lits[0]) == lTrue {
				kept = append(kept, c)
				continue
			}
			// Find a new watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Flip()] = append(s.watches[c.lits[1].Flip()], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			kept = append(kept, c)
			if s.value(c.lits[0]) == lFalse {
				confl = c
				continue
			}
			s.Props++
			s.uncheckedEnqueue(c.lits[0], c)
		}
		s.watches[p] = kept
		if confl != nil {
			s.qhead = len(s.trail)
			return confl
		}
	}
	return nil
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(c *clause) {
	c.activity += s.claInc
	if c.activity > 1e20 {
		for _, l := range s.learnts {
			l.activity *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// analyze performs first-UIP conflict analysis and returns the learnt
// clause (asserting literal first) and the backjump level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learnt := []Lit{0} // slot 0 reserved for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		s.bumpClause(confl)
		start := 0
		if p != -1 {
			start = 1
		}
		for _, q := range confl.lits[start:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.toClear = append(s.toClear, v)
			s.bumpVar(v)
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next seen literal on the trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		confl = s.reason[v]
		counter--
		if counter == 0 {
			break
		}
		if p != -1 && confl != nil {
			// Put p first so the reason iteration skips it.
			if confl.lits[0] != p {
				for i, l := range confl.lits {
					if l == p {
						confl.lits[0], confl.lits[i] = confl.lits[i], confl.lits[0]
						break
					}
				}
			}
		}
	}
	learnt[0] = p.Flip()

	// Backjump level: max level among the other literals.
	back := 0
	for i := 1; i < len(learnt); i++ {
		if int(s.level[learnt[i].Var()]) > back {
			back = int(s.level[learnt[i].Var()])
		}
	}
	// Move a literal of the backjump level into slot 1 for watching.
	if len(learnt) > 1 {
		mi := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[mi].Var()] {
				mi = i
			}
		}
		learnt[1], learnt[mi] = learnt[mi], learnt[1]
	}
	for _, v := range s.toClear {
		s.seen[v] = false
	}
	s.toClear = s.toClear[:0]
	return learnt, back
}

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[level]; i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = s.assigns[v]
		s.assigns[v] = lUndef
		s.reason[v] = nil
		s.order.pushIfAbsent(v)
	}
	s.trail = s.trail[:s.trailLim[level]]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) pickBranch() Lit {
	for {
		v, ok := s.order.pop()
		if !ok {
			return -1
		}
		if s.assigns[v] == lUndef {
			neg := s.phase[v] != lTrue
			return MkLit(v, neg)
		}
	}
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i >= 1<<uint(k-1) && i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

// reduceDB removes half of the learnt clauses with the lowest activity.
func (s *Solver) reduceDB() {
	if len(s.learnts) < 100 {
		return
	}
	// Partial selection: keep clauses that are reasons or highly active.
	lim := medianActivity(s.learnts)
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if s.isReason(c) || c.activity >= lim || len(c.lits) <= 2 {
			kept = append(kept, c)
		} else {
			s.detach(c)
		}
	}
	s.learnts = kept
}

func medianActivity(cs []*clause) float64 {
	if len(cs) == 0 {
		return 0
	}
	var sum float64
	for _, c := range cs {
		sum += c.activity
	}
	return sum / float64(len(cs))
}

// PurgeLearnts detaches every learned clause containing a literal for
// which drop returns true, returning the number purged. Learned clauses
// are consequences of the problem clauses alone, so removing any subset
// never changes a verdict — purging is how a warm session garbage-collects
// clauses that reference retired activation groups instead of carrying
// them (disabled but resident) forever. The trail is first backtracked to
// the root level so no in-flight reason clause can be removed; clauses
// serving as root-level reasons are kept.
func (s *Solver) PurgeLearnts(drop func(Lit) bool) int {
	s.cancelUntil(0)
	kept := s.learnts[:0]
	purged := 0
	for _, c := range s.learnts {
		dead := false
		if !s.isReason(c) {
			for _, l := range c.lits {
				if drop(l) {
					dead = true
					break
				}
			}
		}
		if dead {
			s.detach(c)
			purged++
		} else {
			kept = append(kept, c)
		}
	}
	for i := len(kept); i < len(s.learnts); i++ {
		s.learnts[i] = nil // release the purged tails for GC
	}
	s.learnts = kept
	return purged
}

func (s *Solver) isReason(c *clause) bool {
	v := c.lits[0].Var()
	return s.assigns[v] != lUndef && s.reason[v] == c
}

func (s *Solver) detach(c *clause) {
	for _, w := range []Lit{c.lits[0].Flip(), c.lits[1].Flip()} {
		ws := s.watches[w]
		for i, x := range ws {
			if x == c {
				ws[i] = ws[len(ws)-1]
				s.watches[w] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// Solve runs the CDCL search and returns Sat, Unsat, or an error when the
// budget is exhausted.
func (s *Solver) Solve() (Status, error) { return s.SolveAssuming(nil) }

// SolveAssuming runs the CDCL search under the given assumption literals,
// placed as pseudo-decisions below every real decision. It returns Sat when
// the formula is satisfiable with every assumption true, Unsat when it is
// not (FinalConflict then reports which assumptions are to blame — the
// solver itself stays usable, unlike a root-level contradiction), and an
// error when the budget is exhausted.
//
// Everything learned is retained across calls: learned clauses (which are
// consequences of the clause database alone, never of the assumptions),
// variable activity, and saved phases. Budgets are charged per call:
// MaxConflicts and MaxDecisions count from the call's start, and Deadline
// and Ctx are read as configured at call time. After a Sat verdict the
// trail is left in place so ValueOf can read the model; the next
// SolveAssuming (or AddClause) releases it.
func (s *Solver) SolveAssuming(assumps []Lit) (Status, error) {
	if !s.ok {
		return Unsat, nil
	}
	if s.Ctx != nil && s.Ctx.Err() != nil {
		return Unknown, ErrBudget
	}
	s.cancelUntil(0) // release the previous call's model and assumptions
	for _, l := range assumps {
		if l.Var() >= s.NumVars() {
			panic("sat: assumption over unallocated variable")
		}
	}
	s.assumptions = append(s.assumptions[:0], assumps...)
	s.conflictLits = s.conflictLits[:0]
	// Clauses added since the last solve may have pending root-level units.
	if s.propagate() != nil {
		s.ok = false
		return Unsat, nil
	}
	restartIdx := int64(1)
	conflictsAtStart := s.Conflicts
	s.decisionsAtStart = s.Decisions
	for {
		budget := luby(restartIdx) * 100
		restartIdx++
		st, err := s.search(budget, conflictsAtStart)
		if err != nil || st != Unknown {
			return st, err
		}
	}
}

// FinalConflict returns the final conflict of the last SolveAssuming call
// that returned Unsat: a subset of the assumptions whose conjunction is
// already unsatisfiable under the clause database. It is empty when the
// contradiction is assumption-independent (the formula itself is Unsat).
// The slice is owned by the solver and valid until the next solve.
func (s *Solver) FinalConflict() []Lit { return s.conflictLits }

// Backtrack releases every (pseudo-)decision, returning the solver to the
// root level while keeping learned clauses, activity, and saved phases. It
// invalidates the model of a preceding Sat verdict.
func (s *Solver) Backtrack() { s.cancelUntil(0) }

func (s *Solver) search(restartBudget int64, conflictsAtStart int64) (Status, error) {
	if s.StallHook != nil {
		s.StallHook()
	}
	conflictsThisRestart := int64(0)
	checkCounter := 0
	stop := poll.Stop(s.Ctx, 1)
	for {
		if stop != nil && stop() {
			return Unknown, ErrBudget
		}
		confl := s.propagate()
		if confl != nil {
			s.Conflicts++
			conflictsThisRestart++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat, nil
			}
			learnt, back := s.analyze(confl)
			s.cancelUntil(back)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], nil)
			} else {
				c := &clause{lits: learnt, learned: true}
				s.learnts = append(s.learnts, c)
				s.attach(c)
				s.bumpClause(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			if s.MaxConflicts > 0 && s.Conflicts-conflictsAtStart >= s.MaxConflicts {
				return Unknown, ErrBudget
			}
			if conflictsThisRestart >= restartBudget {
				s.cancelUntil(0)
				s.reduceDB()
				return Unknown, nil
			}
			continue
		}
		if !s.Deadline.IsZero() {
			checkCounter++
			if checkCounter%256 == 0 && time.Now().After(s.Deadline) {
				return Unknown, ErrBudget
			}
		}
		// Place pending assumptions as pseudo-decisions, one per level, so
		// restarts (which cancel to the root) re-place them and conflict
		// analysis backjumps through them like ordinary decisions. They are
		// not charged against the decision budget.
		next := Lit(-1)
		for next == -1 && s.decisionLevel() < len(s.assumptions) {
			p := s.assumptions[s.decisionLevel()]
			switch s.value(p) {
			case lTrue:
				// Already implied: open an empty level so level k keeps
				// corresponding to assumption k.
				s.trailLim = append(s.trailLim, len(s.trail))
			case lFalse:
				// Contradicted by the earlier assumptions and the clause
				// database: unsat under assumptions, not a real Unsat.
				s.analyzeFinal(p)
				return Unsat, nil
			default:
				next = p
			}
		}
		if next == -1 {
			next = s.pickBranch()
			if next == -1 {
				return Sat, nil
			}
			if s.MaxDecisions > 0 && s.Decisions-s.decisionsAtStart >= s.MaxDecisions {
				return Unknown, ErrBudget
			}
			s.Decisions++
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, nil)
	}
}

// analyzeFinal computes the final conflict for a failing assumption p
// (whose complement is implied by the trail): the subset of assumptions
// that, together with the clause database, force ¬p. It walks the
// implication graph backwards from ¬p, collecting the decisions it reaches
// — at these levels every decision is an assumption.
func (s *Solver) analyzeFinal(p Lit) {
	s.conflictLits = append(s.conflictLits[:0], p)
	if s.decisionLevel() == 0 {
		return // forced at the root: assumption-independent
	}
	s.seen[p.Var()] = true
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		l := s.trail[i]
		v := l.Var()
		if !s.seen[v] {
			continue
		}
		if s.reason[v] == nil {
			s.conflictLits = append(s.conflictLits, l)
		} else {
			for _, q := range s.reason[v].lits {
				if s.level[q.Var()] > 0 {
					s.seen[q.Var()] = true
				}
			}
		}
		s.seen[v] = false
	}
	s.seen[p.Var()] = false
}

// ValueOf returns the model value of variable v after a Sat result.
func (s *Solver) ValueOf(v int) bool { return s.assigns[v] == lTrue }

// varHeap is a max-heap over variable activity with lazy deletion.
type varHeap struct {
	act   *[]float64
	items []int
	pos   map[int]int
}

func (h *varHeap) less(a, b int) bool { return (*h.act)[h.items[a]] > (*h.act)[h.items[b]] }

func (h *varHeap) swap(a, b int) {
	h.items[a], h.items[b] = h.items[b], h.items[a]
	h.pos[h.items[a]] = a
	h.pos[h.items[b]] = b
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	n := len(h.items)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			return
		}
		h.swap(i, c)
		i = c
	}
}

func (h *varHeap) push(v int) {
	if h.pos == nil {
		h.pos = map[int]int{}
	}
	if _, ok := h.pos[v]; ok {
		return
	}
	h.items = append(h.items, v)
	h.pos[v] = len(h.items) - 1
	h.up(len(h.items) - 1)
}

func (h *varHeap) pushIfAbsent(v int) { h.push(v) }

func (h *varHeap) pop() (int, bool) {
	if len(h.items) == 0 {
		return 0, false
	}
	v := h.items[0]
	last := len(h.items) - 1
	h.swap(0, last)
	h.items = h.items[:last]
	delete(h.pos, v)
	if last > 0 {
		h.down(0)
	}
	return v, true
}

func (h *varHeap) update(v int) {
	if i, ok := h.pos[v]; ok {
		h.up(i)
		h.down(h.pos[v])
		_ = i
	}
}
