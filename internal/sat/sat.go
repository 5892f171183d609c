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

// cref addresses a clause: an index into Solver.headers. Clauses are
// addressed by 32-bit refs rather than Go pointers, so the clause store,
// the watch lists and the reasons hold nothing the garbage collector must
// scan.
type cref uint32

// crefUndef is the reason of a decision, an assumption, a root-level unit
// and an unassigned variable, and propagate's "no conflict".
const crefUndef = ^cref(0)

// clause is a clause's header. Its literals are arena[start:start+size];
// a size of 0 marks a learned clause reduceDB deleted, whose literals the
// next compaction reclaims. Every clause keeps an activity, because
// bumping a problem clause past 1e20 rescales the learned ones.
type clause struct {
	start, size uint32
	activity    float64
}

// watchList is one literal's watch list: pool[off:off+n], with room for
// cap entries before it must move.
type watchList struct{ off, n, cap uint32 }

// minWatchRoom is the room a watch list gets when it first moves into the
// pool; a list that fills up moves to the end of the pool with twice its
// room.
const minWatchRoom = 4

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
	// arena holds the literals of every clause, problem and learned, and
	// headers their headers. wasted counts the arena literals of deleted
	// clauses.
	arena   []Lit
	headers []clause
	wasted  int
	clauses []cref // problem clauses, in the order added
	learnts []cref
	// watches[lit] lists the clauses watching lit, in pool. poolWaste
	// counts the pool entries that lists left behind when they moved.
	watches   []watchList
	pool      []cref
	poolWaste int
	assigns   []lbool
	level     []int32
	reason    []cref
	trail     []Lit
	trailLim  []int
	qhead     int

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

	seen    []bool
	toClear []int
	learnt  []Lit // analyze's learned-clause buffer

	// stamp and addBuf are AddClause's scratch: stamp[l] == stampGen
	// marks literal l as kept by the current call.
	stamp    []uint32
	stampGen uint32
	addBuf   []Lit

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
// Across SolveAssuming calls the learned database persists, so this is
// what a session carries from one of its queries into the next.
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// Okay reports that no top-level (assumption-independent) contradiction has
// been derived; once false, every future solve is Unsat.
func (s *Solver) Okay() bool { return s.ok }

// Stats is a snapshot of the solver's monotonic search counters. On a
// solver that answers several queries (a session) they accumulate across
// them, so per-query costs are deltas between two snapshots.
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
	if v == cap(s.assigns) {
		s.reserveVars(max(2*v, minRoom))
	}
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefUndef)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, lFalse)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, watchList{}, watchList{})
	s.stamp = append(s.stamp, 0, 0)
	s.order.push(v)
	return v
}

// minRoom is the capacity a growing slice of the solver starts from.
const minRoom = 16

// reserveVars moves every per-variable slice, and the trail and the heap,
// which never hold more entries than there are variables, to room for n
// variables. NewVar doubles n, so N variables cost O(log N) allocations
// per slice: append would grow a large slice by about a quarter at a
// time, copying and zeroing it several times over.
func (s *Solver) reserveVars(n int) {
	s.assigns = withCap(s.assigns, n)
	s.level = withCap(s.level, n)
	s.reason = withCap(s.reason, n)
	s.activity = withCap(s.activity, n)
	s.phase = withCap(s.phase, n)
	s.seen = withCap(s.seen, n)
	s.watches = withCap(s.watches, 2*n)
	s.stamp = withCap(s.stamp, 2*n)
	s.trail = withCap(s.trail, n)
	s.order.items = withCap(s.order.items, n)
	s.order.pos = withCap(s.order.pos, n)
}

// withCap returns xs moved to a slice of capacity n >= len(xs).
func withCap[T any](xs []T, n int) []T {
	out := make([]T, len(xs), n)
	copy(out, xs)
	return out
}

// grow returns xs with room for k more elements, doubling its capacity
// when it must move (see reserveVars).
func grow[T any](xs []T, k int) []T {
	if len(xs)+k <= cap(xs) {
		return xs
	}
	return withCap(xs, max(2*cap(xs), len(xs)+k, minRoom))
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
	// Normalize: drop duplicate and false literals, detect tautologies,
	// keeping the first occurrence of each literal in order. The kept
	// literals are collected in a reused buffer and stamped with this
	// call's generation, then copied into the arena.
	s.stampGen++
	if s.stampGen == 0 { // wrapped: clear stale stamps
		clear(s.stamp)
		s.stampGen = 1
	}
	out := s.addBuf[:0]
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
		if s.stamp[l.Flip()] == s.stampGen {
			return true // tautology
		}
		if s.stamp[l] != s.stampGen {
			s.stamp[l] = s.stampGen
			out = append(out, l)
		}
	}
	s.addBuf = out
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		// Root-level propagation of a unit over a large clause database
		// can run for a second, so it polls Ctx; a cancelled propagation
		// leaves the rest of the trail queued for the next one.
		s.uncheckedEnqueue(out[0], crefUndef)
		if s.propagate(poll.Stop(s.Ctx, 1)) != crefUndef {
			s.ok = false
			return false
		}
		return true
	}
	c := s.newClause(out)
	s.clauses = append(grow(s.clauses, 1), c)
	s.attach(c)
	return true
}

// newClause copies lits to the end of the arena and returns the new
// clause's ref. Learned clauses come from analyze's reused buffer, so
// neither kind costs an allocation of its own.
func (s *Solver) newClause(lits []Lit) cref {
	c := cref(len(s.headers))
	s.headers = append(grow(s.headers, 1), clause{start: uint32(len(s.arena)), size: uint32(len(lits))})
	s.arena = append(grow(s.arena, len(lits)), lits...)
	return c
}

// lits returns clause c's literals, capped at their own length, so
// swapping watches in place never reaches a neighbour's literals. The
// slice is valid until the next clause is added or the arena compacted.
func (s *Solver) lits(c cref) []Lit {
	h := s.headers[c]
	return s.arena[h.start : h.start+h.size : h.start+h.size]
}

func (s *Solver) attach(c cref) {
	lits := s.lits(c)
	s.watch(lits[0].Flip(), c)
	s.watch(lits[1].Flip(), c)
}

// watch appends c to lit's watch list, moving the list to the end of the
// pool with twice its room when it is full. A move can compact the pool,
// so a caller walking a list must re-read its offset after a watch.
func (s *Solver) watch(lit Lit, c cref) {
	w := &s.watches[lit]
	if w.n == w.cap {
		room := max(2*w.cap, minWatchRoom)
		if len(s.pool)+int(room) > cap(s.pool) {
			s.compactPool(int(room))
		}
		off := uint32(len(s.pool))
		s.pool = append(s.pool, s.pool[w.off:w.off+w.n]...)[:off+room]
		s.poolWaste += int(w.cap)
		w.off, w.cap = off, room
	}
	s.pool[w.off+w.n] = c
	w.n++
}

// compactPool copies every watch list, with its room, into a new pool
// with twice the space the lists and need more entries take, leaving out
// the entries moved lists left behind. Lists keep their order and length.
func (s *Solver) compactPool(need int) {
	live := len(s.pool) - s.poolWaste
	pool := make([]cref, 0, max(2*(live+need), 1024))
	for i := range s.watches {
		w := &s.watches[i]
		off := uint32(len(pool))
		pool = append(pool, s.pool[w.off:w.off+w.n]...)[:off+w.cap]
		w.off = off
	}
	s.pool = pool
	s.poolWaste = 0
}

func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
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
// crefUndef. A non-nil stop is polled before each queued literal; once it
// reports true, propagate returns crefUndef with the remaining literals
// still queued, so a caller that passes stop must not take crefUndef for
// a fixpoint.
//
// The watch list of p is walked by index and compacted in place: a new
// watch goes to another literal's list, but moving that list can
// reallocate or compact the pool, so every access re-reads the offset.
func (s *Solver) propagate(stop func() bool) cref {
	for s.qhead < len(s.trail) {
		if stop != nil && stop() {
			return crefUndef
		}
		p := s.trail[s.qhead]
		s.qhead++
		ws := &s.watches[p]
		n, kept := ws.n, uint32(0)
		confl := crefUndef
		for i := uint32(0); i < n; i++ {
			c := s.pool[ws.off+i]
			if confl != crefUndef {
				s.pool[ws.off+kept] = c
				kept++
				continue
			}
			lits := s.lits(c)
			// Ensure the false literal is lits[1].
			if lits[0] == p.Flip() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			if s.value(lits[0]) == lTrue {
				s.pool[ws.off+kept] = c
				kept++
				continue
			}
			// Find a new watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watch(lits[1].Flip(), c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			s.pool[ws.off+kept] = c
			kept++
			if s.value(lits[0]) == lFalse {
				confl = c
				continue
			}
			s.Props++
			s.uncheckedEnqueue(lits[0], c)
		}
		ws.n = kept
		if confl != crefUndef {
			s.qhead = len(s.trail)
			return confl
		}
	}
	return crefUndef
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

func (s *Solver) bumpClause(c cref) {
	h := &s.headers[c]
	h.activity += s.claInc
	if h.activity > 1e20 {
		for _, l := range s.learnts {
			s.headers[l].activity *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// analyze performs first-UIP conflict analysis and returns the learnt
// clause (asserting literal first), in a buffer the next call reuses, and
// the backjump level.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := append(s.learnt[:0], 0) // slot 0 reserved for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		s.bumpClause(confl)
		start := 0
		if p != -1 {
			start = 1
		}
		for _, q := range s.lits(confl)[start:] {
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
		if p != -1 && confl != crefUndef {
			// Put p first so the reason iteration skips it.
			if lits := s.lits(confl); lits[0] != p {
				for i, l := range lits {
					if l == p {
						lits[0], lits[i] = lits[i], lits[0]
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
	s.learnt = learnt
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
		s.reason[v] = crefUndef
		s.order.push(v)
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

// reduceDB deletes every learned clause whose activity is below the mean
// activity of the learned clauses, unless it is a reason or binary, and
// compacts the arena once more than half of it is garbage.
func (s *Solver) reduceDB() {
	if len(s.learnts) < 100 {
		return
	}
	lim := meanActivity(s.headers, s.learnts)
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if h := &s.headers[c]; s.isReason(c) || h.activity >= lim || h.size <= 2 {
			kept = append(kept, c)
		} else {
			s.detach(c)
			s.wasted += int(h.size)
			h.size = 0
		}
	}
	s.learnts = kept
	if 2*s.wasted > len(s.arena) {
		s.compact()
	}
}

func meanActivity(headers []clause, cs []cref) float64 {
	if len(cs) == 0 {
		return 0
	}
	var sum float64
	for _, c := range cs {
		sum += headers[c].activity
	}
	return sum / float64(len(cs))
}

func (s *Solver) isReason(c cref) bool {
	v := s.lits(c)[0].Var()
	return s.assigns[v] != lUndef && s.reason[v] == c
}

func (s *Solver) detach(c cref) {
	lits := s.lits(c)
	for _, w := range [2]Lit{lits[0].Flip(), lits[1].Flip()} {
		ws := &s.watches[w]
		list := s.pool[ws.off : ws.off+ws.n]
		for i, x := range list {
			if x == c {
				list[i] = list[len(list)-1]
				ws.n--
				break
			}
		}
	}
}

// compact copies the live clauses into a new arena and header table in
// their order, then relocates the clause lists, the watches and the
// reasons. A deleted clause is neither watched nor a reason, so its ref
// appears nowhere.
func (s *Solver) compact() {
	arena := make([]Lit, 0, len(s.arena)-s.wasted)
	headers := make([]clause, 0, len(s.clauses)+len(s.learnts))
	for i := range s.headers {
		h := &s.headers[i]
		if h.size == 0 {
			continue
		}
		headers = append(headers, clause{start: uint32(len(arena)), size: h.size, activity: h.activity})
		arena = append(arena, s.arena[h.start:h.start+h.size]...)
		h.start = uint32(len(headers) - 1) // the forwarding ref
	}
	relocate := func(cs []cref) {
		for i, c := range cs {
			cs[i] = cref(s.headers[c].start)
		}
	}
	relocate(s.clauses)
	relocate(s.learnts)
	for _, w := range s.watches {
		relocate(s.pool[w.off : w.off+w.n])
	}
	for v, r := range s.reason {
		if r != crefUndef {
			s.reason[v] = cref(s.headers[r].start)
		}
	}
	s.arena, s.headers, s.wasted = arena, headers, 0
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
	if s.propagate(nil) != crefUndef {
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
	conflictsThisRestart := int64(0)
	checkCounter := 0
	stop := poll.Stop(s.Ctx, 1)
	for {
		if stop != nil && stop() {
			return Unknown, ErrBudget
		}
		confl := s.propagate(nil)
		if confl != crefUndef {
			s.Conflicts++
			conflictsThisRestart++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat, nil
			}
			learnt, back := s.analyze(confl)
			s.cancelUntil(back)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], crefUndef)
			} else {
				c := s.newClause(learnt)
				s.learnts = append(grow(s.learnts, 1), c)
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
		s.uncheckedEnqueue(next, crefUndef)
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
		if s.reason[v] == crefUndef {
			s.conflictLits = append(s.conflictLits, l)
		} else {
			for _, q := range s.lits(s.reason[v]) {
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

// varHeap is a max-heap over variable activity with lazy deletion. pos
// holds each variable's index in items, -1 when it is not in the heap.
type varHeap struct {
	act   *[]float64
	items []int
	pos   []int32
}

func (h *varHeap) less(a, b int) bool { return (*h.act)[h.items[a]] > (*h.act)[h.items[b]] }

func (h *varHeap) swap(a, b int) {
	h.items[a], h.items[b] = h.items[b], h.items[a]
	h.pos[h.items[a]] = int32(a)
	h.pos[h.items[b]] = int32(b)
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
	for len(h.pos) <= v {
		h.pos = append(h.pos, -1)
	}
	if h.pos[v] >= 0 {
		return
	}
	h.items = append(h.items, v)
	h.pos[v] = int32(len(h.items) - 1)
	h.up(len(h.items) - 1)
}

func (h *varHeap) pop() (int, bool) {
	if len(h.items) == 0 {
		return 0, false
	}
	v := h.items[0]
	last := len(h.items) - 1
	h.swap(0, last)
	h.items = h.items[:last]
	h.pos[v] = -1
	if last > 0 {
		h.down(0)
	}
	return v, true
}

func (h *varHeap) update(v int) {
	if h.pos[v] >= 0 {
		h.up(int(h.pos[v]))
		h.down(int(h.pos[v]))
	}
}
