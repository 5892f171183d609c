package driver

import "fusion/internal/solver"

// Sessions is a pool of warm solver sessions sized for a ParallelCheck
// worker pool: slot w belongs exclusively to worker w (pool-affine, never
// shared), so sessions need no locking — ParallelCheckWorkers runs each
// worker's items sequentially. Because which items land on which worker
// depends on the worker count and scheduling, a session may only affect the
// COST of a check, never its verdict; that is what keeps analysis output
// byte-identical for any -workers value.
type Sessions struct {
	pool []*solver.Session
	cfg  solver.SessionConfig
}

// NewSessions builds n sessions with the given config. Size n with
// PoolSize so every worker slot has one.
func NewSessions(n int, cfg solver.SessionConfig) *Sessions {
	p := make([]*solver.Session, n)
	for i := range p {
		p[i] = solver.NewSession(cfg)
	}
	return &Sessions{pool: p, cfg: cfg}
}

// Len returns the number of worker slots.
func (s *Sessions) Len() int { return len(s.pool) }

// At returns worker w's session.
func (s *Sessions) At(w int) *solver.Session { return s.pool[w] }

// Replace installs a fresh cold session in slot w and returns it: the
// retry ladder's fresh rung, which must not trust anything the crashed
// attempt left behind.
func (s *Sessions) Replace(w int) *solver.Session {
	s.pool[w] = solver.NewSession(s.cfg)
	return s.pool[w]
}

// Stats aggregates the pool's cumulative counters.
func (s *Sessions) Stats() (queries, cacheHits, evictions, resets int64) {
	for _, ss := range s.pool {
		queries += ss.Queries
		cacheHits += ss.CacheHits
		evictions += ss.Evictions
		resets += ss.Resets
	}
	return
}
