// Package poll is the one cooperative-cancellation primitive the
// long-running phases share: the absint fixpoint and refuters, the
// concrete-execution probe, preprocessing, and bit-blasting. Go cannot
// preempt a goroutine from outside, so a per-candidate deadline means
// what it says only if every phase between two context checks is short;
// each phase calls the predicate Stop builds at a bounded cadence.
package poll

import "context"

// Stop builds a cheap latching stop predicate over ctx: the context's
// Done channel is consulted on every every-th call (every <= 1: on every
// call), without locking, and once cancellation is observed the predicate
// stays true. A context that can never be cancelled — nil, or one whose
// Done channel is nil such as context.Background — yields a nil
// predicate, so callers test `stop != nil && stop()` and the unbounded
// default path pays one nil check per poll site.
func Stop(ctx context.Context, every int) func() bool {
	if ctx == nil {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		return nil
	}
	n, hit := 0, false
	return func() bool {
		if hit {
			return true
		}
		if n++; every > 1 && n%every != 0 {
			return false
		}
		select {
		case <-done:
			hit = true
		default:
		}
		return hit
	}
}
