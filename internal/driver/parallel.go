package driver

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"fusion/internal/failure"
)

// ParallelCheck runs fn(i) for every i in [0, n) on up to workers
// goroutines and returns the results indexed by i, so the output is
// identical whatever the worker count. With workers <= 1 (or n < 2) it
// runs inline.
//
// Every work item runs under recover: a panicking fn(i) leaves its
// result slot at the zero value and records a *failure.UnitFailure in
// the parallel failures slice instead of taking down the batch. The
// failure's Unit and Stage are generic ("item i" / "check"); callers
// that know better names rewrite them. Both slices are index-stable,
// so which items fail is independent of the worker count.
//
// Every index is evaluated even after ctx is cancelled: fn is expected
// to observe ctx itself and return a cheap partial result (engines
// return sat.Unknown verdicts), which keeps slots aligned with inputs
// instead of dropping work silently. ParallelCheck returns only after
// every worker has finished, so callers never leak a checking
// goroutine.
func ParallelCheck[T any](ctx context.Context, n, workers int, fn func(i int) T) ([]T, []*failure.UnitFailure) {
	return ParallelCheckWorkers(ctx, n, workers, func(i, _ int) T { return fn(i) })
}

// ParallelCheckWorkers is ParallelCheck with the worker slot index exposed:
// fn(i, w) runs work item i on worker w, where 0 <= w < max(1, min(n,
// workers)). A worker runs its items strictly sequentially. Which items
// share a worker depends on the worker count and scheduling, so w may
// label cost (trace tracks) but must never influence results.
func ParallelCheckWorkers[T any](ctx context.Context, n, workers int, fn func(i, w int) T) ([]T, []*failure.UnitFailure) {
	out := make([]T, n)
	fails := make([]*failure.UnitFailure, n)
	run := func(i, w int) {
		defer func() {
			if v := recover(); v != nil {
				fails[i] = failure.FromPanicAt(fmt.Sprintf("item %d", i), "check", v, "driver.ParallelCheck")
			}
		}()
		out[i] = fn(i, w)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i, 0)
		}
		return out, fails
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i, w)
			}
		}(w)
	}
	wg.Wait()
	return out, fails
}
