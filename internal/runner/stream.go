package runner

import (
	"context"
	"sync"
	"sync/atomic"
)

// MapStream applies fn to every item with at most `parallel` concurrent
// workers (0 means the context's budget, or GOMAXPROCS) and delivers results
// to sink strictly in input order, each as soon as its whole prefix has
// completed. It is the package's one worker pool: Map collects its sink
// calls into a slice, and MapStreamPartial decorates fn and sink to keep
// going past failures.
//
// Memory is bounded by a reorder window of a few multiples of the worker
// count, not by the result set: a worker that runs ahead of the delivery
// frontier (because an early item is slow) blocks before computing its next
// item until the frontier catches up, so at most O(workers) completed
// results are ever buffered.
//
// The sink is never called concurrently with itself, and never called for an
// index at or beyond the first failing index, so a consumer observes a clean
// prefix of results followed by at most one error. The first error (lowest
// index among items that ran, as a sequential run would report) cancels
// remaining work; an error returned by sink likewise cancels remaining work
// and is returned.
func MapStream[T, R any](ctx context.Context, parallel int, items []T, fn func(ctx context.Context, idx int, item T) (R, error), sink func(idx int, r R) error) error {
	if len(items) == 0 {
		return ctx.Err()
	}
	workers := resolve(ctx, parallel)
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		for i, item := range items {
			if err := ctx.Err(); err != nil {
				return err
			}
			r, err := fn(ctx, i, item)
			if err != nil {
				return err
			}
			if err := sink(i, r); err != nil {
				return err
			}
		}
		return nil
	}

	// The reorder window caps how far any worker may run ahead of the
	// delivery frontier. 4× workers keeps the pool busy through moderately
	// uneven item costs while bounding buffered results.
	window := 4 * workers
	if window < 16 {
		window = 16
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		mu       sync.Mutex // guards pending, flushed, errIdx, firstErr, and sink calls
		pending  = make(map[int]R, window)
		flushed  int
		firstErr error
		errIdx   = len(items)
		wg       sync.WaitGroup
	)
	cond := sync.NewCond(&mu)
	// Workers blocked on the window must also wake on cancellation —
	// including a parent-context cancellation no fail() call announces.
	go func() {
		<-cctx.Done()
		mu.Lock()
		cond.Broadcast()
		mu.Unlock()
	}()
	fail := func(i int, err error) {
		mu.Lock()
		if i < errIdx {
			errIdx, firstErr = i, err
		}
		mu.Unlock()
		cancel() // wakes window waiters via the watcher goroutine
	}
	// deliver registers a completed result and flushes the contiguous prefix
	// through the sink. Sink runs are serialized under mu, which both keeps
	// delivery in index order and prevents concurrent sink invocations.
	deliver := func(i int, r R) {
		mu.Lock()
		defer mu.Unlock()
		pending[i] = r
		for {
			if flushed >= errIdx {
				return
			}
			v, ok := pending[flushed]
			if !ok {
				return
			}
			delete(pending, flushed)
			if err := sink(flushed, v); err != nil {
				if flushed < errIdx {
					errIdx, firstErr = flushed, err
				}
				cancel()
				return
			}
			flushed++
			cond.Broadcast() // frontier advanced; window waiters may proceed
		}
	}
	// admit blocks until index i fits in the reorder window (or the run is
	// cancelled). Returns false when the worker should exit instead.
	admit := func(i int) bool {
		mu.Lock()
		defer mu.Unlock()
		for i >= flushed+window && cctx.Err() == nil {
			cond.Wait()
		}
		return cctx.Err() == nil
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				if !admit(i) {
					return
				}
				r, err := fn(cctx, i, items[i])
				if err != nil {
					fail(i, err)
					return
				}
				deliver(i, r)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
