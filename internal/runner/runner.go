// Package runner provides the bounded-concurrency primitives behind the
// evaluation pipeline: an order-preserving parallel map over a slice, a
// heterogeneous task group, and per-key singleflight memoization. All
// experiment fan-out (examples within a task run, model×dataset cells,
// benchmark build stages, equivalence-check seeds) goes through this package
// so that results stay deterministic regardless of goroutine scheduling.
// Budgets are per-Map call: nested fan-out (a prefetch whose cells each run
// their own Map) multiplies in-flight goroutines, which is intentional —
// goroutines are cheap, OS-thread parallelism stays capped at GOMAXPROCS by
// the Go runtime, and per-call budgets avoid the nested-pool deadlocks a
// single shared semaphore would invite.
package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

type parallelismKey struct{}

// WithParallelism returns a context carrying a worker budget for runner
// calls that do not specify one explicitly. n <= 0 leaves the default
// (GOMAXPROCS) in effect.
func WithParallelism(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, parallelismKey{}, n)
}

// fromContext returns the worker budget carried by ctx, or 0 when none is
// set.
func fromContext(ctx context.Context) int {
	if n, ok := ctx.Value(parallelismKey{}).(int); ok {
		return n
	}
	return 0
}

// Parallelism returns the effective worker budget for ctx: the carried
// value when positive, else GOMAXPROCS. Use this when handing the budget to
// code outside runner (e.g. a struct field) so that "unset" keeps meaning
// "default" rather than "sequential".
func Parallelism(ctx context.Context) int {
	return resolve(ctx, 0)
}

// resolve picks the effective worker count: the explicit argument if
// positive, else the context's budget, else GOMAXPROCS.
func resolve(ctx context.Context, n int) int {
	if n > 0 {
		return n
	}
	if c := fromContext(ctx); c > 0 {
		return c
	}
	return runtime.GOMAXPROCS(0)
}

// Map applies fn to every item with at most `parallel` concurrent workers
// (0 means the context's budget, or GOMAXPROCS) and returns the results in
// input order. The first error cancels the remaining work; among the items
// that did run, the error with the lowest index is returned, so error
// reporting matches a sequential run whenever fn is deterministic. fn
// receives a context that is cancelled once any item fails.
func Map[T, R any](ctx context.Context, parallel int, items []T, fn func(ctx context.Context, idx int, item T) (R, error)) ([]R, error) {
	if len(items) == 0 {
		return nil, ctx.Err()
	}
	workers := resolve(ctx, parallel)
	if workers > len(items) {
		workers = len(items)
	}
	out := make([]R, len(items))
	if workers <= 1 {
		for i, item := range items {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := fn(ctx, i, item)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		errIdx   = len(items)
		wg       sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < errIdx {
			errIdx, firstErr = i, err
		}
		mu.Unlock()
		cancel()
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
				if err := cctx.Err(); err != nil {
					return
				}
				r, err := fn(cctx, i, items[i])
				if err != nil {
					fail(i, err)
					return
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Flight memoizes the result of an expensive computation per key, coalescing
// concurrent duplicate requests onto a single execution. Unlike classic
// singleflight, successful results are cached — for the lifetime of the
// Flight by default, or up to SetLimit entries with least-recently-used
// eviction. Failed calls are forgotten so a later request retries.
type Flight[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*flightCall[V]

	limit     int // 0 = unbounded
	evictions int64
	// LRU bookkeeping over *completed* entries: mru is most recent. Entries
	// still in flight are not on the list (they cannot be evicted, which is
	// what preserves coalescing under any limit).
	lru map[K]*lruEntry[K]
	mru *lruEntry[K]
	lrs *lruEntry[K] // least recent
}

type lruEntry[K comparable] struct {
	key        K
	prev, next *lruEntry[K]
}

type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// SetLimit caps the number of cached completed entries; the least recently
// used entry is evicted when the cap is exceeded. 0 (the default) means
// unbounded. In-flight computations never count against the cap and are
// never evicted, so concurrent duplicate requests still coalesce. Call
// before or during use; shrinking the limit evicts immediately.
func (f *Flight[K, V]) SetLimit(n int) {
	f.mu.Lock()
	f.limit = n
	f.evictLocked()
	f.mu.Unlock()
}

// Evictions reports how many completed entries have been evicted to honor
// the limit.
func (f *Flight[K, V]) Evictions() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.evictions
}

// Do returns the cached value for key, or runs fn to compute it. Concurrent
// calls for the same key block until the single in-flight fn returns and
// share its result.
func (f *Flight[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	v, _, err := f.DoShared(key, fn)
	return v, err
}

// DoShared is Do, additionally reporting whether the result was shared —
// served from the completed cache or coalesced onto another caller's
// in-flight computation — rather than computed by this call. The flag is
// what lets callers (e.g. the serve layer's metrics) count coalescing hits.
func (f *Flight[K, V]) DoShared(key K, fn func() (V, error)) (V, bool, error) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[K]*flightCall[V])
	}
	if c, ok := f.calls[key]; ok {
		f.touchLocked(key)
		f.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	c.val, c.err = fn()
	f.mu.Lock()
	if c.err != nil {
		delete(f.calls, key)
	} else {
		f.insertLocked(key)
		f.evictLocked()
	}
	f.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}

// touchLocked marks an already-listed key as most recently used. Hits on
// still-in-flight calls are not listed yet; their entry is added when the
// call completes. Callers hold f.mu.
func (f *Flight[K, V]) touchLocked(key K) {
	if _, ok := f.lru[key]; ok {
		f.insertLocked(key)
	}
}

// insertLocked puts key at the most-recently-used position, adding it to
// the list if absent. Callers hold f.mu.
func (f *Flight[K, V]) insertLocked(key K) {
	if f.lru == nil {
		f.lru = make(map[K]*lruEntry[K])
	}
	e, ok := f.lru[key]
	if !ok {
		e = &lruEntry[K]{key: key}
		f.lru[key] = e
	} else {
		f.unlinkLocked(e)
	}
	e.prev = nil
	e.next = f.mru
	if f.mru != nil {
		f.mru.prev = e
	}
	f.mru = e
	if f.lrs == nil {
		f.lrs = e
	}
}

func (f *Flight[K, V]) unlinkLocked(e *lruEntry[K]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if f.mru == e {
		f.mru = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if f.lrs == e {
		f.lrs = e.prev
	}
	e.prev, e.next = nil, nil
}

// evictLocked drops least-recently-used completed entries until the cache
// honors the limit. Callers hold f.mu.
func (f *Flight[K, V]) evictLocked() {
	if f.limit <= 0 {
		return
	}
	for len(f.lru) > f.limit && f.lrs != nil {
		victim := f.lrs
		f.unlinkLocked(victim)
		delete(f.lru, victim.key)
		delete(f.calls, victim.key)
		f.evictions++
	}
}

// Len reports the number of successfully completed or in-flight entries.
func (f *Flight[K, V]) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}
