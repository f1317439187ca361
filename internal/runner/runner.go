// Package runner provides the bounded-concurrency primitives behind the
// evaluation pipeline: an order-preserving streaming map over a slice
// (MapStream, the package's one worker pool), its collecting form (Map) and
// continue-on-error form (MapStreamPartial), and per-key singleflight
// memoization (Flight). All experiment fan-out (examples within a task run,
// model×dataset cells, benchmark build stages) goes through this package so
// that results stay deterministic regardless of goroutine scheduling.
// Budgets are per-call: nested fan-out (a prefetch whose cells each run
// their own Map) multiplies in-flight goroutines, which is intentional —
// goroutines are cheap, OS-thread parallelism stays capped at GOMAXPROCS by
// the Go runtime, and per-call budgets avoid the nested-pool deadlocks a
// single shared semaphore would invite.
package runner

import (
	"context"
	"runtime"
	"sync"
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
// receives a context that is cancelled once any item fails. Map is MapStream
// with a sink that fills the result slice.
func Map[T, R any](ctx context.Context, parallel int, items []T, fn func(ctx context.Context, idx int, item T) (R, error)) ([]R, error) {
	if len(items) == 0 {
		return nil, ctx.Err()
	}
	out := make([]R, len(items))
	if err := MapStream(ctx, parallel, items, fn, func(i int, r R) error {
		out[i] = r
		return nil
	}); err != nil {
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
	calls map[K]*flightCall[K, V]

	limit     int // 0 = unbounded
	evictions int64
	// LRU list threaded through the *completed* calls: mru is most recent,
	// lrs least. Calls still in flight are not on the list (they cannot be
	// evicted, which is what preserves coalescing under any limit).
	mru, lrs *flightCall[K, V]
	listed   int
}

// flightCall is one computation; waiters block on wg, which the computing
// caller releases once val and err are set. A completed call is also its
// own LRU list node.
type flightCall[K comparable, V any] struct {
	wg         sync.WaitGroup
	val        V
	err        error
	key        K
	prev, next *flightCall[K, V]
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
		f.calls = make(map[K]*flightCall[K, V])
	}
	if c, ok := f.calls[key]; ok {
		// A hit on a still-in-flight call is not listed yet; the call is
		// listed when it completes.
		if f.listedLocked(c) {
			f.unlinkLocked(c)
			f.pushLocked(c)
		}
		f.mu.Unlock()
		c.wg.Wait()
		return c.val, true, c.err
	}
	c := &flightCall[K, V]{key: key}
	c.wg.Add(1)
	f.calls[key] = c
	f.mu.Unlock()

	c.val, c.err = fn()
	f.mu.Lock()
	if c.err != nil {
		delete(f.calls, key)
	} else {
		f.pushLocked(c)
		f.evictLocked()
	}
	f.mu.Unlock()
	c.wg.Done()
	return c.val, false, c.err
}

// listedLocked reports whether c is on the LRU list. Callers hold f.mu.
func (f *Flight[K, V]) listedLocked(c *flightCall[K, V]) bool {
	return c.prev != nil || f.mru == c
}

// pushLocked puts an unlisted call at the most-recently-used position.
// Callers hold f.mu.
func (f *Flight[K, V]) pushLocked(c *flightCall[K, V]) {
	c.next = f.mru
	if f.mru != nil {
		f.mru.prev = c
	}
	f.mru = c
	if f.lrs == nil {
		f.lrs = c
	}
	f.listed++
}

// unlinkLocked takes a listed call off the LRU list. Callers hold f.mu.
func (f *Flight[K, V]) unlinkLocked(c *flightCall[K, V]) {
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		f.mru = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	} else {
		f.lrs = c.prev
	}
	c.prev, c.next = nil, nil
	f.listed--
}

// evictLocked drops least-recently-used completed entries until the cache
// honors the limit. Callers hold f.mu.
func (f *Flight[K, V]) evictLocked() {
	if f.limit <= 0 {
		return
	}
	for f.listed > f.limit {
		victim := f.lrs
		f.unlinkLocked(victim)
		delete(f.calls, victim.key)
		f.evictions++
	}
}

// Range calls fn for every completed entry, most recently used first. fn
// runs under the Flight's lock, so it must not call back into the Flight.
func (f *Flight[K, V]) Range(fn func(key K, val V)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for c := f.mru; c != nil; c = c.next {
		fn(c.key, c.val)
	}
}

// Len reports the number of successfully completed or in-flight entries.
func (f *Flight[K, V]) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}
