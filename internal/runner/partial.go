package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// This file adds the partial-failure mode of the map primitives: instead of
// cancelling the whole fan-out on the first error (Map/MapStream semantics),
// MapStreamPartial records per-index errors and keeps going, so one dead
// completion costs one example rather than one run. A failure
// budget acts as the trip wire that keeps a fully-dead backend from burning
// through an entire dataset: once more than MaxFailures items have failed,
// remaining work is cancelled and the run returns a *BudgetError.

// ItemError records one failed item of a partial run.
type ItemError struct {
	Index int
	Err   error
}

// Error implements error.
func (e ItemError) Error() string { return fmt.Sprintf("item %d: %v", e.Index, e.Err) }

// Unwrap exposes the item's underlying error to errors.Is/As.
func (e ItemError) Unwrap() error { return e.Err }

// BudgetError reports that a partial run tripped its failure budget: more
// than Budget items failed. Last is the failure that tripped the wire.
type BudgetError struct {
	Budget   int
	Failures int
	Last     error
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("runner: failure budget exceeded (%d failures > budget %d): %v", e.Failures, e.Budget, e.Last)
}

// Unwrap exposes the tripping failure to errors.Is/As.
func (e *BudgetError) Unwrap() error { return e.Last }

// outcome carries one item's result or failure through the ordering
// machinery of MapStream, which only ever sees successes.
type outcome[R any] struct {
	val R
	err error
}

// MapStreamPartial is MapStream in continue-on-error mode: fn failures are
// delivered to sink as per-index errors (r is the zero value then) instead
// of aborting the run, and the next item proceeds under an uncancelled
// context. Successes and failures alike arrive strictly in input order, each
// as soon as its whole prefix has completed, and the sink is never called
// concurrently with itself.
//
// maxFailures is the failure budget: once more than maxFailures items have
// failed, remaining work is cancelled and the run returns a *BudgetError
// (<= 0 means unlimited — every item runs regardless of failures). Which
// failure trips the wire depends on completion order under parallelism, but
// the budget bounds the wasted work either way.
//
// A sink error or a parent-context cancellation still aborts the run as in
// MapStream. The returned error is nil when every item was attempted —
// even if all of them failed.
func MapStreamPartial[T, R any](ctx context.Context, parallel int, items []T, maxFailures int, fn func(ctx context.Context, idx int, item T) (R, error), sink func(idx int, r R, err error) error) error {
	var failures atomic.Int64
	var tripped atomic.Pointer[BudgetError]
	err := MapStream(ctx, parallel, items, func(ctx context.Context, idx int, item T) (outcome[R], error) {
		r, err := fn(ctx, idx, item)
		if err == nil {
			return outcome[R]{val: r}, nil
		}
		// Don't convert a run cancellation into an error row: the run is
		// over (budget tripped elsewhere, sink failed, or the caller hung
		// up), and the abort path reports why.
		if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
			return outcome[R]{}, err
		}
		if n := int(failures.Add(1)); maxFailures > 0 && n > maxFailures {
			be := &BudgetError{Budget: maxFailures, Failures: n, Last: ItemError{Index: idx, Err: err}}
			tripped.CompareAndSwap(nil, be)
			return outcome[R]{}, be
		}
		return outcome[R]{err: err}, nil
	}, func(idx int, o outcome[R]) error {
		return sink(idx, o.val, o.err)
	})
	if err != nil {
		// The trip cancels the run, so workers at lower indices may report
		// the cancellation first; the budget error is still the cause.
		if be := tripped.Load(); be != nil {
			return be
		}
		return err
	}
	return nil
}
