package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// Partial mode must deliver every index exactly once, in input order, with
// error rows interleaved at exactly the failing indices — at parallel 1 and
// at parallel 8 alike.
func TestMapStreamPartialInterleavedOrdered(t *testing.T) {
	const n = 120
	items := make([]int, n)
	boom := errors.New("boom")
	failing := map[int]bool{0: true, 7: true, 8: true, 50: true, n - 1: true}
	for _, workers := range []int{1, 8} {
		var rows, errRows []int
		next := 0
		err := MapStreamPartial(context.Background(), workers, items, 0, func(_ context.Context, idx int, _ int) (int, error) {
			time.Sleep(time.Duration(rand.Intn(200)) * time.Microsecond)
			if failing[idx] {
				return 0, fmt.Errorf("idx %d: %w", idx, boom)
			}
			return idx * 2, nil
		}, func(idx int, r int, err error) error {
			if idx != next {
				t.Fatalf("workers=%d: delivery out of order: got %d, want %d", workers, idx, next)
			}
			next++
			if err != nil {
				if !errors.Is(err, boom) {
					t.Fatalf("workers=%d: idx %d unexpected error %v", workers, idx, err)
				}
				errRows = append(errRows, idx)
				return nil
			}
			if r != idx*2 {
				t.Fatalf("workers=%d: idx %d got %d", workers, idx, r)
			}
			rows = append(rows, idx)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(rows)+len(errRows) != n {
			t.Fatalf("workers=%d: %d rows + %d errors, want %d total", workers, len(rows), len(errRows), n)
		}
		if len(errRows) != len(failing) {
			t.Fatalf("workers=%d: error rows %v, want indices of %v", workers, errRows, failing)
		}
		for _, idx := range errRows {
			if !failing[idx] {
				t.Fatalf("workers=%d: spurious error row at %d", workers, idx)
			}
		}
	}
}

// The failure budget must trip the run: more than maxFailures failures
// cancel remaining work and surface a *BudgetError, terminating promptly
// even though every item of a fully-dead backend would fail.
func TestMapStreamPartialBudgetTrips(t *testing.T) {
	const n, budget = 10_000, 5
	items := make([]int, n)
	dead := errors.New("backend dead")
	var attempts atomic.Int64
	for _, workers := range []int{1, 8} {
		attempts.Store(0)
		err := MapStreamPartial(context.Background(), workers, items, budget, func(_ context.Context, idx int, _ int) (int, error) {
			attempts.Add(1)
			return 0, dead
		}, func(idx int, _ int, err error) error {
			if err == nil {
				t.Fatalf("workers=%d: success row at %d from a dead backend", workers, idx)
			}
			return nil
		})
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("workers=%d: err = %v, want *BudgetError", workers, err)
		}
		if !errors.Is(err, dead) {
			t.Fatalf("workers=%d: budget error does not wrap the cause: %v", workers, err)
		}
		if be.Budget != budget || be.Failures <= budget {
			t.Fatalf("workers=%d: BudgetError = %+v", workers, be)
		}
		// Prompt termination: the pool must stop near the trip point, not
		// grind through the whole dataset.
		if got := attempts.Load(); got > int64(budget+4*workers+64) {
			t.Fatalf("workers=%d: %d attempts after budget %d tripped", workers, got, budget)
		}
	}
}

// With an unlimited budget, a run where every item fails still attempts
// everything and reports a nil run error: all-failed is a complete run.
func TestMapStreamPartialAllFail(t *testing.T) {
	items := make([]int, 64)
	var errRows int
	err := MapStreamPartial(context.Background(), 8, items, 0, func(_ context.Context, idx int, _ int) (int, error) {
		return 0, errors.New("nope")
	}, func(_ int, _ int, err error) error {
		if err != nil {
			errRows++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run error = %v, want nil", err)
	}
	if errRows != len(items) {
		t.Fatalf("%d error rows, want %d", errRows, len(items))
	}
}

// A sink error still aborts the whole run, exactly as in MapStream.
func TestMapStreamPartialSinkError(t *testing.T) {
	items := make([]int, 100)
	stop := errors.New("stop")
	var calls int
	err := MapStreamPartial(context.Background(), 4, items, 0, func(_ context.Context, idx int, _ int) (int, error) {
		return idx, nil
	}, func(idx int, _ int, _ error) error {
		calls++
		if idx == 10 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want stop", err)
	}
	if calls != 11 {
		t.Fatalf("sink called %d times, want 11", calls)
	}
}

// Parent-context cancellation aborts the run with the context error rather
// than recording cancellations as per-item failures.
func TestMapStreamPartialParentCancel(t *testing.T) {
	items := make([]int, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	var delivered atomic.Int64
	err := MapStreamPartial(ctx, 4, items, 0, func(ctx context.Context, idx int, _ int) (int, error) {
		if idx == 20 {
			cancel()
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return idx, nil
	}, func(_ int, _ int, err error) error {
		if err != nil {
			t.Fatalf("cancellation surfaced as an error row: %v", err)
		}
		delivered.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
