package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 500)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 8, 64} {
		out, err := Map(context.Background(), workers, items, func(_ context.Context, idx int, v int) (int, error) {
			return v * v, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != len(items) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(out), len(items))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), 4, nil, func(_ context.Context, _ int, v int) (int, error) {
		return v, nil
	})
	if err != nil || out != nil {
		t.Fatalf("Map(nil) = %v, %v; want nil, nil", out, err)
	}
}

func TestMapErrorPropagation(t *testing.T) {
	items := make([]int, 200)
	boom := errors.New("boom")
	for _, workers := range []int{1, 8} {
		var calls atomic.Int64
		_, err := Map(context.Background(), workers, items, func(_ context.Context, idx int, _ int) (int, error) {
			calls.Add(1)
			if idx >= 10 {
				return 0, fmt.Errorf("item %d: %w", idx, boom)
			}
			return idx, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		if int(calls.Load()) == len(items) && workers > 1 {
			t.Errorf("workers=%d: error did not cancel remaining work", workers)
		}
	}
}

// The reported error must be the lowest-index failure among the items that
// ran, matching sequential semantics for deterministic fns.
func TestMapErrorLowestIndex(t *testing.T) {
	items := make([]int, 64)
	_, err := Map(context.Background(), 8, items, func(_ context.Context, idx int, _ int) (int, error) {
		if idx%2 == 1 {
			time.Sleep(time.Duration(idx) * time.Microsecond)
			return 0, fmt.Errorf("fail@%d", idx)
		}
		return idx, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	var got int
	if _, scanErr := fmt.Sscanf(err.Error(), "fail@%d", &got); scanErr != nil {
		t.Fatalf("unexpected error %q", err)
	}
	// The reported index must be a genuine failure (odd), and with 8 workers
	// the initial wave claims indexes 0..7 before any failure can cancel,
	// so the winner is one of the low odd indexes, never from the tail.
	if got%2 != 1 || got > 7 {
		t.Errorf("reported failure index %d, want a low odd index", got)
	}
}

func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	items := make([]int, 1000)
	var calls atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Map(ctx, 4, items, func(c context.Context, idx int, _ int) (int, error) {
			calls.Add(1)
			select {
			case <-c.Done():
			case <-time.After(5 * time.Millisecond):
			}
			return idx, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	}()
	cancel()
	<-done
	if int(calls.Load()) == len(items) {
		t.Error("cancellation did not stop the pool")
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	items := make([]int, 100)
	_, err := Map(context.Background(), workers, items, func(_ context.Context, idx int, _ int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		cur.Add(-1)
		return idx, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent workers, budget %d", p, workers)
	}
}

func TestWithParallelism(t *testing.T) {
	ctx := WithParallelism(context.Background(), 7)
	if got := fromContext(ctx); got != 7 {
		t.Fatalf("fromContext = %d, want 7", got)
	}
	if got := fromContext(context.Background()); got != 0 {
		t.Fatalf("fromContext(background) = %d, want 0", got)
	}
	// Budget flows through to Map when parallel arg is 0.
	var cur, peak atomic.Int64
	items := make([]int, 50)
	_, err := Map(WithParallelism(context.Background(), 2), 0, items, func(_ context.Context, idx int, _ int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(50 * time.Microsecond)
		cur.Add(-1)
		return idx, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("context budget 2 exceeded: peak %d", p)
	}
}

func TestFlightMemoizes(t *testing.T) {
	var f Flight[string, int]
	var calls atomic.Int64
	const n = 32
	results := make([]int, n)
	errs := make([]error, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			results[i], errs[i] = f.Do("k", func() (int, error) {
				calls.Add(1)
				time.Sleep(time.Millisecond)
				return 42, nil
			})
			done <- i
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil || results[i] != 42 {
			t.Fatalf("call %d: got %d, %v", i, results[i], errs[i])
		}
	}
	if c := calls.Load(); c != 1 {
		t.Errorf("fn ran %d times, want 1 (coalesced)", c)
	}
	if !f.Cached("k") {
		t.Error("Cached(k) = false after success")
	}
	if f.Cached("other") {
		t.Error("Cached(other) = true")
	}
}

func TestFlightErrorNotCached(t *testing.T) {
	var f Flight[int, string]
	boom := errors.New("boom")
	var calls atomic.Int64
	_, err := f.Do(1, func() (string, error) { calls.Add(1); return "", boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if f.Cached(1) {
		t.Error("failed call must not be cached")
	}
	v, err := f.Do(1, func() (string, error) { calls.Add(1); return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("retry: %q, %v", v, err)
	}
	if c := calls.Load(); c != 2 {
		t.Errorf("fn ran %d times, want 2 (error evicted)", c)
	}
}

// Cached reports whether a completed successful result exists for key.
func (f *Flight[K, V]) Cached(key K) bool {
	f.mu.Lock()
	c, ok := f.calls[key]
	f.mu.Unlock()
	if !ok {
		return false
	}
	select {
	case <-c.done:
		return c.err == nil
	default:
		return false
	}
}
