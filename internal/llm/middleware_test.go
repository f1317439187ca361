package llm

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// scriptClient fails with the scripted errors in order, then succeeds.
type scriptClient struct {
	name  string
	mu    sync.Mutex
	fails []error
	calls int
}

func (s *scriptClient) Name() string { return s.name }
func (s *scriptClient) Do(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if len(s.fails) > 0 {
		err := s.fails[0]
		s.fails = s.fails[1:]
		return Response{}, err
	}
	return Response{Text: "done", Usage: Usage{PromptTokens: 2, CompletionTokens: 1},
		Latency: 2 * time.Millisecond, FinishReason: FinishStop}, nil
}

func (s *scriptClient) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func noSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

func TestChainOrder(t *testing.T) {
	var order []string
	mw := func(tag string) Middleware {
		return func(inner Client) Client {
			return Wrap(inner, func(ctx context.Context, req Request) (Response, error) {
				order = append(order, tag)
				return inner.Do(ctx, req)
			})
		}
	}
	c := Chain(fakeClient{name: "x"}, mw("outer"), nil, mw("inner"))
	if c.Name() != "x" {
		t.Errorf("Chain changed Name to %q", c.Name())
	}
	if _, err := c.Do(context.Background(), NewRequest("p")); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Errorf("order = %v", order)
	}
}

func TestRetrySucceedsAfterRetryable(t *testing.T) {
	sc := &scriptClient{name: "m", fails: []error{
		&Error{Status: 429, Code: "rate_limited"},
		&Error{Status: 503},
	}}
	var retries int
	c := RetryWith(RetryConfig{
		MaxAttempts: 4,
		OnRetry:     func(name string, attempt int, err error, delay time.Duration) { retries++ },
		sleep:       noSleep,
	})(sc)
	resp, err := c.Do(context.Background(), NewRequest("p"))
	if err != nil || resp.Text != "done" {
		t.Fatalf("Do = %+v, %v", resp, err)
	}
	if sc.callCount() != 3 || retries != 2 {
		t.Errorf("calls = %d, retries = %d", sc.callCount(), retries)
	}
}

func TestRetryStopsOnNonRetryable(t *testing.T) {
	sc := &scriptClient{name: "m", fails: []error{&Error{Status: 401, Code: "auth"}}}
	c := RetryWith(RetryConfig{MaxAttempts: 5, sleep: noSleep})(sc)
	_, err := c.Do(context.Background(), NewRequest("p"))
	var le *Error
	if !errors.As(err, &le) || le.Status != 401 {
		t.Fatalf("err = %v", err)
	}
	if sc.callCount() != 1 {
		t.Errorf("calls = %d, want 1 (no retry on auth errors)", sc.callCount())
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	sc := &scriptClient{name: "m", fails: []error{
		&Error{Status: 500}, &Error{Status: 500}, &Error{Status: 500},
	}}
	c := RetryWith(RetryConfig{MaxAttempts: 3, sleep: noSleep})(sc)
	_, err := c.Do(context.Background(), NewRequest("p"))
	var le *Error
	if !errors.As(err, &le) || le.Status != 500 {
		t.Fatalf("err = %v", err)
	}
	if sc.callCount() != 3 {
		t.Errorf("calls = %d, want 3", sc.callCount())
	}
}

func TestRetryHonorsCancellation(t *testing.T) {
	sc := &scriptClient{name: "m", fails: []error{&Error{Status: 429}, &Error{Status: 429}}}
	ctx, cancel := context.WithCancel(context.Background())
	c := RetryWith(RetryConfig{
		MaxAttempts: 5,
		sleep: func(ctx context.Context, d time.Duration) error {
			cancel() // cancelled mid-backoff
			return ctx.Err()
		},
	})(sc)
	_, err := c.Do(ctx, NewRequest("p"))
	// The Client contract: cancellation surfaces as ctx.Err(), not as the
	// prior provider error.
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sc.callCount() != 1 {
		t.Errorf("calls = %d, want 1 (no attempt after cancelled backoff)", sc.callCount())
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	cfg := RetryConfig{}
	cfg.fill()
	req := NewRequest("p")
	err := &Error{Status: 429}
	a := backoff(cfg, "m", req, 1, err)
	b := backoff(cfg, "m", req, 1, err)
	if a != b {
		t.Errorf("jitter is not deterministic: %v vs %v", a, b)
	}
	if a < cfg.BaseDelay/2 || a > cfg.BaseDelay {
		t.Errorf("attempt-1 delay %v outside [base/2, base]", a)
	}
	// Growth is exponential but capped.
	for attempt := 1; attempt <= 30; attempt++ {
		d := backoff(cfg, "m", req, attempt, err)
		if d <= 0 || d > cfg.MaxDelay {
			t.Fatalf("attempt %d: delay %v outside (0, %v]", attempt, d, cfg.MaxDelay)
		}
	}
	// Different requests (or clients) de-synchronize.
	if backoff(cfg, "m", NewRequest("q"), 1, err) == a && backoff(cfg, "n", req, 1, err) == a {
		t.Error("jitter ignores client and request identity")
	}
	// A longer Retry-After hint wins — but only up to the MaxRetryAfter
	// cap, so a hostile header cannot park a worker for minutes.
	hinted := backoff(cfg, "m", req, 1, &Error{Status: 429, RetryAfter: 10 * time.Second})
	if hinted != 10*time.Second {
		t.Errorf("Retry-After hint ignored: %v", hinted)
	}
	capped := backoff(cfg, "m", req, 1, &Error{Status: 429, RetryAfter: time.Hour})
	if capped != cfg.MaxRetryAfter {
		t.Errorf("hostile Retry-After not capped: %v, want %v", capped, cfg.MaxRetryAfter)
	}
}

func TestTokenBucket(t *testing.T) {
	b := NewTokenBucket(10, 2) // 10/s, burst 2
	now := time.Unix(1000, 0)
	b.Clock = func() time.Time { return now }
	if w := b.Reserve(); w != 0 {
		t.Fatalf("first reserve waits %v", w)
	}
	if w := b.Reserve(); w != 0 {
		t.Fatalf("burst reserve waits %v", w)
	}
	w := b.Reserve()
	if w <= 0 || w > 150*time.Millisecond {
		t.Fatalf("exhausted reserve waits %v, want ~100ms", w)
	}
	if b.Full() {
		t.Fatal("in-debt bucket reports Full")
	}
	// Refill after 1s: full burst again.
	now = now.Add(time.Second)
	if w := b.Reserve(); w != 0 {
		t.Fatalf("post-refill reserve waits %v", w)
	}
	// TryTake rejects without going into debt.
	b2 := NewTokenBucket(10, 1)
	b2.Clock = func() time.Time { return now }
	if ok, _ := b2.TryTake(); !ok {
		t.Fatal("fresh TryTake rejected")
	}
	ok, wait := b2.TryTake()
	if ok || wait <= 0 {
		t.Fatalf("exhausted TryTake = %v, %v", ok, wait)
	}
	now = now.Add(time.Second)
	if !b2.Full() {
		t.Error("refilled bucket not Full")
	}
	// Admit takes nothing and admits while the balance is positive; Debit
	// may overdraw it, and Admit then waits until it refills past zero.
	b3 := NewTokenBucket(10, 5)
	b3.Clock = func() time.Time { return now }
	if ok, _ := b3.Admit(); !ok || !b3.Full() {
		t.Fatal("fresh Admit rejected or took a token")
	}
	b3.Debit(7)
	if !b3.InDebt() {
		t.Fatal("overdrawn bucket not in debt")
	}
	if ok, wait := b3.Admit(); ok || wait < 150*time.Millisecond || wait > 250*time.Millisecond {
		t.Fatalf("overdrawn Admit = %v, %v, want a ~200ms wait", ok, wait)
	}
	now = now.Add(time.Second)
	if ok, _ := b3.Admit(); !ok || b3.InDebt() {
		t.Error("refilled bucket still rejected")
	}
}

func TestRateLimitMiddleware(t *testing.T) {
	sc := &scriptClient{name: "m"}
	c := RateLimitWith(1000, 1, nil)(sc)
	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := c.Do(context.Background(), NewRequest("p")); err != nil {
			t.Fatal(err)
		}
	}
	// 5 requests at 1000 rps burst 1 need ~4ms of waiting; mostly this
	// asserts the limiter neither deadlocks nor rejects.
	if time.Since(start) > 2*time.Second {
		t.Error("rate limiter stalled")
	}
	if RateLimitWith(0, 1, nil) != nil {
		t.Error("rps<=0 should disable the middleware")
	}
	// Cancellation during the wait surfaces ctx.Err.
	slow := RateLimitWith(0.0001, 1, nil)(sc)
	if _, err := slow.Do(context.Background(), NewRequest("p")); err != nil {
		t.Fatal(err) // consumes the burst token
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := slow.Do(ctx, NewRequest("p")); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cancelled wait returned %v", err)
	}
}

func TestMaxInFlight(t *testing.T) {
	var inFlight, peak atomic.Int64
	base := Wrap(fakeClient{name: "m"}, func(ctx context.Context, req Request) (Response, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return Response{Text: "ok"}, nil
	})
	c := MaxInFlight(2)(base)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Do(context.Background(), NewRequest("p")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > 2 {
		t.Errorf("peak in-flight = %d, want <= 2", got)
	}
	if MaxInFlight(0) != nil {
		t.Error("n<=0 should disable the middleware")
	}
}

func TestCacheMemoizesByRequest(t *testing.T) {
	sc := &scriptClient{name: "m"}
	c := Cache(8)(sc)
	ctx := context.Background()
	a, err := c.Do(ctx, NewRequest("p"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Do(ctx, NewRequest("p"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Text != b.Text || sc.callCount() != 1 {
		t.Errorf("cache miss on identical request (calls=%d)", sc.callCount())
	}
	if _, err := c.Do(ctx, NewRequest("q")); err != nil {
		t.Fatal(err)
	}
	if sc.callCount() != 2 {
		t.Errorf("distinct request should compute (calls=%d)", sc.callCount())
	}
	// Parameters are part of the key.
	if _, err := c.Do(ctx, Request{Messages: NewRequest("p").Messages, MaxTokens: 4}); err != nil {
		t.Fatal(err)
	}
	if sc.callCount() != 3 {
		t.Errorf("parameterized request should compute (calls=%d)", sc.callCount())
	}
}

func TestCacheDoesNotCacheErrors(t *testing.T) {
	sc := &scriptClient{name: "m", fails: []error{&Error{Status: 500}}}
	c := Cache(8)(sc)
	if _, err := c.Do(context.Background(), NewRequest("p")); err == nil {
		t.Fatal("expected failure")
	}
	resp, err := c.Do(context.Background(), NewRequest("p"))
	if err != nil || resp.Text != "done" {
		t.Fatalf("retry after cached error: %+v, %v", resp, err)
	}
}

func TestWithDefaults(t *testing.T) {
	var got Request
	base := Wrap(fakeClient{name: "m"}, func(ctx context.Context, req Request) (Response, error) {
		got = req
		return Response{Text: "ok"}, nil
	})
	c := WithDefaults(f64(0.5), 100, i64(9))(base)
	if _, err := c.Do(context.Background(), NewRequest("p")); err != nil {
		t.Fatal(err)
	}
	if got.Temperature == nil || *got.Temperature != 0.5 || got.MaxTokens != 100 || got.Seed == nil || *got.Seed != 9 {
		t.Errorf("defaults not applied: %+v", got)
	}
	// Explicit values win.
	if _, err := c.Do(context.Background(), Request{Messages: NewRequest("p").Messages, Temperature: f64(0), MaxTokens: 7}); err != nil {
		t.Fatal(err)
	}
	if *got.Temperature != 0 || got.MaxTokens != 7 {
		t.Errorf("explicit values overridden: %+v", got)
	}
	if WithDefaults(nil, 0, nil) != nil {
		t.Error("no-op defaults should disable the middleware")
	}
}

func TestInstrument(t *testing.T) {
	stats := NewStats()
	sc := &scriptClient{name: "m", fails: []error{&Error{Status: 500}}}
	c := Instrument(stats)(sc)
	ctx := context.Background()
	c.Do(ctx, NewRequest("p")) // error
	c.Do(ctx, NewRequest("p")) // success
	c.Do(ctx, NewRequest("p")) // success
	ms := stats.Model("m")
	if ms.Requests.Load() != 3 || ms.Errors.Load() != 1 {
		t.Errorf("requests=%d errors=%d", ms.Requests.Load(), ms.Errors.Load())
	}
	if ms.PromptTokens.Load() != 4 || ms.CompletionTokens.Load() != 2 {
		t.Errorf("tokens=%d/%d", ms.PromptTokens.Load(), ms.CompletionTokens.Load())
	}
	if ms.Latency.Count() != 2 || ms.Latency.Mean() != 2*time.Millisecond {
		t.Errorf("latency count=%d mean=%v", ms.Latency.Count(), ms.Latency.Mean())
	}
	srcs := stats.Sources()
	if len(srcs) != 1 || srcs[0].Label != "m" {
		t.Fatalf("sources = %+v", srcs)
	}
	obj := metrics.Object(ModelFamilies, srcs[0].From)
	if obj["requests"] != 3.0 || obj["total_tokens"] != 6.0 || obj["breaker_state"] != "closed" {
		t.Errorf("model families = %v", obj)
	}
}

func TestStatsRetryHook(t *testing.T) {
	stats := NewStats()
	hook := stats.RetryHook()
	hook("m", 1, &Error{Status: 429}, time.Millisecond)
	hook("m", 2, &Error{Status: 429}, time.Millisecond)
	if got := stats.Model("m").Retries.Load(); got != 2 {
		t.Errorf("retries = %d", got)
	}
}

// A coalesced completion must not be poisoned by the winning caller's
// cancellation: the waiter still gets the completed response, while the
// cancelled caller gets its own ctx error.
func TestCacheWinnerCancellationDoesNotPoisonWaiters(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	base := Wrap(fakeClient{name: "m"}, func(ctx context.Context, req Request) (Response, error) {
		started <- struct{}{}
		select {
		case <-release:
			return Response{Text: "done", FinishReason: FinishStop}, nil
		case <-ctx.Done():
			return Response{}, ctx.Err()
		}
	})
	c := Cache(8)(base)

	winnerCtx, cancelWinner := context.WithCancel(context.Background())
	winnerErr := make(chan error, 1)
	go func() {
		_, err := c.Do(winnerCtx, NewRequest("p"))
		winnerErr <- err
	}()
	<-started // the winner's completion is in flight

	waiterResp := make(chan Response, 1)
	waiterErr := make(chan error, 1)
	go func() {
		resp, err := c.Do(context.Background(), NewRequest("p"))
		waiterResp <- resp
		waiterErr <- err
	}()

	cancelWinner()
	// The detached completion keeps running; releasing it must satisfy the
	// waiter with a real response.
	close(release)
	if err := <-waiterErr; err != nil {
		t.Fatalf("waiter poisoned by winner's cancellation: %v", err)
	}
	if resp := <-waiterResp; resp.Text != "done" {
		t.Errorf("waiter response = %+v", resp)
	}
	// The winner itself still observes its cancellation.
	if err := <-winnerErr; !errors.Is(err, context.Canceled) {
		t.Errorf("winner err = %v, want context.Canceled", err)
	}
}

// A pre-cancelled context short-circuits before touching the cache.
func TestCachePreCancelled(t *testing.T) {
	sc := &scriptClient{name: "m"}
	c := Cache(8)(sc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Do(ctx, NewRequest("p")); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if sc.callCount() != 0 {
		t.Errorf("cancelled request reached the backend (%d calls)", sc.callCount())
	}
}

// RateLimitWith counts requests that had to wait for a token.
func TestRateLimitWithCountsWaits(t *testing.T) {
	stats := NewStats()
	sc := &scriptClient{name: "m"}
	c := RateLimitWith(1000, 1, stats)(sc)
	for i := 0; i < 4; i++ {
		if _, err := c.Do(context.Background(), NewRequest("p")); err != nil {
			t.Fatal(err)
		}
	}
	// Burst 1: the first request is free; later ones (mostly) wait.
	if got := stats.Model("m").RateLimited.Load(); got < 1 {
		t.Errorf("rate_limited = %d, want >= 1", got)
	}
}
