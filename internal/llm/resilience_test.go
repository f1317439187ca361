package llm

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// outcomeClient returns canned outcomes in order, then repeats the last one.
type outcomeClient struct {
	name    string
	calls   atomic.Int64
	outcome func(call int64, ctx context.Context, req Request) (Response, error)
}

func (c *outcomeClient) Name() string { return c.name }
func (c *outcomeClient) Do(ctx context.Context, req Request) (Response, error) {
	return c.outcome(c.calls.Add(1), ctx, req)
}

func failN(n int64) func(int64, context.Context, Request) (Response, error) {
	return func(call int64, _ context.Context, _ Request) (Response, error) {
		if call <= n {
			return Response{}, &Error{Status: 503, Code: "unavailable"}
		}
		return Response{Text: "ok"}, nil
	}
}

// The breaker must walk the full lifecycle: closed → open on consecutive
// failures (typed fast-fails while open) → half-open after the cooldown →
// closed again once a probe succeeds.
func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	var transitions []string
	inner := &outcomeClient{name: "m", outcome: failN(3)}
	stats := NewStats()
	cfg := BreakerConfig{
		Failures: 3,
		Cooldown: 10 * time.Second,
		Clock:    clock,
		OnStateChange: func(name string, from, to BreakerState) {
			transitions = append(transitions, from.String()+">"+to.String())
		},
	}
	c := Chain(inner, BreakerWith(cfg, stats))
	ctx := context.Background()

	// Three consecutive failures open the breaker.
	for i := 0; i < 3; i++ {
		if _, err := c.Do(ctx, NewRequest("q")); err == nil {
			t.Fatalf("call %d: expected failure", i)
		}
	}
	ms := stats.Model("m")
	if got := BreakerState(ms.BreakerState.Load()); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
	if ms.BreakerOpens.Load() != 1 {
		t.Fatalf("opens = %d, want 1", ms.BreakerOpens.Load())
	}

	// While open: typed fast-fail carrying the remaining cooldown; the
	// backend is never touched.
	before := inner.calls.Load()
	_, err := c.Do(ctx, NewRequest("q"))
	var le *Error
	if !errors.As(err, &le) || le.Status != 503 || le.Code != "breaker_open" {
		t.Fatalf("open-state error = %v, want 503 breaker_open", err)
	}
	if le.RetryAfter <= 0 || le.RetryAfter > 10*time.Second {
		t.Fatalf("RetryAfter = %v, want (0, 10s]", le.RetryAfter)
	}
	if inner.calls.Load() != before {
		t.Fatal("fast-fail reached the backend")
	}
	if ms.BreakerFastFails.Load() != 1 {
		t.Fatalf("fast fails = %d, want 1", ms.BreakerFastFails.Load())
	}

	// After the cooldown the next request is a half-open probe; the script
	// now succeeds, closing the breaker.
	now = now.Add(11 * time.Second)
	resp, err := c.Do(ctx, NewRequest("q"))
	if err != nil || resp.Text != "ok" {
		t.Fatalf("probe = %v, %v; want success", resp, err)
	}
	if got := BreakerState(ms.BreakerState.Load()); got != BreakerClosed {
		t.Fatalf("state after probe = %v, want closed", got)
	}
	want := []string{"closed>open", "open>half_open", "half_open>closed"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

// A failing half-open probe must re-open the breaker for a fresh cooldown.
func TestBreakerProbeFailureReopens(t *testing.T) {
	now := time.Unix(0, 0)
	inner := &outcomeClient{name: "m", outcome: failN(1 << 30)} // never recovers
	stats := NewStats()
	c := Chain(inner, BreakerWith(BreakerConfig{
		Failures: 2,
		Cooldown: 5 * time.Second,
		Clock:    func() time.Time { return now },
	}, stats))
	ctx := context.Background()
	c.Do(ctx, NewRequest("q"))
	c.Do(ctx, NewRequest("q"))
	ms := stats.Model("m")
	if got := BreakerState(ms.BreakerState.Load()); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
	now = now.Add(6 * time.Second)
	if _, err := c.Do(ctx, NewRequest("q")); err == nil {
		t.Fatal("probe unexpectedly succeeded")
	}
	if got := BreakerState(ms.BreakerState.Load()); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if ms.BreakerOpens.Load() != 2 {
		t.Fatalf("opens = %d, want 2", ms.BreakerOpens.Load())
	}
	// Still shedding during the fresh cooldown.
	before := inner.calls.Load()
	if _, err := c.Do(ctx, NewRequest("q")); !errors.As(err, new(*Error)) {
		t.Fatalf("expected typed fast-fail, got %v", err)
	}
	if inner.calls.Load() != before {
		t.Fatal("shed request reached the backend")
	}
}

// Rate-based opening: failures spread across successes trip the breaker
// once the rolling window's failure fraction reaches the threshold, even
// though no consecutive run does.
func TestBreakerErrorRate(t *testing.T) {
	var calls atomic.Int64
	inner := &outcomeClient{name: "m", outcome: func(call int64, _ context.Context, _ Request) (Response, error) {
		calls.Add(1)
		if call%2 == 0 { // alternate ok/fail: 50% rate, max run of 1
			return Response{}, &Error{Status: 500, Code: "boom"}
		}
		return Response{Text: "ok"}, nil
	}}
	stats := NewStats()
	c := Chain(inner, BreakerWith(BreakerConfig{
		Failures:  100, // consecutive trigger effectively off
		ErrorRate: 0.5,
		Window:    10,
		Cooldown:  time.Minute,
	}, stats))
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		c.Do(ctx, NewRequest("q"))
	}
	if got := BreakerState(stats.Model("m").BreakerState.Load()); got != BreakerOpen {
		t.Fatalf("state after window = %v, want open", got)
	}
}

// Non-countable failures (caller bugs) must not open the breaker.
func TestBreakerIgnoresCallerBugs(t *testing.T) {
	inner := &outcomeClient{name: "m", outcome: func(int64, context.Context, Request) (Response, error) {
		return Response{}, &Error{Status: 400, Code: "invalid_request"}
	}}
	stats := NewStats()
	c := Chain(inner, BreakerWith(BreakerConfig{Failures: 2}, stats))
	for i := 0; i < 10; i++ {
		c.Do(context.Background(), NewRequest("q"))
	}
	if got := BreakerState(stats.Model("m").BreakerState.Load()); got != BreakerClosed {
		t.Fatalf("state = %v, want closed after 4xx-only failures", got)
	}
}

// A half-open probe that completes without evidence (caller-side
// cancellation, 4xx) must still free its probe slot; otherwise one
// abandoned probe saturates the probe budget forever and the breaker can
// never close — a permanent 503 for the model.
func TestBreakerCancelledProbeFreesSlot(t *testing.T) {
	now := time.Unix(0, 0)
	inner := &outcomeClient{name: "m", outcome: func(call int64, _ context.Context, _ Request) (Response, error) {
		switch {
		case call <= 2:
			return Response{}, &Error{Status: 503, Code: "unavailable"}
		case call == 3:
			return Response{}, context.Canceled // probe abandoned by the caller
		default:
			return Response{Text: "ok"}, nil
		}
	}}
	stats := NewStats()
	c := Chain(inner, BreakerWith(BreakerConfig{
		Failures: 2,
		Cooldown: 5 * time.Second,
		Clock:    func() time.Time { return now },
	}, stats))
	ctx := context.Background()
	c.Do(ctx, NewRequest("q"))
	c.Do(ctx, NewRequest("q")) // breaker opens
	now = now.Add(6 * time.Second)
	if _, err := c.Do(ctx, NewRequest("q")); err == nil {
		t.Fatal("cancelled probe unexpectedly succeeded")
	}
	// The cancellation is no evidence either way, but the slot must be
	// free: the next request runs as a fresh probe and closes the breaker.
	resp, err := c.Do(ctx, NewRequest("q"))
	if err != nil || resp.Text != "ok" {
		t.Fatalf("follow-up probe = %v, %v; want success", resp, err)
	}
	if got := BreakerState(stats.Model("m").BreakerState.Load()); got != BreakerClosed {
		t.Fatalf("state = %v, want closed after successful probe", got)
	}
}

// While a half-open probe is in flight, additional requests shed with the
// distinct "breaker_probing" code, so callers and metrics can tell a
// momentary half-open shed from a cooldown-long open one.
func TestBreakerSaturatedHalfOpenShedCode(t *testing.T) {
	now := time.Unix(0, 0)
	block := make(chan struct{})
	inner := &outcomeClient{name: "m", outcome: func(call int64, _ context.Context, _ Request) (Response, error) {
		if call <= 2 {
			return Response{}, &Error{Status: 503, Code: "unavailable"}
		}
		<-block // hold the probe in flight
		return Response{Text: "ok"}, nil
	}}
	stats := NewStats()
	c := Chain(inner, BreakerWith(BreakerConfig{
		Failures: 2,
		Cooldown: 5 * time.Second,
		Clock:    func() time.Time { return now },
	}, stats))
	ctx := context.Background()
	c.Do(ctx, NewRequest("q"))
	c.Do(ctx, NewRequest("q")) // breaker opens
	now = now.Add(6 * time.Second)
	probeDone := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, NewRequest("q"))
		probeDone <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for inner.calls.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond) // wait for the probe to reach the backend
	}
	_, err := c.Do(ctx, NewRequest("q"))
	var le *Error
	if !errors.As(err, &le) || le.Status != 503 || le.Code != "breaker_probing" {
		t.Fatalf("saturated half-open shed = %v, want 503 breaker_probing", err)
	}
	if le.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", le.RetryAfter)
	}
	close(block)
	if perr := <-probeDone; perr != nil {
		t.Fatal(perr)
	}
	if got := BreakerState(stats.Model("m").BreakerState.Load()); got != BreakerClosed {
		t.Fatalf("state = %v, want closed once the probe succeeds", got)
	}
}

// A slow primary must lose to the hedge: the hedge's response wins, the
// stats count the launch and the win, and the cancelled loser's tokens are
// still charged once it drains.
func TestHedgeWinnerLoserAccounting(t *testing.T) {
	primaryDone := make(chan struct{})
	inner := &outcomeClient{name: "m", outcome: func(call int64, ctx context.Context, _ Request) (Response, error) {
		if call == 1 {
			// Primary: slow, then completes anyway (cancelled or not) with
			// usage that must still be charged.
			defer close(primaryDone)
			select {
			case <-time.After(200 * time.Millisecond):
			case <-ctx.Done():
			}
			return Response{Text: "slow", Usage: Usage{PromptTokens: 7, CompletionTokens: 13}}, nil
		}
		return Response{Text: "fast", Usage: Usage{PromptTokens: 7, CompletionTokens: 2}}, nil
	}}
	stats := NewStats()
	c := Chain(inner, HedgeWith(HedgeConfig{Delay: 10 * time.Millisecond}, stats))
	resp, err := c.Do(context.Background(), NewRequest("q"))
	if err != nil || resp.Text != "fast" {
		t.Fatalf("hedged response = %q, %v; want fast", resp.Text, err)
	}
	ms := stats.Model("m")
	if ms.HedgesLaunched.Load() != 1 || ms.HedgesWon.Load() != 1 {
		t.Fatalf("launched=%d won=%d, want 1/1", ms.HedgesLaunched.Load(), ms.HedgesWon.Load())
	}
	<-primaryDone
	// The drain goroutine charges the loser shortly after it completes.
	deadline := time.Now().Add(2 * time.Second)
	for ms.HedgeWastedTokens.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := ms.HedgeWastedTokens.Load(); got != 20 {
		t.Fatalf("wasted tokens = %d, want 20 (loser's 7+13)", got)
	}
	if got := ms.CompletionTokens.Load(); got != 13 {
		t.Fatalf("completion tokens = %d, want loser's 13 charged by the hedge layer", got)
	}
}

// A fast primary must win without ever launching a hedge.
func TestHedgeFastPrimaryNoHedge(t *testing.T) {
	inner := &outcomeClient{name: "m", outcome: func(int64, context.Context, Request) (Response, error) {
		return Response{Text: "ok"}, nil
	}}
	stats := NewStats()
	c := Chain(inner, HedgeWith(HedgeConfig{Delay: time.Second}, stats))
	if _, err := c.Do(context.Background(), NewRequest("q")); err != nil {
		t.Fatal(err)
	}
	if n := stats.Model("m").HedgesLaunched.Load(); n != 0 {
		t.Fatalf("hedges launched = %d, want 0", n)
	}
	if inner.calls.Load() != 1 {
		t.Fatalf("backend calls = %d, want 1", inner.calls.Load())
	}
}

// When the primary fails while a hedge is in flight, the hedge's success
// must still answer the request.
func TestHedgeSurvivesPrimaryError(t *testing.T) {
	inner := &outcomeClient{name: "m", outcome: func(call int64, ctx context.Context, _ Request) (Response, error) {
		if call == 1 {
			time.Sleep(20 * time.Millisecond)
			return Response{}, &Error{Status: 500, Code: "boom"}
		}
		time.Sleep(30 * time.Millisecond)
		return Response{Text: "rescued"}, nil
	}}
	c := Chain(inner, HedgeWith(HedgeConfig{Delay: 5 * time.Millisecond}, nil))
	resp, err := c.Do(context.Background(), NewRequest("q"))
	if err != nil || resp.Text != "rescued" {
		t.Fatalf("resp = %q, %v; want rescued", resp.Text, err)
	}
}

// When every attempt fails, the primary's error surfaces.
func TestHedgeAllFail(t *testing.T) {
	inner := &outcomeClient{name: "m", outcome: func(int64, context.Context, Request) (Response, error) {
		time.Sleep(5 * time.Millisecond)
		return Response{}, &Error{Status: 503, Code: "dead"}
	}}
	c := Chain(inner, HedgeWith(HedgeConfig{Delay: time.Millisecond}, nil))
	_, err := c.Do(context.Background(), NewRequest("q"))
	var le *Error
	if !errors.As(err, &le) || le.Code != "dead" {
		t.Fatalf("err = %v, want the backend error", err)
	}
}

// Retry must not start a backoff it cannot finish before the context
// deadline: the provider error returns promptly instead.
func TestRetryRespectsDeadline(t *testing.T) {
	inner := &outcomeClient{name: "m", outcome: func(int64, context.Context, Request) (Response, error) {
		return Response{}, &Error{Status: 503, Code: "unavailable"}
	}}
	c := Chain(inner, RetryWith(RetryConfig{MaxAttempts: 5, BaseDelay: time.Hour}))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Do(ctx, NewRequest("q"))
	var le *Error
	if !errors.As(err, &le) || le.Code != "unavailable" {
		t.Fatalf("err = %v, want the provider error, not a deadline error", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("retry stalled %v against a 50ms deadline", elapsed)
	}
	if inner.calls.Load() != 1 {
		t.Fatalf("backend calls = %d, want 1 (no doomed retry)", inner.calls.Load())
	}
}

// A hostile Retry-After hint must be capped, not honored verbatim.
func TestRetryAfterCapped(t *testing.T) {
	inner := &outcomeClient{name: "m", outcome: failN(1)}
	var slept time.Duration
	cfg := RetryConfig{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxRetryAfter: 20 * time.Millisecond,
		sleep: func(_ context.Context, d time.Duration) error { slept = d; return nil }}
	inner.outcome = func(call int64, _ context.Context, _ Request) (Response, error) {
		if call == 1 {
			return Response{}, &Error{Status: 429, Code: "rate_limited", RetryAfter: time.Hour}
		}
		return Response{Text: "ok"}, nil
	}
	c := Chain(inner, RetryWith(cfg))
	if _, err := c.Do(context.Background(), NewRequest("q")); err != nil {
		t.Fatal(err)
	}
	if slept != 20*time.Millisecond {
		t.Fatalf("slept %v, want the 20ms cap", slept)
	}
}
