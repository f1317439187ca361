package llm

import (
	"context"
	"errors"
	"hash/fnv"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
)

// Middleware decorates a Client with a cross-cutting behavior. Middlewares
// compose with Chain; each built-in decorator preserves the wrapped client's
// Name so registry identity is unaffected.
type Middleware func(Client) Client

// Chain applies middlewares so the first listed runs outermost:
// Chain(c, A, B) yields A(B(c)).
func Chain(c Client, mws ...Middleware) Client {
	for i := len(mws) - 1; i >= 0; i-- {
		if mws[i] != nil {
			c = mws[i](c)
		}
	}
	return c
}

// wrapped is the common decorator shape: delegate Name, intercept Do.
type wrapped struct {
	inner Client
	do    func(ctx context.Context, req Request) (Response, error)
}

func (w *wrapped) Name() string { return w.inner.Name() }
func (w *wrapped) Do(ctx context.Context, req Request) (Response, error) {
	return w.do(ctx, req)
}

// Wrap builds a decorator that keeps the inner client's Name and routes Do
// through do. Custom middlewares can use it directly.
func Wrap(inner Client, do func(ctx context.Context, req Request) (Response, error)) Client {
	return &wrapped{inner: inner, do: do}
}

// ---------------------------------------------------------------------------
// Retry

// RetryConfig tunes the Retry middleware.
type RetryConfig struct {
	// MaxAttempts is the total number of attempts including the first
	// (default 3). 1 disables retrying.
	MaxAttempts int
	// BaseDelay is the first backoff delay (default 100ms); each further
	// retry doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 5s).
	MaxDelay time.Duration
	// MaxRetryAfter caps how much of a provider Retry-After hint is honored
	// (default 15s), so one hostile or buggy header cannot stall a worker
	// for minutes.
	MaxRetryAfter time.Duration
	// OnRetry, when set, observes every scheduled retry (attempt counts the
	// failed attempts so far, starting at 1).
	OnRetry func(clientName string, attempt int, err error, delay time.Duration)
	// sleep is swapped in tests; nil means a context-aware timer sleep.
	sleep func(ctx context.Context, d time.Duration) error
}

func (cfg *RetryConfig) fill() {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = 100 * time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 5 * time.Second
	}
	if cfg.MaxRetryAfter <= 0 {
		cfg.MaxRetryAfter = 15 * time.Second
	}
	if cfg.sleep == nil {
		cfg.sleep = sleepCtx
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// RetryWith returns a middleware that retries retryable errors (as
// classified by IsRetryable) with capped exponential backoff and
// deterministic jitter.
func RetryWith(cfg RetryConfig) Middleware {
	cfg.fill()
	return func(inner Client) Client {
		return Wrap(inner, func(ctx context.Context, req Request) (Response, error) {
			for attempt := 1; ; attempt++ {
				resp, err := inner.Do(ctx, req)
				if err == nil {
					return resp, nil
				}
				if attempt >= cfg.MaxAttempts || !IsRetryable(err) || ctx.Err() != nil {
					return Response{}, err
				}
				delay := backoff(cfg, inner.Name(), req, attempt, err)
				// Never sleep past the context deadline: a backoff that
				// cannot complete before the caller's cutoff would trade a
				// concrete provider error for a certain DeadlineExceeded.
				if deadline, ok := ctx.Deadline(); ok && delay > time.Until(deadline) {
					return Response{}, err
				}
				if cfg.OnRetry != nil {
					cfg.OnRetry(inner.Name(), attempt, err, delay)
				}
				if span := obs.SpanFrom(ctx); span != nil {
					span.Event("retry",
						obs.Int("attempt", int64(attempt)),
						obs.String("error", err.Error()),
						obs.Int("delay_ms", delay.Milliseconds()))
				}
				// A cancellation during backoff surfaces as ctx.Err(), per
				// the Client contract — not as the prior provider error.
				if serr := cfg.sleep(ctx, delay); serr != nil {
					return Response{}, serr
				}
			}
		})
	}
}

// backoff computes the delay before retry #attempt: exponential growth from
// BaseDelay, capped at MaxDelay, scaled by a deterministic jitter factor in
// [0.5, 1.0) derived from (client, request, attempt) — reproducible, yet
// de-synchronized across clients and requests. A provider Retry-After hint
// raises the delay when it is longer, but only up to MaxRetryAfter: the
// hint is provider-controlled input and must not be able to park a worker
// indefinitely.
func backoff(cfg RetryConfig, name string, req Request, attempt int, err error) time.Duration {
	d := cfg.BaseDelay << (attempt - 1)
	if d > cfg.MaxDelay || d <= 0 { // <=0 guards shift overflow
		d = cfg.MaxDelay
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(strconv.FormatUint(req.Hash(), 16)))
	h.Write([]byte{0})
	h.Write([]byte(strconv.Itoa(attempt)))
	jitter := 0.5 + float64(h.Sum64()%(1<<32))/float64(uint64(1)<<33)
	d = time.Duration(float64(d) * jitter)
	var le *Error
	if errors.As(err, &le) && le.RetryAfter > d {
		d = le.RetryAfter
		if d > cfg.MaxRetryAfter {
			d = cfg.MaxRetryAfter
		}
	}
	return d
}

// ---------------------------------------------------------------------------
// RateLimit

// TokenBucket is a minimal token bucket (rate tokens/second, burst
// capacity), safe for concurrent use. It backs the client-side RateLimit
// middleware (blocking Reserve) and both of the serve layer's per-client
// admission limiters: the request rate (non-blocking TryTake) and the
// post-paid completion-token budget (Admit while the balance is positive,
// Debit after the fact), so the refill math lives in one place.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
	// Clock overrides time.Now; set before first use (tests).
	Clock func() time.Time
}

// NewTokenBucket returns a full bucket.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// refillLocked credits tokens for the time elapsed since the last call.
func (b *TokenBucket) refillLocked() {
	now := time.Now()
	if b.Clock != nil {
		now = b.Clock()
	}
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
}

// Reserve always takes one token (going into debt if necessary) and returns
// how long the caller must wait before proceeding (0 when a token was
// immediately available).
func (b *TokenBucket) Reserve() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	b.tokens--
	if b.tokens >= 0 {
		return 0
	}
	return time.Duration(-b.tokens / b.rate * float64(time.Second))
}

// TryTake takes one token only if one is available, reporting admission
// and — on rejection — how long until a token would be available.
func (b *TokenBucket) TryTake() (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}

// Admit reports whether the balance is positive, taking nothing, and — on
// rejection — how long until it refills past zero.
func (b *TokenBucket) Admit() (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	if b.tokens > 0 {
		return true, 0
	}
	return false, time.Duration(-b.tokens / b.rate * float64(time.Second))
}

// Debit takes n tokens, going into debt if necessary.
func (b *TokenBucket) Debit(n float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	b.tokens -= n
}

// InDebt reports whether the balance is below zero.
func (b *TokenBucket) InDebt() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	return b.tokens < 0
}

// Full reports whether the bucket has fully refilled — the caller has been
// idle long enough that forgetting the bucket would change nothing.
func (b *TokenBucket) Full() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	return b.tokens >= b.burst
}

// RateLimitWith returns a middleware that throttles requests through a
// token bucket (rps tokens per second, burst capacity, at least 1).
// Requests wait for a token rather than failing; cancellation during the
// wait returns ctx.Err(). rps <= 0 disables the limiter. A non-nil stats
// counts requests that had to wait for a token into the per-model
// RateLimited stat.
func RateLimitWith(rps float64, burst int, stats *Stats) Middleware {
	if rps <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	b := NewTokenBucket(rps, float64(burst))
	return func(inner Client) Client {
		return Wrap(inner, func(ctx context.Context, req Request) (Response, error) {
			wait := b.Reserve()
			if wait > 0 && stats != nil {
				stats.Model(inner.Name()).RateLimited.Add(1)
			}
			if err := sleepCtx(ctx, wait); err != nil {
				return Response{}, err
			}
			return inner.Do(ctx, req)
		})
	}
}

// ---------------------------------------------------------------------------
// MaxInFlight

// MaxInFlight returns a middleware that bounds concurrent requests with a
// semaphore; excess requests queue (FIFO per the runtime's channel
// semantics) and honor cancellation while waiting. n <= 0 disables the
// bound.
func MaxInFlight(n int) Middleware {
	if n <= 0 {
		return nil
	}
	sem := make(chan struct{}, n)
	return func(inner Client) Client {
		return Wrap(inner, func(ctx context.Context, req Request) (Response, error) {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return Response{}, ctx.Err()
			}
			defer func() { <-sem }()
			return inner.Do(ctx, req)
		})
	}
}

// ---------------------------------------------------------------------------
// Cache

// Cache returns a middleware that memoizes responses by request hash on a
// private runner.Flight capped at limit entries (limit <= 0 means
// unbounded), so concurrent identical requests coalesce onto one completion
// and the Flight's LRU cap bounds retention. Errors are never cached
// (Flight forgets failed calls); keys include the client name.
//
// The coalesced completion runs detached from the winning caller's
// cancellation (its values, e.g. the runner worker budget, still apply), so
// one caller hanging up cannot poison every waiter coalesced onto the same
// key; the caller's own cancellation still surfaces as its result.
func Cache(limit int) Middleware {
	var flight runner.Flight[string, Response]
	if limit > 0 {
		flight.SetLimit(limit)
	}
	return func(inner Client) Client {
		return Wrap(inner, func(ctx context.Context, req Request) (Response, error) {
			if err := ctx.Err(); err != nil {
				return Response{}, err
			}
			key := inner.Name() + "\x00" + strconv.FormatUint(req.Hash(), 16)
			resp, shared, err := flight.DoShared(key, func() (Response, error) {
				return inner.Do(context.WithoutCancel(ctx), req)
			})
			if shared && err == nil {
				if span := obs.SpanFrom(ctx); span != nil {
					span.Event("cache_hit", obs.String("model", inner.Name()))
				}
			}
			if err == nil {
				if cerr := ctx.Err(); cerr != nil {
					return Response{}, cerr
				}
			}
			return resp, err
		})
	}
}

// ---------------------------------------------------------------------------
// Request defaults

// WithDefaults returns a middleware that fills unset request parameters with
// the given defaults: explicit per-request values always win.
func WithDefaults(temperature *float64, maxTokens int, seed *int64) Middleware {
	if temperature == nil && maxTokens == 0 && seed == nil {
		return nil
	}
	return func(inner Client) Client {
		return Wrap(inner, func(ctx context.Context, req Request) (Response, error) {
			if req.Temperature == nil {
				req.Temperature = temperature
			}
			if req.MaxTokens == 0 {
				req.MaxTokens = maxTokens
			}
			if req.Seed == nil {
				req.Seed = seed
			}
			return inner.Do(ctx, req)
		})
	}
}

// ---------------------------------------------------------------------------
// Instrument

// Instrument returns a middleware that records every request into the
// per-model Stats: request/error counts, token usage, and a latency
// histogram (the response-reported latency when the backend provides one,
// else the observed wall time).
func Instrument(s *Stats) Middleware {
	if s == nil {
		return nil
	}
	return func(inner Client) Client {
		return Wrap(inner, func(ctx context.Context, req Request) (Response, error) {
			ms := s.Model(inner.Name())
			ms.Requests.Add(1)
			start := time.Now()
			resp, err := inner.Do(ctx, req)
			if err != nil {
				ms.Errors.Add(1)
				return resp, err
			}
			lat := resp.Latency
			if lat <= 0 {
				lat = time.Since(start)
			}
			ms.PromptTokens.Add(int64(resp.Usage.PromptTokens))
			ms.CompletionTokens.Add(int64(resp.Usage.CompletionTokens))
			ms.Latency.Observe(lat)
			return resp, nil
		})
	}
}

// ---------------------------------------------------------------------------
// Trace

// Trace returns a middleware that wraps every Do in an obs span of the given
// name, annotated with the model and request hash and ended with the error,
// if any. BuildClient stacks it twice — "llm.request" around the whole
// resilient request and "llm.attempt" inside Retry, so each retry shows as a
// fresh child attempt span. With no tracer in the context the middleware is
// pass-through at zero allocation cost.
func Trace(name string) Middleware {
	return func(inner Client) Client {
		return Wrap(inner, func(ctx context.Context, req Request) (Response, error) {
			ctx, span := obs.Start(ctx, name)
			if span == nil {
				return inner.Do(ctx, req)
			}
			span.SetString("model", inner.Name())
			span.SetString("request_hash", strconv.FormatUint(req.Hash(), 16))
			resp, err := inner.Do(ctx, req)
			if err == nil {
				span.SetInt("prompt_tokens", int64(resp.Usage.PromptTokens))
				span.SetInt("completion_tokens", int64(resp.Usage.CompletionTokens))
				if resp.FinishReason != "" {
					span.SetString("finish_reason", resp.FinishReason)
				}
			}
			span.EndErr(err)
			return resp, err
		})
	}
}
