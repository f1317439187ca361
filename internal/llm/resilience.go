package llm

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
)

// This file holds the availability middleware: a circuit breaker that stops
// burning budget against a dead backend, and request hedging that cuts tail
// latency by racing a second attempt once the first runs long. Both compose
// into the spec-driven middleware stack (spec.go) and report into the
// per-model Stats so /v1/metrics can expose their behavior.

// ---------------------------------------------------------------------------
// Breaker

// BreakerState is the circuit breaker's condition.
type BreakerState int32

// Breaker states. The int values are the Prometheus encoding of the
// breaker_state gauge in ModelFamilies, ordered by severity.
const (
	BreakerClosed   BreakerState = 0 // requests flow normally
	BreakerHalfOpen BreakerState = 1 // limited probes test recovery
	BreakerOpen     BreakerState = 2 // requests fast-fail without reaching the backend
)

// breakerStateNames spells each BreakerState, indexed by its value.
var breakerStateNames = []string{"closed", "half_open", "open"}

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	if s >= 0 && int(s) < len(breakerStateNames) {
		return breakerStateNames[s]
	}
	return "unknown"
}

// BreakerConfig tunes the Breaker middleware. The breaker opens on either
// trigger: a run of consecutive failures, or a failure rate over a rolling
// window of recent outcomes.
type BreakerConfig struct {
	// Failures is the consecutive-failure threshold that opens the breaker
	// (default 5).
	Failures int
	// ErrorRate optionally opens the breaker when the failure fraction over
	// the last Window outcomes reaches it (0 disables rate-based opening).
	ErrorRate float64
	// Window is the rolling outcome window for ErrorRate (default 20); the
	// rate only triggers once the window is full.
	Window int
	// Cooldown is how long the breaker stays open before admitting
	// half-open probes (default 10s).
	Cooldown time.Duration
	// Probes is how many consecutive half-open successes close the breaker,
	// and the cap on concurrent half-open attempts (default 1).
	Probes int
	// OnStateChange, when set, observes every transition.
	OnStateChange func(clientName string, from, to BreakerState)
	// Clock overrides time.Now (tests).
	Clock func() time.Time
}

func (cfg *BreakerConfig) fill() {
	if cfg.Failures <= 0 {
		cfg.Failures = 5
	}
	if cfg.Window <= 0 {
		cfg.Window = 20
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 10 * time.Second
	}
	if cfg.Probes <= 0 {
		cfg.Probes = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
}

// breaker is the shared state behind one Breaker middleware instance.
type breaker struct {
	cfg  BreakerConfig
	name string

	mu          sync.Mutex
	state       BreakerState
	consecutive int    // consecutive failures while closed
	window      []bool // rolling outcome ring, true = failure
	windowPos   int
	windowFull  bool
	openUntil   time.Time // when the open state admits probes again
	probing     int       // in-flight half-open probes
	probeWins   int       // consecutive half-open successes
}

// countable reports whether an error should count against the breaker:
// backend failures a different instant would plausibly not see. Caller bugs
// (4xx other than 408/429) and caller-side cancellation don't open circuits.
func countable(err error) bool {
	return IsRetryable(err)
}

func (b *breaker) setStateLocked(to BreakerState) {
	if b.state == to {
		return
	}
	from := b.state
	b.state = to
	if b.cfg.OnStateChange != nil {
		b.cfg.OnStateChange(b.name, from, to)
	}
}

func (b *breaker) openLocked(now time.Time) {
	b.openUntil = now.Add(b.cfg.Cooldown)
	b.consecutive = 0
	b.probeWins = 0
	b.windowFull = false
	b.windowPos = 0
	for i := range b.window {
		b.window[i] = false
	}
	b.setStateLocked(BreakerOpen)
}

// admit decides whether a request may proceed. It returns (true, probe, _, _)
// to proceed — probe marks a half-open trial — or (false, _, wait, shed) to
// fast-fail, where wait is the suggested retry delay and shed is the state
// that caused the shed (open cooldown vs. saturated half-open).
func (b *breaker) admit() (ok bool, probe bool, wait time.Duration, shed BreakerState) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Clock()
	switch b.state {
	case BreakerClosed:
		return true, false, 0, BreakerClosed
	case BreakerOpen:
		if now.Before(b.openUntil) {
			return false, false, b.openUntil.Sub(now), BreakerOpen
		}
		b.setStateLocked(BreakerHalfOpen)
		fallthrough
	case BreakerHalfOpen:
		if b.probing >= b.cfg.Probes {
			// Half-open is saturated; shed with a minimal hint — the
			// in-flight probe decides recovery within roughly one RTT.
			return false, false, time.Second, BreakerHalfOpen
		}
		b.probing++
		return true, true, 0, BreakerHalfOpen
	}
	return true, false, 0, b.state
}

// record registers one completed request's outcome and reports the state
// transition it caused (from == to when none), so the caller can emit a
// span event outside the lock. A probe always frees its
// half-open slot here, even when the outcome is no evidence either way
// (caller bug, caller-side cancellation) — otherwise one cancelled probe
// would saturate the probe budget forever and the breaker could never close.
func (b *breaker) record(probe bool, err error) (from, to BreakerState) {
	b.mu.Lock()
	defer b.mu.Unlock()
	from = b.state
	defer func() { to = b.state }()
	failed := err != nil && countable(err)
	noEvidence := err != nil && !failed
	if probe {
		b.probing--
		if noEvidence || b.state != BreakerHalfOpen {
			return
		}
		if failed {
			b.openLocked(b.cfg.Clock())
			return
		}
		b.probeWins++
		if b.probeWins >= b.cfg.Probes {
			b.probeWins = 0
			b.setStateLocked(BreakerClosed)
		}
		return
	}
	if noEvidence || b.state != BreakerClosed {
		return
	}
	if !failed {
		b.consecutive = 0
		b.pushLocked(false)
		return
	}
	b.consecutive++
	b.pushLocked(true)
	if b.consecutive >= b.cfg.Failures || b.rateTrippedLocked() {
		b.openLocked(b.cfg.Clock())
	}
	return
}

func (b *breaker) pushLocked(failed bool) {
	if b.cfg.ErrorRate <= 0 {
		return
	}
	if b.window == nil {
		b.window = make([]bool, b.cfg.Window)
	}
	b.window[b.windowPos] = failed
	b.windowPos++
	if b.windowPos == len(b.window) {
		b.windowPos = 0
		b.windowFull = true
	}
}

func (b *breaker) rateTrippedLocked() bool {
	if b.cfg.ErrorRate <= 0 || !b.windowFull {
		return false
	}
	fails := 0
	for _, f := range b.window {
		if f {
			fails++
		}
	}
	return float64(fails)/float64(len(b.window)) >= b.cfg.ErrorRate
}

// Breaker returns a circuit-breaker middleware: after a run of consecutive
// failures (or a tripped rolling error rate), requests fast-fail with a
// typed *Error (Status 503, Code "breaker_open", RetryAfter = remaining
// cooldown) instead of reaching the backend; after the cooldown, limited
// half-open probes test recovery, closing the breaker on success and
// re-opening it on failure. Requests arriving while the probe budget is
// saturated shed with Code "breaker_probing" and a short RetryAfter,
// distinguishing a momentary half-open shed from a cooldown-long outage.
func Breaker(cfg BreakerConfig) Middleware {
	return BreakerWith(cfg, nil)
}

// BreakerWith is Breaker additionally recording opens, shed requests, the
// current state gauge, and the open deadline into the per-model Stats — the
// serve layer reads the gauge to shed eval requests before they start.
func BreakerWith(cfg BreakerConfig, stats *Stats) Middleware {
	cfg.fill()
	return func(inner Client) Client {
		b := &breaker{cfg: cfg, name: inner.Name()}
		if stats != nil {
			ms := stats.Model(inner.Name())
			user := b.cfg.OnStateChange
			b.cfg.OnStateChange = func(name string, from, to BreakerState) {
				ms.BreakerState.Store(int32(to))
				if to == BreakerOpen {
					ms.BreakerOpens.Add(1)
					ms.BreakerOpenUntil.Store(b.openUntil.UnixNano())
				}
				if user != nil {
					user(name, from, to)
				}
			}
		}
		return Wrap(inner, func(ctx context.Context, req Request) (Response, error) {
			ok, probe, wait, shed := b.admit()
			if !ok {
				if stats != nil {
					stats.Model(inner.Name()).BreakerFastFails.Add(1)
				}
				code, msg := "breaker_open", "circuit breaker open: backend shedding load"
				if shed == BreakerHalfOpen {
					// Saturated half-open: a probe is already in flight, so
					// this shed is momentary, not a cooldown-long outage.
					code, msg = "breaker_probing", "circuit breaker half-open: recovery probe in flight"
				}
				if span := obs.SpanFrom(ctx); span != nil {
					span.Event("breaker_shed",
						obs.String("model", inner.Name()),
						obs.String("code", code),
						obs.Int("retry_after_ms", wait.Milliseconds()))
				}
				return Response{}, &Error{
					Status:     503,
					Code:       code,
					Message:    msg,
					RetryAfter: wait,
				}
			}
			resp, err := inner.Do(ctx, req)
			from, to := b.record(probe, err)
			if from != to {
				if span := obs.SpanFrom(ctx); span != nil {
					span.Event("breaker_state_change",
						obs.String("model", inner.Name()),
						obs.String("from", from.String()),
						obs.String("to", to.String()))
				}
			}
			return resp, err
		})
	}
}

// ---------------------------------------------------------------------------
// Hedge

// HedgeConfig tunes the Hedge middleware.
type HedgeConfig struct {
	// Delay is how long the primary attempt may run before a hedge launches
	// (required; <= 0 disables hedging).
	Delay time.Duration
	// MaxHedges caps extra attempts per request (default 1).
	MaxHedges int
}

// Hedge returns a tail-latency hedging middleware: when the primary attempt
// has not completed within Delay, a second identical attempt launches and
// the first success wins; the loser's context is cancelled. An error from
// one attempt defers to the other attempt's outcome, so hedging never
// worsens correctness — the request fails only once every attempt has.
func Hedge(cfg HedgeConfig) Middleware {
	return HedgeWith(cfg, nil)
}

// HedgeWith is Hedge additionally counting launched and winning hedges into
// the per-model Stats — and charging a cancelled loser's token usage there
// too, so hedging's cost stays visible even though only one response is
// returned.
func HedgeWith(cfg HedgeConfig, stats *Stats) Middleware {
	if cfg.Delay <= 0 {
		return nil
	}
	if cfg.MaxHedges <= 0 {
		cfg.MaxHedges = 1
	}
	return func(inner Client) Client {
		return Wrap(inner, func(ctx context.Context, req Request) (Response, error) {
			hctx, cancelAll := context.WithCancel(ctx)
			defer cancelAll()
			results := make(chan hedgeOutcome, cfg.MaxHedges+1)
			launch := func(idx int) {
				go func() {
					resp, err := inner.Do(hctx, req)
					results <- hedgeOutcome{resp: resp, err: err, idx: idx}
				}()
			}
			launch(0)
			timer := time.NewTimer(cfg.Delay)
			defer timer.Stop()
			var (
				launched = 1
				pending  = 1
				firstErr error
			)
			for {
				select {
				case <-timer.C:
					if launched <= cfg.MaxHedges {
						launch(launched)
						launched++
						pending++
						if stats != nil {
							stats.Model(inner.Name()).HedgesLaunched.Add(1)
						}
						if span := obs.SpanFrom(ctx); span != nil {
							span.Event("hedge_launch",
								obs.String("model", inner.Name()),
								obs.Int("attempt", int64(launched-1)))
						}
						if launched <= cfg.MaxHedges {
							timer.Reset(cfg.Delay)
						}
					}
				case out := <-results:
					pending--
					if out.err == nil {
						// Winner. Cancel the rest and account their tokens
						// as they drain, off the caller's critical path.
						cancelAll()
						if span := obs.SpanFrom(ctx); span != nil {
							if out.idx > 0 {
								span.Event("hedge_win",
									obs.String("model", inner.Name()),
									obs.Int("attempt", int64(out.idx)))
							}
							if pending > 0 {
								span.Event("hedge_cancel",
									obs.String("model", inner.Name()),
									obs.Int("cancelled", int64(pending)))
							}
						}
						if stats != nil {
							if out.idx > 0 {
								stats.Model(inner.Name()).HedgesWon.Add(1)
							}
							drainHedges(inner.Name(), stats, results, pending)
						}
						return out.resp, nil
					}
					if firstErr == nil || out.idx == 0 {
						firstErr = out.err
					}
					if pending == 0 {
						// Every attempt failed; no hedge launch can save it.
						return Response{}, firstErr
					}
				case <-ctx.Done():
					return Response{}, ctx.Err()
				}
			}
		})
	}
}

// hedgeOutcome is one hedged attempt's completion (idx 0 = primary).
type hedgeOutcome struct {
	resp Response
	err  error
	idx  int
}

// drainHedges collects cancelled losers in the background and charges any
// usage they still completed with to the model's stats, so a hedge that
// finished just after losing the race still counts against token budgets.
func drainHedges(name string, stats *Stats, results <-chan hedgeOutcome, pending int) {
	if pending <= 0 {
		return
	}
	ms := stats.Model(name)
	go func() {
		for i := 0; i < pending; i++ {
			out := <-results
			if out.err == nil {
				ms.PromptTokens.Add(int64(out.resp.Usage.PromptTokens))
				ms.CompletionTokens.Add(int64(out.resp.Usage.CompletionTokens))
				ms.HedgeWastedTokens.Add(int64(out.resp.Usage.Total()))
			}
		}
	}()
}
