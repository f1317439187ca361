package llm

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// ModelStats accumulates one model's request telemetry. All fields are
// atomics (the histogram included), so the Instrument middleware and retry
// hooks can record from any number of request goroutines.
type ModelStats struct {
	// Requests counts logical requests entering the client (cache hits served
	// above the Instrument layer are not requests).
	Requests atomic.Int64
	// Errors counts requests that returned an error after any retrying.
	Errors atomic.Int64
	// Retries counts individual retry attempts scheduled by the Retry
	// middleware.
	Retries atomic.Int64
	// RateLimited counts requests the RateLimit middleware made wait for a
	// token before proceeding.
	RateLimited atomic.Int64
	// PromptTokens and CompletionTokens accumulate reported usage.
	PromptTokens     atomic.Int64
	CompletionTokens atomic.Int64
	// Latency is the per-request latency histogram.
	Latency metrics.LatencyHistogram

	// BreakerOpens counts transitions into the open state; BreakerFastFails
	// counts requests the breaker shed (code "breaker_open" during the open
	// cooldown, "breaker_probing" while half-open with the probe budget
	// saturated); BreakerState is the current state (the breaker_state
	// gauge: 0 closed, 1 half-open, 2 open) and BreakerOpenUntil the open
	// deadline in unix nanos — the serve layer reads both to shed eval
	// requests with 503 + Retry-After before they start.
	BreakerOpens     atomic.Int64
	BreakerFastFails atomic.Int64
	BreakerState     atomic.Int32
	BreakerOpenUntil atomic.Int64
	// HedgesLaunched counts extra attempts the Hedge middleware raced;
	// HedgesWon counts requests a hedge (not the primary) answered;
	// HedgeWastedTokens accumulates the usage of cancelled losers that
	// completed anyway (also folded into Prompt/CompletionTokens).
	HedgesLaunched    atomic.Int64
	HedgesWon         atomic.Int64
	HedgeWastedTokens atomic.Int64
}

// ModelFamilies are the per-model telemetry families, each read from one
// model's stats and fanned out over the model label: /v1/metrics nests them
// under models.<model>, /v1/metrics/prom renders sqlserved_model_<name>
// {model="..."}, and sqlbench -stats prints them on each model's line.
// Adding a per-model counter means adding one entry here.
var ModelFamilies = []metrics.Family[*ModelStats]{
	{Name: "requests", Type: metrics.Counter, Help: "Logical requests entering the model client.",
		Value: func(ms *ModelStats) float64 { return float64(ms.Requests.Load()) }},
	{Name: "errors", Type: metrics.Counter, Help: "Requests that failed after any retrying.",
		Value: func(ms *ModelStats) float64 { return float64(ms.Errors.Load()) }},
	{Name: "retries", Type: metrics.Counter, Help: "Retry attempts scheduled.",
		Value: func(ms *ModelStats) float64 { return float64(ms.Retries.Load()) }},
	{Name: "rate_limited", Type: metrics.Counter, Help: "Requests made to wait for a rate-limit token.",
		Value: func(ms *ModelStats) float64 { return float64(ms.RateLimited.Load()) }},
	{Name: "prompt_tokens", Type: metrics.Counter, Help: "Prompt tokens consumed.",
		Value: func(ms *ModelStats) float64 { return float64(ms.PromptTokens.Load()) }},
	{Name: "completion_tokens", Type: metrics.Counter, Help: "Completion tokens consumed.",
		Value: func(ms *ModelStats) float64 { return float64(ms.CompletionTokens.Load()) }},
	{Name: "total_tokens", Type: metrics.Counter, Help: "Prompt plus completion tokens consumed.",
		Value: func(ms *ModelStats) float64 { return float64(ms.PromptTokens.Load() + ms.CompletionTokens.Load()) }},
	{Name: "latency_mean_ms", Type: metrics.Gauge, Help: "Mean request latency in milliseconds.",
		Value: func(ms *ModelStats) float64 { return durMS(ms.Latency.Mean()) }},
	{Name: "latency_p50_ms", Type: metrics.Gauge, Help: "Median request latency in milliseconds, interpolated within its histogram bucket.",
		Value: func(ms *ModelStats) float64 { return durMS(ms.Latency.Quantile(0.50)) }},
	{Name: "latency_p95_ms", Type: metrics.Gauge, Help: "95th-percentile request latency in milliseconds, interpolated within its histogram bucket.",
		Value: func(ms *ModelStats) float64 { return durMS(ms.Latency.Quantile(0.95)) }},
	{Name: "latency_p99_ms", Type: metrics.Gauge, Help: "99th-percentile request latency in milliseconds, interpolated within its histogram bucket.",
		Value: func(ms *ModelStats) float64 { return durMS(ms.Latency.Quantile(0.99)) }},
	{Name: "latency_max_ms", Type: metrics.Gauge, Help: "Slowest request latency in milliseconds.",
		Value: func(ms *ModelStats) float64 { return durMS(ms.Latency.Max()) }},
	{Name: "breaker_state", Type: metrics.Gauge, Help: "Circuit-breaker state: 0 closed, 1 half_open, 2 open.",
		Value:  func(ms *ModelStats) float64 { return float64(ms.BreakerState.Load()) },
		States: breakerStateNames},
	{Name: "breaker_opens", Type: metrics.Counter, Help: "Circuit-breaker transitions into the open state.",
		Value: func(ms *ModelStats) float64 { return float64(ms.BreakerOpens.Load()) }},
	{Name: "breaker_fast_fails", Type: metrics.Counter, Help: "Requests shed by an open or probing breaker.",
		Value: func(ms *ModelStats) float64 { return float64(ms.BreakerFastFails.Load()) }},
	{Name: "hedges_launched", Type: metrics.Counter, Help: "Hedged extra attempts raced.",
		Value: func(ms *ModelStats) float64 { return float64(ms.HedgesLaunched.Load()) }},
	{Name: "hedges_won", Type: metrics.Counter, Help: "Requests answered by a hedge instead of the primary.",
		Value: func(ms *ModelStats) float64 { return float64(ms.HedgesWon.Load()) }},
	{Name: "hedge_wasted_tokens", Type: metrics.Counter, Help: "Tokens spent by cancelled hedge losers that completed anyway.",
		Value: func(ms *ModelStats) float64 { return float64(ms.HedgeWastedTokens.Load()) }},
	{Name: "latency_seconds", Type: metrics.Histogram, Help: "Model request latency.",
		Hist: func(ms *ModelStats) *metrics.LatencyHistogram { return &ms.Latency }},
}

// Stats holds per-model telemetry, keyed by client name. The zero value is
// not usable; construct with NewStats.
type Stats struct {
	mu     sync.Mutex
	models map[string]*ModelStats
}

// NewStats returns an empty Stats.
func NewStats() *Stats {
	return &Stats{models: make(map[string]*ModelStats)}
}

// Model returns the stats bucket for a model name, creating it on first use.
func (s *Stats) Model(name string) *ModelStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	ms, ok := s.models[name]
	if !ok {
		ms = &ModelStats{}
		s.models[name] = ms
	}
	return ms
}

// RetryHook returns an OnRetry callback (for RetryConfig) that counts
// retries into the per-model stats.
func (s *Stats) RetryHook() func(name string, attempt int, err error, delay time.Duration) {
	return func(name string, _ int, _ error, _ time.Duration) {
		s.Model(name).Retries.Add(1)
	}
}

// Sources returns every model's stats labeled by model name, sorted by
// name: the sources ModelFamilies fan out over.
func (s *Stats) Sources() []metrics.Labeled[*ModelStats] {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]metrics.Labeled[*ModelStats], 0, len(s.models))
	for name, ms := range s.models {
		out = append(out, metrics.Labeled[*ModelStats]{Label: name, From: ms})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

func durMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
