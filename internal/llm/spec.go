package llm

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// Spec is one model entry of a JSON model configuration — the config-driven
// construction surface behind the binaries' -models flag. Provider selects
// the backend factory ("sim" or "http" for the built-ins); the remaining
// fields configure the backend and the middleware stack wrapped around it.
type Spec struct {
	// Name is the registry name the model is served under. Required.
	Name string `json:"name"`
	// Provider selects the backend factory ("sim", "http"). Required.
	Provider string `json:"provider"`

	// BaseURL is the HTTP provider's API root (e.g.
	// "https://api.openai.com/v1" or "http://127.0.0.1:9090/v1").
	BaseURL string `json:"base_url,omitempty"`
	// Model is the provider-side model identifier; defaults to Name. For the
	// sim provider it selects the calibrated profile.
	Model string `json:"model,omitempty"`
	// APIKeyEnv names the environment variable holding the API key
	// (HTTP provider; empty means no Authorization header).
	APIKeyEnv string `json:"api_key_env,omitempty"`
	// TimeoutMS is the per-request timeout in milliseconds (HTTP provider).
	TimeoutMS int `json:"timeout_ms,omitempty"`

	// MaxAttempts enables the Retry middleware: total attempts including the
	// first. 0 or 1 means no retrying.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// RetryBaseMS is the first backoff delay in milliseconds (default 100).
	RetryBaseMS int `json:"retry_base_ms,omitempty"`
	// RPS enables the RateLimit middleware: requests per second (0 = off).
	RPS float64 `json:"rps,omitempty"`
	// Burst is the rate limiter's burst capacity (default 1).
	Burst int `json:"burst,omitempty"`
	// MaxInFlight bounds concurrent requests (0 = unbounded).
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// CacheSize enables request-hash memoization: maximum cached responses
	// (-1 = unbounded, 0 = no cache).
	CacheSize int `json:"cache_size,omitempty"`
	// MaxRetryAfterMS caps honored provider Retry-After hints in
	// milliseconds (0 = the Retry middleware's 15s default).
	MaxRetryAfterMS int `json:"max_retry_after_ms,omitempty"`

	// BreakerFailures enables the circuit breaker: consecutive failures
	// that open it (0 with BreakerErrorRate 0 = no breaker; see
	// BreakerConfig for defaults of the remaining knobs).
	BreakerFailures int `json:"breaker_failures,omitempty"`
	// BreakerErrorRate opens the breaker at this failure fraction over the
	// last BreakerWindow outcomes (0 = consecutive-failures only).
	BreakerErrorRate float64 `json:"breaker_error_rate,omitempty"`
	// BreakerWindow is the rolling outcome window for BreakerErrorRate.
	BreakerWindow int `json:"breaker_window,omitempty"`
	// BreakerCooldownMS is how long the breaker stays open before half-open
	// probes, in milliseconds.
	BreakerCooldownMS int `json:"breaker_cooldown_ms,omitempty"`
	// BreakerProbes is the half-open probe count that closes the breaker.
	BreakerProbes int `json:"breaker_probes,omitempty"`

	// HedgeDelayMS enables tail-latency hedging: a second attempt races the
	// first once it has run this many milliseconds (0 = no hedging).
	HedgeDelayMS int `json:"hedge_delay_ms,omitempty"`
	// HedgeMax caps extra attempts per request (default 1).
	HedgeMax int `json:"hedge_max,omitempty"`

	// Fault injection (deterministic chaos harness wrapping the backend;
	// see internal/llm/faultllm). FaultRate is the fraction of requests
	// failing with FaultStatus; decisions derive from FaultSeed and the
	// request hash, so a plan is reproducible run to run.
	FaultRate float64 `json:"fault_rate,omitempty"`
	// FaultStatus is the injected error's HTTP-style status (default 503).
	FaultStatus int `json:"fault_status,omitempty"`
	// FaultSeed seeds the fault plan's deterministic decisions.
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// FaultLatencyMS adds fixed latency to every surviving completion.
	FaultLatencyMS int `json:"fault_latency_ms,omitempty"`
	// FaultTruncateRate is the fraction of surviving completions truncated
	// mid-text with finish reason "length".
	FaultTruncateRate float64 `json:"fault_truncate_rate,omitempty"`
	// FaultHangRate is the fraction of requests that hang until the caller's
	// context cancels them.
	FaultHangRate float64 `json:"fault_hang_rate,omitempty"`
}

// Factory constructs a backend client from a spec. The built-in providers
// are sim.Factory (over a knowledge context) and httpllm.Factory.
type Factory func(Spec) (Client, error)

// ParseSpecsArg decodes a -models flag value: inline JSON, or @path naming
// a JSON file.
func ParseSpecsArg(v string) ([]Spec, error) {
	if strings.HasPrefix(v, "@") {
		data, err := os.ReadFile(strings.TrimPrefix(v, "@"))
		if err != nil {
			return nil, fmt.Errorf("llm: reading model specs: %w", err)
		}
		return ParseSpecs(data)
	}
	return ParseSpecs([]byte(v))
}

// ParseSpecs decodes and validates a JSON array of model specs.
func ParseSpecs(data []byte) ([]Spec, error) {
	var specs []Spec
	if err := json.Unmarshal(data, &specs); err != nil {
		return nil, fmt.Errorf("llm: parsing model specs: %w", err)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("llm: model spec list is empty")
	}
	seen := make(map[string]bool, len(specs))
	for i, s := range specs {
		if s.Name == "" {
			return nil, fmt.Errorf("llm: model spec %d has no name", i)
		}
		if s.Provider == "" {
			return nil, fmt.Errorf("llm: model %q has no provider", s.Name)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("llm: duplicate model name %q", s.Name)
		}
		seen[s.Name] = true
	}
	return specs, nil
}

// BuildClient constructs one client from a spec: the provider backend
// wrapped in the spec's middleware stack, outermost first:
// Trace("llm.request") → Cache → Instrument → Breaker → Retry →
// Trace("llm.attempt") → RateLimit → Hedge → MaxInFlight →
// backend. The request span therefore covers the whole resilient request
// (cache hits included, marked by a cache_hit event), while each retry
// produces a fresh child attempt span — both free when no tracer rides the
// context. Cached hits skip accounting and throttling entirely;
// an open breaker fast-fails before any retrying (and the fast-fail is
// counted by Instrument but never retried); every retry attempt re-acquires
// a rate-limit token; each hedged attempt takes its own in-flight slot but
// shares the logical request's rate token; and the instrumented latency is
// the backend-reported completion latency of the final attempt (backoff
// waits are not included). stats may be nil to skip instrumentation.
func BuildClient(spec Spec, providers map[string]Factory, stats *Stats) (Client, error) {
	factory, ok := providers[spec.Provider]
	if !ok {
		return nil, fmt.Errorf("llm: model %q: unknown provider %q", spec.Name, spec.Provider)
	}
	base, err := factory(spec)
	if err != nil {
		return nil, fmt.Errorf("llm: model %q: %w", spec.Name, err)
	}
	if base.Name() != spec.Name {
		return nil, fmt.Errorf("llm: model %q: provider built client named %q", spec.Name, base.Name())
	}
	var mws []Middleware
	mws = append(mws, Trace("llm.request"))
	if spec.CacheSize != 0 {
		limit := spec.CacheSize
		if limit < 0 {
			limit = 0 // Cache treats <=0 as unbounded
		}
		mws = append(mws, Cache(limit))
	}
	if stats != nil {
		mws = append(mws, Instrument(stats))
	}
	if spec.BreakerFailures > 0 || spec.BreakerErrorRate > 0 {
		mws = append(mws, BreakerWith(BreakerConfig{
			Failures:  spec.BreakerFailures,
			ErrorRate: spec.BreakerErrorRate,
			Window:    spec.BreakerWindow,
			Cooldown:  time.Duration(spec.BreakerCooldownMS) * time.Millisecond,
			Probes:    spec.BreakerProbes,
		}, stats))
	}
	if spec.MaxAttempts > 1 {
		cfg := RetryConfig{
			MaxAttempts:   spec.MaxAttempts,
			BaseDelay:     time.Duration(spec.RetryBaseMS) * time.Millisecond,
			MaxRetryAfter: time.Duration(spec.MaxRetryAfterMS) * time.Millisecond,
		}
		if stats != nil {
			cfg.OnRetry = stats.RetryHook()
		}
		mws = append(mws, RetryWith(cfg))
	}
	mws = append(mws, Trace("llm.attempt"))
	if spec.RPS > 0 {
		mws = append(mws, RateLimitWith(spec.RPS, spec.Burst, stats))
	}
	if spec.HedgeDelayMS > 0 {
		mws = append(mws, HedgeWith(HedgeConfig{
			Delay:     time.Duration(spec.HedgeDelayMS) * time.Millisecond,
			MaxHedges: spec.HedgeMax,
		}, stats))
	}
	if spec.MaxInFlight > 0 {
		mws = append(mws, MaxInFlight(spec.MaxInFlight))
	}
	return Chain(base, mws...), nil
}

// ClientCache memoizes BuildClient results by spec name, so registries built
// repeatedly from the same spec set (one evaluation environment per seed,
// say) share one client instance per model — and with it the middleware
// state that must be global to mean anything: rate-limit token buckets,
// in-flight semaphores, and response caches. The zero value is ready to use.
type ClientCache struct {
	mu      sync.Mutex
	clients map[string]Client
}

// Build returns the cached client for spec.Name, constructing it on first
// use.
func (cc *ClientCache) Build(spec Spec, providers map[string]Factory, stats *Stats) (Client, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if c, ok := cc.clients[spec.Name]; ok {
		return c, nil
	}
	c, err := BuildClient(spec, providers, stats)
	if err != nil {
		return nil, err
	}
	if cc.clients == nil {
		cc.clients = make(map[string]Client)
	}
	cc.clients[spec.Name] = c
	return c, nil
}
