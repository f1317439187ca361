// Package serve turns the benchmark pipeline into a long-running evaluation
// service: benchmark-as-a-service instead of a one-shot table printer. It
// exposes every task in the core registry through one generic HTTP/JSON
// eval endpoint (plus GET /v1/tasks discovery) whose batch responses stream
// back as NDJSON in example order while completions are still running
// (built on the generic core task driver / runner.MapStream), serves
// rendered paper artifacts from a seed-keyed cache whose cold starts
// coalesce through runner.Flight, and reports request/coalescing/cache
// counters for operability. cmd/sqlserved is the thin binary around it.
package serve

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"

	"repro/internal/experiments"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/runner"
)

// Config controls service construction.
type Config struct {
	// Seed is the benchmark seed used when a request does not specify one.
	// 0 means 1, matching core.Build.
	DefaultSeed int64
	// Verify engine-checks generated equivalence pairs during environment
	// builds. Off by default for service latency; artifact output then
	// matches `sqlbench -noverify`.
	Verify bool
	// Parallel is the worker budget for environment builds and eval fan-out
	// (0 = GOMAXPROCS, 1 = sequential).
	Parallel int
	// EnvCacheCap bounds the number of cached evaluation environments
	// (seed × verify combinations); least-recently-used environments are
	// evicted beyond it so long-lived processes don't grow without bound.
	// 0 means the default of 4; negative means unbounded.
	EnvCacheCap int
	// ArtifactCacheCap bounds the rendered-artifact cache the same way.
	// 0 means the default of 256; negative means unbounded.
	ArtifactCacheCap int
	// RPS enables per-client admission control: each client (remote host)
	// may issue this many requests per second, with Burst of headroom;
	// over-limit requests are rejected with 429 + Retry-After and counted as
	// rate_limited in /v1/metrics. 0 disables admission control.
	RPS float64
	// Burst is the admission-control burst capacity (minimum 1).
	Burst int
	// TokensPerMin enables spend-based admission control on top of the
	// request-rate bucket: each client may consume this many completion
	// tokens per minute across its evals (with one minute's budget of
	// burst). Over-budget eval requests are rejected with 429 + Retry-After
	// and counted as token_limited in /v1/metrics. 0 disables it.
	TokensPerMin float64
	// Models optionally replaces the default simulated models with a
	// config-driven spec set (sqlserved -models); see llm.Spec.
	Models []llm.Spec
	// Logger receives structured request logs (one record per request, with
	// the trace id); nil disables logging.
	Logger *slog.Logger
	// TraceRing bounds the in-memory span ring served at GET /v1/trace:
	// 0 means the default of 2048, negative disables span retention (request
	// ids are still generated and propagated).
	TraceRing int
}

// Default cache caps: environments embed a whole benchmark plus memoized
// model results (tens of MB each), artifacts are small rendered text.
const (
	defaultEnvCacheCap      = 4
	defaultArtifactCacheCap = 256
	defaultTraceRing        = 2048
)

// cacheCap resolves a configured cap: 0 = default, negative = unbounded.
func cacheCap(configured, def int) int {
	switch {
	case configured == 0:
		return def
	case configured < 0:
		return 0 // Flight treats 0 as unbounded
	default:
		return configured
	}
}

// envKey identifies one cached evaluation environment.
type envKey struct {
	seed   int64
	verify bool
}

// artifactKey identifies one rendered experiment artifact.
type artifactKey struct {
	envKey
	id string
}

// Server is the evaluation service. It is safe for concurrent use; all
// shared state lives behind runner.Flight caches or atomic counters.
type Server struct {
	cfg     Config
	metrics *Metrics
	// llmStats aggregates per-model request/token/latency telemetry across
	// every cached environment (the env builder instruments each client with
	// it); /v1/metrics reports it under "models". llmClients shares
	// spec-built clients across environments so configured provider limits
	// (rate, in-flight, cache) apply globally, not per cached seed.
	llmStats   *llm.Stats
	llmClients llm.ClientCache
	// spend tracks per-client completion-token budgets when spend-based
	// admission control is enabled (nil otherwise).
	spend *spendLimiter
	// tracer creates request spans and retains the bounded ring behind
	// GET /v1/trace; every request is rooted in a span whose trace id doubles
	// as the X-Request-Id.
	tracer *obs.Tracer
	mux    *http.ServeMux

	// envs caches fully built evaluation environments per (seed, verify):
	// the benchmark plus simulated model registry plus memoized cell
	// results. artifacts caches rendered experiment output per environment
	// and experiment ID. Both coalesce concurrent cold-start requests onto
	// a single computation via Flight.
	envs      runner.Flight[envKey, *experiments.Env]
	artifacts runner.Flight[artifactKey, []byte]
}

// NewServer builds the service and its routing table.
func NewServer(cfg Config) *Server {
	if cfg.DefaultSeed == 0 {
		cfg.DefaultSeed = 1
	}
	s := &Server{cfg: cfg, metrics: NewMetrics(), llmStats: llm.NewStats(), mux: http.NewServeMux()}
	s.envs.SetLimit(cacheCap(cfg.EnvCacheCap, defaultEnvCacheCap))
	s.artifacts.SetLimit(cacheCap(cfg.ArtifactCacheCap, defaultArtifactCacheCap))
	if cfg.TokensPerMin > 0 {
		s.spend = newSpendLimiter(cfg.TokensPerMin)
	}
	if ringCap := cacheCap(cfg.TraceRing, defaultTraceRing); ringCap > 0 {
		s.tracer = obs.New(obs.WithRing(ringCap))
	} else {
		s.tracer = obs.New()
	}
	s.mux.HandleFunc("POST /v1/eval/{task}", s.handleEval)
	s.mux.HandleFunc("GET /v1/tasks", s.handleTasks)
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.handleExperiment)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperimentList)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/metrics/prom", s.handleMetricsProm)
	s.mux.HandleFunc("GET /v1/trace", s.handleTrace)
	return s
}

// Handler returns the service's root handler with middleware applied:
// recovery outermost, then request-id/span creation (so every inner layer —
// logging included — sees the trace id), then logging and request counting,
// then per-client admission control (so shed requests are still counted and
// logged), then spend-based token-budget admission layered inside the
// request-rate bucket.
func (s *Server) Handler() http.Handler {
	return chain(s.mux,
		recovery(s.cfg.Logger),
		requestID(s.tracer),
		requestLog(s.cfg.Logger),
		count(s.metrics),
		admission(s.cfg.RPS, s.cfg.Burst, s.metrics),
		spendAdmission(s.spend, s.metrics),
	)
}

// Metrics exposes the server's counters (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// ModelStats exposes the per-model usage telemetry (for tests and
// embedding).
func (s *Server) ModelStats() *llm.Stats { return s.llmStats }

// env returns the cached evaluation environment for key, building it on
// first use. Concurrent cold requests coalesce; hits are counted.
func (s *Server) env(key envKey) (*experiments.Env, error) {
	env, shared, err := s.envs.DoShared(key, func() (*experiments.Env, error) {
		return experiments.NewEnvConfig(experiments.Config{
			Seed:               key.seed,
			VerifyEquivalences: key.verify,
			Parallel:           s.cfg.Parallel,
			Models:             s.cfg.Models,
			Stats:              s.llmStats,
			ClientCache:        &s.llmClients,
			Tracer:             s.tracer,
		})
	})
	if shared {
		s.metrics.CoalesceHits.Add(1)
	}
	s.syncCacheMetrics()
	return env, err
}

// syncCacheMetrics mirrors the Flight cache sizes and eviction totals into
// the metrics snapshot.
func (s *Server) syncCacheMetrics() {
	s.metrics.EnvCacheSize.Store(int64(s.envs.Len()))
	s.metrics.ArtifactCacheSize.Store(int64(s.artifacts.Len()))
	s.metrics.CacheEvictions.Store(s.envs.Evictions() + s.artifacts.Evictions())
}

// artifact returns the rendered output of one experiment for key, running
// the experiment on first use. Concurrent cold requests for the same
// artifact trigger exactly one render; hits are counted.
func (s *Server) artifact(key artifactKey) ([]byte, error) {
	out, shared, err := s.artifacts.DoShared(key, func() ([]byte, error) {
		exp, ok := experiments.ByID(key.id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", key.id)
		}
		env, err := s.env(key.envKey)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := exp.Run(env, &buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
	if shared {
		s.metrics.CoalesceHits.Add(1)
	}
	s.syncCacheMetrics()
	return out, err
}
