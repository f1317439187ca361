package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/llm"
	"repro/internal/metrics"
)

// Metrics holds the service's operational counters. All fields are atomics;
// a Metrics value is safe for concurrent use. serviceFamilies reads them for
// every telemetry surface.
type Metrics struct {
	// Requests counts every HTTP request received, including errors.
	Requests atomic.Int64
	// EvalRequests counts POST /v1/eval/* requests.
	EvalRequests atomic.Int64
	// ExperimentRequests counts GET /v1/experiments/* requests.
	ExperimentRequests atomic.Int64
	// ResultsStreamed counts NDJSON result lines written across all eval
	// responses.
	ResultsStreamed atomic.Int64
	// CoalesceHits counts requests served by joining an in-flight or
	// completed environment build instead of building it themselves.
	CoalesceHits atomic.Int64
	// InFlight is the number of requests currently being served.
	InFlight atomic.Int64
	// RateLimited counts requests rejected with 429 by the admission-control
	// middleware.
	RateLimited atomic.Int64
	// TokenLimited counts eval requests rejected with 429 by the spend-based
	// (completion-token budget) admission middleware.
	TokenLimited atomic.Int64
	// FailedExamples counts inline error rows streamed by continue-on-error
	// evals, across all tasks; per-task counts live in failedByTask.
	FailedExamples atomic.Int64
	// BreakerSheds counts eval requests rejected with 503 + Retry-After
	// because the target model's circuit breaker was open.
	BreakerSheds atomic.Int64

	// failedByTask breaks FailedExamples down by task id.
	failedByTask sync.Map // string → *atomic.Int64
}

// FailedExample records one streamed error row against the totals and the
// per-task breakdown.
func (m *Metrics) FailedExample(task string) {
	m.FailedExamples.Add(1)
	c, ok := m.failedByTask.Load(task)
	if !ok {
		c, _ = m.failedByTask.LoadOrStore(task, new(atomic.Int64))
	}
	c.(*atomic.Int64).Add(1)
}

// FailedByTask returns the per-task failed-example counts labeled by task,
// sorted.
func (m *Metrics) FailedByTask() []metrics.Labeled[int64] {
	var out []metrics.Labeled[int64]
	m.failedByTask.Range(func(k, v any) bool {
		out = append(out, metrics.Labeled[int64]{Label: k.(string), From: v.(*atomic.Int64).Load()})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// NewMetrics returns zeroed metrics.
func NewMetrics() *Metrics { return &Metrics{} }

// serviceFamilies are the service's unlabeled telemetry families: the top
// level of /v1/metrics and the sqlserved_<name> samples of /v1/metrics/prom.
// Adding a service counter means adding one entry here.
var serviceFamilies = []metrics.Family[*Server]{
	{Name: "requests_total", Type: metrics.Counter, Help: "HTTP requests received, including errors.",
		Value: func(s *Server) float64 { return float64(s.metrics.Requests.Load()) }},
	{Name: "eval_requests", Type: metrics.Counter, Help: "POST /v1/eval/* requests received.",
		Value: func(s *Server) float64 { return float64(s.metrics.EvalRequests.Load()) }},
	{Name: "experiment_requests", Type: metrics.Counter, Help: "GET /v1/experiments/* requests received.",
		Value: func(s *Server) float64 { return float64(s.metrics.ExperimentRequests.Load()) }},
	{Name: "results_streamed", Type: metrics.Counter, Help: "NDJSON eval result lines written.",
		Value: func(s *Server) float64 { return float64(s.metrics.ResultsStreamed.Load()) }},
	{Name: "coalesce_hits", Type: metrics.Counter, Help: "Requests served by joining an in-flight or cached environment build.",
		Value: func(s *Server) float64 { return float64(s.metrics.CoalesceHits.Load()) }},
	{Name: "in_flight", Type: metrics.Gauge, Help: "Requests currently being served.",
		Value: func(s *Server) float64 { return float64(s.metrics.InFlight.Load()) }},
	{Name: "env_cache_size", Type: metrics.Gauge, Help: "Cached evaluation environments.",
		Value: func(s *Server) float64 { return float64(s.envs.Len()) }},
	{Name: "cache_evictions", Type: metrics.Counter, Help: "Environments evicted to honor the LRU cap.",
		Value: func(s *Server) float64 { return float64(s.envs.Evictions()) }},
	{Name: "rate_limited", Type: metrics.Counter, Help: "Requests rejected 429 by request-rate admission control.",
		Value: func(s *Server) float64 { return float64(s.metrics.RateLimited.Load()) }},
	{Name: "token_limited", Type: metrics.Counter, Help: "Eval requests rejected 429 by the completion-token budget.",
		Value: func(s *Server) float64 { return float64(s.metrics.TokenLimited.Load()) }},
	{Name: "failed_examples", Type: metrics.Counter, Help: "Inline error rows streamed by continue-on-error evals.",
		Value: func(s *Server) float64 { return float64(s.metrics.FailedExamples.Load()) }},
	{Name: "breaker_sheds", Type: metrics.Counter, Help: "Eval requests rejected 503 while a model breaker was open.",
		Value: func(s *Server) float64 { return float64(s.metrics.BreakerSheds.Load()) }},
	{Name: "trace_spans", Type: metrics.Gauge, Help: "Completed spans retained in the trace ring.",
		Value: func(s *Server) float64 { n, _ := s.tracer.Retained(); return float64(n) }},
	{Name: "trace_evicted_total", Type: metrics.Counter, Help: "Spans evicted from the trace ring.",
		Value: func(s *Server) float64 { _, n := s.tracer.Retained(); return float64(n) }},
}

// failedByTaskFamily fans failed_examples out over the task label. JSON
// nests it as failed_by_task.<task>, Prometheus renders
// sqlserved_failed_examples_by_task{task="..."}.
var failedByTaskFamily = metrics.Family[int64]{
	Name: "failed_examples_by_task", Type: metrics.Counter, Help: "Inline error rows streamed, by task.",
	Value: func(n int64) float64 { return float64(n) },
}

// handleMetrics serves the telemetry families as JSON: the service families
// at the top level, the per-task failure counts under failed_by_task, and
// llm.ModelFamilies per model under models.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	payload := metrics.Object(serviceFamilies, s)
	byTask := make(map[string]any)
	for _, t := range s.metrics.FailedByTask() {
		byTask[t.Label] = failedByTaskFamily.JSON(t.From)
	}
	payload["failed_by_task"] = byTask
	models := make(map[string]any)
	for _, m := range s.llmStats.Sources() {
		models[m.Label] = metrics.Object(llm.ModelFamilies, m.From)
	}
	payload["models"] = models
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(payload)
}

// handleMetricsProm serves the same families in Prometheus text exposition
// format: service families as sqlserved_*, the per-task and per-model ones
// as labeled samples, each model's latency histogram in cumulative-bucket
// form.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	var b bytes.Buffer
	metrics.WriteProm(&b, "sqlserved_", serviceFamilies, "", metrics.Labeled[*Server]{From: s})
	metrics.WriteProm(&b, "sqlserved_", []metrics.Family[int64]{failedByTaskFamily}, "task", s.metrics.FailedByTask()...)
	metrics.WriteProm(&b, "sqlserved_model_", llm.ModelFamilies, "model", s.llmStats.Sources()...)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(b.Bytes())
}
