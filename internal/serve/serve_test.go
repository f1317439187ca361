package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/llm"
	"repro/internal/metrics"
)

// newTestServer shares one service (and hence one built environment) across
// the tests in this file; building the benchmark is the expensive part.
var (
	testSrvOnce sync.Once
	testSrv     *httptest.Server
	testServer  *Server
)

func testServerAndURL(t *testing.T) (*Server, string) {
	t.Helper()
	testSrvOnce.Do(func() {
		testServer = NewServer(Config{DefaultSeed: 1, Parallel: 4})
		testSrv = httptest.NewServer(testServer.Handler())
	})
	return testServer, testSrv.URL
}

func TestHealthz(t *testing.T) {
	_, url := testServerAndURL(t)
	resp, err := http.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if body["status"] != "ok" {
		t.Fatalf("body = %v", body)
	}
}

// EvalLine is the union of every line shape the generic encoder emits for
// the built-in tasks — the decode-side companion of encodeLine. Prediction
// fields are task-specific; Want* fields appear only for labeled benchmark
// examples.
type EvalLine struct {
	Index int    `json:"index"`
	ID    string `json:"id"`
	Task  string `json:"task"`
	SQL   string `json:"sql"`
	SQL2  string `json:"sql2,omitempty"` // equiv: right-hand query

	// syntax task
	PredHasError  *bool  `json:"pred_has_error,omitempty"`
	PredErrorType string `json:"pred_error_type,omitempty"`
	WantHasError  *bool  `json:"want_has_error,omitempty"`
	WantErrorType string `json:"want_error_type,omitempty"`

	// tokens task
	PredMissing  *bool  `json:"pred_missing,omitempty"`
	PredKind     string `json:"pred_kind,omitempty"`
	PredPosition *int   `json:"pred_position,omitempty"`
	WantMissing  *bool  `json:"want_missing,omitempty"`
	WantKind     string `json:"want_kind,omitempty"`
	WantPosition *int   `json:"want_position,omitempty"`

	// equiv task
	PredEquivalent *bool  `json:"pred_equivalent,omitempty"`
	PredEquivType  string `json:"pred_equiv_type,omitempty"`
	WantEquivalent *bool  `json:"want_equivalent,omitempty"`
	WantEquivType  string `json:"want_equiv_type,omitempty"`

	// perf task
	PredCostly *bool `json:"pred_costly,omitempty"`
	WantCostly *bool `json:"want_costly,omitempty"`

	// fill task
	PredToken string `json:"pred_token,omitempty"`
	WantToken string `json:"want_token,omitempty"`

	// explain task
	Explanation string   `json:"explanation,omitempty"`
	Coverage    *float64 `json:"coverage,omitempty"`

	// Correct compares the primary binary prediction against the label on
	// labeled examples.
	Correct *bool `json:"correct,omitempty"`

	// Response is the raw model response (omitted for explain, whose
	// response is the explanation itself).
	Response string `json:"response,omitempty"`

	// Usage is the completion's token accounting; LatencyMS its wall time
	// (deterministic simulated values under the sim backends).
	Usage     *UsageInfo `json:"usage,omitempty"`
	LatencyMS float64    `json:"latency_ms,omitempty"`

	// Failed marks an inline error row of a continue-on-error eval; Error
	// carries the completion failure. Prediction fields are absent on such
	// rows.
	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`
}

// decodeNDJSON reads every line of an eval response.
func decodeNDJSON(t *testing.T, resp *http.Response) []EvalLine {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := json.Marshal(resp.Header)
		t.Fatalf("status = %d (headers %s)", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var lines []EvalLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line EvalLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanning: %v", err)
	}
	return lines
}

func postEval(t *testing.T, url, task string, req EvalRequest) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/eval/"+task, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST eval/%s: %v", task, err)
	}
	return resp
}

// A whole-cell syntax eval must stream one labeled line per benchmark
// example, in dataset order.
func TestEvalSyntaxCellStreamsInOrder(t *testing.T) {
	srv, url := testServerAndURL(t)
	lines := decodeNDJSON(t, postEval(t, url, "syntax", EvalRequest{Model: "GPT4", Dataset: core.SDSS}))
	env, err := srv.env(envKey{seed: 1})
	if err != nil {
		t.Fatalf("env: %v", err)
	}
	ds := env.Bench.Syntax[core.SDSS]
	if len(lines) != len(ds) {
		t.Fatalf("streamed %d lines, want %d", len(lines), len(ds))
	}
	for i, line := range lines {
		if line.Index != i {
			t.Fatalf("line %d has index %d", i, line.Index)
		}
		if line.ID != ds[i].ID {
			t.Fatalf("line %d: ID %q, want %q (order broken)", i, line.ID, ds[i].ID)
		}
		if line.PredHasError == nil || line.WantHasError == nil || line.Correct == nil {
			t.Fatalf("line %d missing labeled fields: %+v", i, line)
		}
		if *line.WantHasError != ds[i].HasError {
			t.Fatalf("line %d: want_has_error mismatch", i)
		}
	}
}

// Ad-hoc submitted SQL gets predictions but no ground-truth fields.
func TestEvalAdHocSQL(t *testing.T) {
	_, url := testServerAndURL(t)
	lines := decodeNDJSON(t, postEval(t, url, "syntax", EvalRequest{
		Model: "GPT4",
		SQL: []string{
			"SELECT plate, mjd FROM SpecObj WHERE z > 0.5",
			"SELECT plate mjd FROM SpecObj",
		},
	}))
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	for i, line := range lines {
		if line.ID != fmt.Sprintf("adhoc/%d", i) {
			t.Fatalf("line %d ID = %q", i, line.ID)
		}
		if line.PredHasError == nil {
			t.Fatalf("line %d has no prediction", i)
		}
		if line.WantHasError != nil || line.Correct != nil {
			t.Fatalf("ad-hoc line %d carries ground truth: %+v", i, line)
		}
	}
}

// Selecting benchmark examples by ID returns exactly those, in request order.
func TestEvalByID(t *testing.T) {
	srv, url := testServerAndURL(t)
	env, err := srv.env(envKey{seed: 1})
	if err != nil {
		t.Fatalf("env: %v", err)
	}
	ds := env.Bench.Tokens[core.SQLShare]
	ids := []string{ds[3].ID, ds[0].ID, ds[7].ID}
	lines := decodeNDJSON(t, postEval(t, url, "tokens", EvalRequest{
		Model: "Llama3", Dataset: core.SQLShare, IDs: ids,
	}))
	if len(lines) != len(ids) {
		t.Fatalf("got %d lines, want %d", len(lines), len(ids))
	}
	for i, line := range lines {
		if line.ID != ids[i] {
			t.Fatalf("line %d: ID %q, want %q", i, line.ID, ids[i])
		}
		if line.WantMissing == nil || line.PredMissing == nil {
			t.Fatalf("line %d missing fields: %+v", i, line)
		}
	}
}

// The equiv task takes ad-hoc pairs.
func TestEvalEquivPairs(t *testing.T) {
	_, url := testServerAndURL(t)
	lines := decodeNDJSON(t, postEval(t, url, "equiv", EvalRequest{
		Model: "GPT4",
		Pairs: [][2]string{
			{"SELECT plate FROM SpecObj WHERE z > 1", "SELECT plate FROM SpecObj WHERE 1 < z"},
		},
	}))
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1", len(lines))
	}
	if lines[0].PredEquivalent == nil || lines[0].SQL2 == "" {
		t.Fatalf("bad pair line: %+v", lines[0])
	}
}

// Bad requests fail fast with JSON errors, before any streaming starts.
func TestEvalValidation(t *testing.T) {
	_, url := testServerAndURL(t)
	cases := []struct {
		task   string
		req    EvalRequest
		status int
	}{
		{"syntax", EvalRequest{}, http.StatusBadRequest},                                                                         // no model
		{"syntax", EvalRequest{Model: "nope"}, http.StatusBadRequest},                                                            // unknown model
		{"syntax", EvalRequest{Model: "GPT4", Dataset: "nope"}, http.StatusBadRequest},                                           // unknown dataset
		{"syntax", EvalRequest{Model: "GPT4", IDs: []string{"x"}}, http.StatusBadRequest},                                        // unknown ID
		{"nosuch", EvalRequest{Model: "GPT4"}, http.StatusNotFound},                                                              // unknown task
		{"syntax", EvalRequest{Model: "GPT4", Seed: -1}, http.StatusBadRequest},                                                  // bad seed
		{"equiv", EvalRequest{Model: "GPT4", SQL: []string{"SELECT 1"}}, http.StatusBadRequest},                                  // sql on equiv
		{"syntax", EvalRequest{Model: "GPT4", Pairs: [][2]string{{"a", "b"}}}, http.StatusBadRequest},                            // pairs off equiv
		{"syntax", EvalRequest{Model: "GPT4", SQL: []string{"SELECT 1"}, IDs: []string{"sdss-0001/syn"}}, http.StatusBadRequest}, // both sources
	}
	for _, tc := range cases {
		resp := postEval(t, url, tc.task, tc.req)
		var e ErrorLine
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s %+v: status %d, want %d (error %q)", tc.task, tc.req, resp.StatusCode, tc.status, e.Error)
		}
		if e.Error == "" {
			t.Errorf("%s %+v: no error body", tc.task, tc.req)
		}
	}
	// An explicit empty source must 400, not stream the whole cell (this
	// can't go through the table: omitempty drops the empty slice).
	resp, err := http.Post(url+"/v1/eval/syntax", "application/json",
		strings.NewReader(`{"model":"GPT4","sql":[]}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty sql: status %d, want 400", resp.StatusCode)
	}
}

// Simultaneous cold requests for the same artifact must trigger exactly one
// environment build: one caller builds, the others coalesce and the hit
// counter says so.
func TestExperimentColdStartCoalesces(t *testing.T) {
	// A dedicated server so counters start at zero and nothing is warm.
	s := NewServer(Config{DefaultSeed: 1, Parallel: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	before := s.Metrics().CoalesceHits.Load()
	const clients = 4
	outs := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/experiments/table2")
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			outs[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if !bytes.Equal(outs[0], outs[i]) {
			t.Fatalf("client %d got different artifact bytes", i)
		}
	}
	if len(outs[0]) == 0 {
		t.Fatal("empty artifact")
	}
	// clients-1 of the artifact requests coalesced onto the one env build
	// (a client that arrives after the build finished is a cache hit, which
	// counts the same, hence >=).
	hits := s.Metrics().CoalesceHits.Load() - before
	if hits < clients-1 {
		t.Fatalf("coalesce hits = %d, want >= %d", hits, clients-1)
	}
	// A warm re-request is also an (env cache) hit and byte-identical.
	resp, err := http.Get(ts.URL + "/v1/experiments/table2")
	if err != nil {
		t.Fatalf("warm GET: %v", err)
	}
	var warm bytes.Buffer
	warm.ReadFrom(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(outs[0], warm.Bytes()) {
		t.Fatal("warm artifact differs from cold")
	}
	if got := s.Metrics().CoalesceHits.Load(); got <= hits+before-1 {
		t.Fatalf("warm hit not counted: %d", got)
	}
}

// The artifact endpoint must serve exactly what the batch pipeline prints.
func TestExperimentMatchesPipeline(t *testing.T) {
	_, url := testServerAndURL(t)
	resp, err := http.Get(url + "/v1/experiments/table1")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	got.ReadFrom(resp.Body)

	exp, ok := experiments.ByID("table1")
	if !ok {
		t.Fatal("table1 not registered")
	}
	env, err := experiments.NewEnvConfig(experiments.Config{Seed: 1, Parallel: 4})
	if err != nil {
		t.Fatalf("env: %v", err)
	}
	var want bytes.Buffer
	if err := exp.Run(env, &want); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got.String() != want.String() {
		t.Fatalf("served artifact differs from pipeline output:\n--- served\n%s\n--- pipeline\n%s", got.String(), want.String())
	}
}

func TestExperimentNotFound(t *testing.T) {
	_, url := testServerAndURL(t)
	resp, err := http.Get(url + "/v1/experiments/nope")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// metricsPayload decodes /v1/metrics: top-level counters, the per-task
// failure breakdown and the per-model section, each value in its JSON type.
type metricsPayload struct {
	counters map[string]int64
	byTask   map[string]int64
	models   map[string]map[string]any
}

func getMetrics(t *testing.T, url string) metricsPayload {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	out := metricsPayload{counters: map[string]int64{}}
	for k, v := range raw {
		var dst any
		switch k {
		case "models":
			dst = &out.models
		case "failed_by_task":
			dst = &out.byTask
		default:
			var n int64
			if err := json.Unmarshal(v, &n); err != nil {
				t.Fatalf("counter %s is not an integer: %s", k, v)
			}
			out.counters[k] = n
			continue
		}
		if err := json.Unmarshal(v, dst); err != nil {
			t.Fatalf("decode %s section: %v", k, err)
		}
	}
	return out
}

// Metrics must report request and streamed-result activity, plus per-model
// usage telemetry for the models the evals drove: every service family at
// the top level and every model family under models.<model>.
func TestMetricsEndpoint(t *testing.T) {
	srv, url := testServerAndURL(t)
	// Generate at least one eval line so counters are non-zero.
	decodeNDJSON(t, postEval(t, url, "perf", EvalRequest{
		Model: "Gemini",
		SQL:   []string{"SELECT TOP 10 * FROM PhotoObj"},
	}))
	m := getMetrics(t, url)
	for _, f := range serviceFamilies {
		if _, ok := m.counters[f.Name]; !ok {
			t.Errorf("family %s missing from /v1/metrics (all: %v)", f.Name, m.counters)
		}
	}
	for _, key := range []string{"requests_total", "eval_requests", "results_streamed", "env_cache_size"} {
		if m.counters[key] <= 0 {
			t.Errorf("metric %s = %d, want > 0 (all: %v)", key, m.counters[key], m.counters)
		}
	}
	gem, ok := m.models["Gemini"]
	if !ok {
		t.Fatalf("no per-model usage for Gemini: %v", m.models)
	}
	for _, f := range llm.ModelFamilies {
		v, ok := gem[f.Name]
		switch {
		case f.Type == metrics.Histogram:
			if ok {
				t.Errorf("histogram family %s rendered in JSON: %v", f.Name, v)
			}
		case f.States != nil:
			if _, isStr := v.(string); !isStr {
				t.Errorf("models.Gemini.%s = %#v, want a state name", f.Name, v)
			}
		default:
			if _, isNum := v.(float64); !isNum {
				t.Errorf("models.Gemini.%s = %#v, want a number", f.Name, v)
			}
		}
	}
	num := func(k string) float64 { v, _ := gem[k].(float64); return v }
	if num("requests") < 1 || num("prompt_tokens") <= 0 || num("completion_tokens") <= 0 {
		t.Errorf("Gemini usage = %v", gem)
	}
	if num("total_tokens") != num("prompt_tokens")+num("completion_tokens") {
		t.Errorf("total tokens inconsistent: %v", gem)
	}
	if num("latency_mean_ms") <= 0 {
		t.Errorf("latency mean = %v", gem["latency_mean_ms"])
	}
	if srv.Metrics().Requests.Load() < 2 {
		t.Errorf("requests counter = %d", srv.Metrics().Requests.Load())
	}
}

// The /v1/metrics key set is published API: each of these keys keeps its
// name, nesting, JSON type and value whatever families are added.
func TestMetricsKeepsEarlierKeys(t *testing.T) {
	srv, url := testServerAndURL(t)
	decodeNDJSON(t, postEval(t, url, "syntax", EvalRequest{Model: "GPT4", SQL: []string{"SELECT objid FROM PhotoObj"}}))
	srv.Metrics().FailedExample("syntax")
	m := getMetrics(t, url)
	for _, k := range []string{
		"requests_total", "eval_requests", "experiment_requests", "results_streamed",
		"coalesce_hits", "in_flight", "env_cache_size", "cache_evictions", "rate_limited", "token_limited", "failed_examples",
		"breaker_sheds",
	} {
		if _, ok := m.counters[k]; !ok {
			t.Errorf("top-level key %s missing", k)
		}
	}
	if m.counters["results_streamed"] != srv.Metrics().ResultsStreamed.Load() {
		t.Errorf("results_streamed = %d, counter holds %d", m.counters["results_streamed"], srv.Metrics().ResultsStreamed.Load())
	}
	if m.byTask["syntax"] != 1 || m.counters["failed_examples"] != 1 {
		t.Errorf("failed_by_task = %v, failed_examples = %d; want syntax: 1, 1", m.byTask, m.counters["failed_examples"])
	}
	gpt, ok := m.models["GPT4"]
	if !ok {
		t.Fatalf("models.GPT4 missing: %v", m.models)
	}
	for _, k := range []string{
		"requests", "errors", "retries", "rate_limited", "prompt_tokens",
		"completion_tokens", "total_tokens", "latency_mean_ms", "latency_p50_ms",
		"latency_p95_ms", "latency_p99_ms", "latency_max_ms", "breaker_opens",
		"breaker_fast_fails", "hedges_launched", "hedges_won", "hedge_wasted_tokens",
	} {
		if _, ok := gpt[k].(float64); !ok {
			t.Errorf("models.GPT4.%s = %#v, want a number", k, gpt[k])
		}
	}
	if gpt["breaker_state"] != "closed" {
		t.Errorf("models.GPT4.breaker_state = %#v, want \"closed\"", gpt["breaker_state"])
	}
	ms := srv.ModelStats().Model("GPT4")
	if gpt["requests"] != float64(ms.Requests.Load()) || gpt["completion_tokens"] != float64(ms.CompletionTokens.Load()) {
		t.Errorf("models.GPT4 = %v, stats hold requests=%d completion_tokens=%d", gpt, ms.Requests.Load(), ms.CompletionTokens.Load())
	}
	if gpt["latency_max_ms"] != float64(ms.Latency.Max())/float64(time.Millisecond) {
		t.Errorf("latency_max_ms = %v, histogram max %v", gpt["latency_max_ms"], ms.Latency.Max())
	}
}

// A capped environment cache evicts the least recently used environment
// and reports it through the metrics endpoint; an artifact of an evicted
// seed still renders byte-identically (its environment is simply rebuilt).
func TestEnvCacheEviction(t *testing.T) {
	srv := NewServer(Config{DefaultSeed: 1, Parallel: 4, EnvCacheCap: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fetch := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, buf.String())
		}
		return buf.String()
	}
	first := fetch("/v1/experiments/table2?seed=1")
	fetch("/v1/experiments/table2?seed=2") // evicts seed 1 under cap 1
	m := getMetrics(t, ts.URL)
	if m.counters["cache_evictions"] != 1 {
		t.Errorf("cache_evictions = %d, want 1 (all: %v)", m.counters["cache_evictions"], m.counters)
	}
	if m.counters["env_cache_size"] != 1 {
		t.Errorf("env_cache_size = %d, want 1", m.counters["env_cache_size"])
	}
	if again := fetch("/v1/experiments/table2?seed=1"); again != first {
		t.Error("artifact of a rebuilt environment differs from the evicted one")
	}
}

// The experiment list endpoint mirrors the registry.
func TestExperimentList(t *testing.T) {
	_, url := testServerAndURL(t)
	resp, err := http.Get(url + "/v1/experiments")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	var infos []ExperimentInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(infos) != len(experiments.All()) {
		t.Fatalf("listed %d experiments, want %d", len(infos), len(experiments.All()))
	}
}

// Unknown-field requests are rejected so client typos don't silently
// evaluate the wrong thing.
func TestEvalRejectsUnknownFields(t *testing.T) {
	_, url := testServerAndURL(t)
	resp, err := http.Post(url+"/v1/eval/syntax", "application/json",
		strings.NewReader(`{"model":"GPT4","datset":"SDSS"}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// A statement nested 480,000 levels deep, in a body just under the eval
// limit, gets an ordinary response: the parser stops at its nesting bound
// instead of overflowing the stack, which no recovery middleware could
// catch. The server answers healthz afterwards.
func TestEvalDeepNestingGetsResponse(t *testing.T) {
	_, url := testServerAndURL(t)
	const depth = 480000
	sql := "SELECT " + strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth) + " FROM t"
	body, err := json.Marshal(map[string]any{"model": "GPT4", "sql": []string{sql}})
	if err != nil {
		t.Fatal(err)
	}
	if len(body) >= maxEvalBody {
		t.Fatalf("body is %d bytes, over the %d-byte limit", len(body), maxEvalBody)
	}
	resp, err := http.Post(url+"/v1/eval/syntax", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	lines := decodeNDJSON(t, resp)
	if len(lines) != 1 || lines[0].PredHasError == nil || !*lines[0].PredHasError ||
		!strings.Contains(lines[0].Response, "nesting exceeds 128 levels") {
		t.Fatalf("got %d lines, want one that finds the nesting error", len(lines))
	}
	health, err := http.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatalf("GET healthz after the deep eval: %v", err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d after the deep eval", health.StatusCode)
	}
}
