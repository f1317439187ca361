package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/llm"
	"repro/internal/metrics"
)

var hexID32 = regexp.MustCompile(`^[0-9a-f]{32}$`)

// Every response must carry a generated X-Request-Id (32 hex), and the
// access path must accept and echo a propagated one.
func TestRequestIDGenerated(t *testing.T) {
	_, url := testServerAndURL(t)
	resp, err := http.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-Id")
	if !hexID32.MatchString(id) {
		t.Fatalf("X-Request-Id = %q, want 32 hex digits", id)
	}
	// A second request gets a distinct id.
	resp2, err := http.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	resp2.Body.Close()
	if id2 := resp2.Header.Get("X-Request-Id"); id2 == id {
		t.Fatalf("two requests share X-Request-Id %q", id)
	}
}

func TestRequestIDPropagated(t *testing.T) {
	_, url := testServerAndURL(t)
	const want = "00112233445566778899aabbccddeeff"
	cases := []struct {
		header, value string
	}{
		{"traceparent", "00-" + want + "-00f067aa0ba902b7-01"},
		{"X-Request-Id", want},
		{"X-Request-Id", strings.ToUpper(want)}, // normalized to lowercase
	}
	for _, c := range cases {
		req, _ := http.NewRequest("GET", url+"/v1/healthz", nil)
		req.Header.Set(c.header, c.value)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET healthz: %v", err)
		}
		resp.Body.Close()
		if got := resp.Header.Get("X-Request-Id"); got != want {
			t.Errorf("%s %q: X-Request-Id = %q, want %q", c.header, c.value, got, want)
		}
	}
	// Malformed propagation headers are ignored, not echoed.
	for _, bad := range []string{"not-hex", "00-zz-xx-01", "1234"} {
		req, _ := http.NewRequest("GET", url+"/v1/healthz", nil)
		req.Header.Set("X-Request-Id", bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET healthz: %v", err)
		}
		resp.Body.Close()
		if got := resp.Header.Get("X-Request-Id"); got == bad || !hexID32.MatchString(got) {
			t.Errorf("malformed id %q: X-Request-Id = %q, want fresh 32-hex id", bad, got)
		}
	}
}

// An eval request's whole span tree — http.request down to llm.request —
// must land in the /v1/trace ring under the propagated trace id.
func TestTraceEndpoint(t *testing.T) {
	_, url := testServerAndURL(t)
	const id = "feedfacefeedfacefeedfacefeedface"
	body := strings.NewReader(`{"model":"GPT4","sql":["SELECT objid FROM PhotoObj"]}`)
	req, _ := http.NewRequest("POST", url+"/v1/eval/syntax", body)
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST eval: %v", err)
	}
	decodeNDJSON(t, resp)

	traceResp, err := http.Get(url + "/v1/trace")
	if err != nil {
		t.Fatalf("GET trace: %v", err)
	}
	defer traceResp.Body.Close()
	var snap TraceSnapshot
	if err := json.NewDecoder(traceResp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	names := map[string]int{}
	for _, s := range snap.Spans {
		if s.TraceID == id {
			names[s.Name]++
		}
	}
	// The default simulated clients carry no retry middleware, so the tree
	// bottoms out at llm.request; spec-built clients add llm.attempt spans
	// (covered in the llm package tests).
	for _, want := range []string{"http.request", "task.example", "prompt.render", "llm.request"} {
		if names[want] == 0 {
			t.Errorf("trace %s has no %q span (got %v)", id, want, names)
		}
	}
	// The root span records the request route and status.
	for _, s := range snap.Spans {
		if s.TraceID == id && s.Name == "http.request" {
			if s.Attrs["path"] != "/v1/eval/syntax" {
				t.Errorf("http.request path = %v", s.Attrs["path"])
			}
			if st, _ := s.Attrs["status"].(float64); int(st) != http.StatusOK {
				t.Errorf("http.request status = %v", s.Attrs["status"])
			}
			if s.ParentID != "" {
				t.Errorf("http.request should be a root span, parent %q", s.ParentID)
			}
		}
	}
}

// promLine matches one exposition sample: name, optional {labels}, value.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+]+|\+Inf|NaN)$`)

// promSamples parses an exposition body line by line, failing the test on
// anything that is neither a comment nor a well-formed sample, and returns
// samples keyed by name{labels}.
func promSamples(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("unparseable sample value in %q: %v", line, err)
		}
		out[m[1]+m[2]] = v
	}
	return out
}

func TestPromExposition(t *testing.T) {
	_, url := testServerAndURL(t)
	// Drive one eval so model telemetry and latency samples exist.
	resp := postEval(t, url, "syntax", EvalRequest{Model: "GPT4", SQL: []string{"SELECT objid FROM PhotoObj"}})
	decodeNDJSON(t, resp)

	promResp, err := http.Get(url + "/v1/metrics/prom")
	if err != nil {
		t.Fatalf("GET metrics/prom: %v", err)
	}
	defer promResp.Body.Close()
	if ct := promResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(promResp.Body)
	if err != nil {
		t.Fatalf("read exposition: %v", err)
	}
	body := string(raw)
	samples := promSamples(t, body)

	// The JSON endpoint's counters all appear, prefixed.
	jsonResp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	defer jsonResp.Body.Close()
	var payload map[string]any
	if err := json.NewDecoder(jsonResp.Body).Decode(&payload); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	for _, f := range serviceFamilies {
		got, ok := samples["sqlserved_"+f.Name]
		if !ok {
			t.Errorf("exposition missing sqlserved_%s", f.Name)
			continue
		}
		// Monotonic counters can only have grown between the two scrapes
		// (the JSON scrape itself increments requests_total); gauges are
		// skipped from the comparison.
		if want, ok := payload[f.Name].(float64); !ok {
			t.Errorf("/v1/metrics %s = %#v, want a number", f.Name, payload[f.Name])
		} else if f.Type == metrics.Counter && got > want {
			t.Errorf("%s: prom %v > later json %v", f.Name, got, want)
		}
	}
	if samples["sqlserved_requests_total"] < 1 {
		t.Errorf("requests_total = %v, want >= 1", samples["sqlserved_requests_total"])
	}
	// Every model family has a GPT4-labeled sample; histograms as _count.
	for _, f := range llm.ModelFamilies {
		name := "sqlserved_model_" + f.Name
		if f.Type == metrics.Histogram {
			name += "_count"
		}
		if _, ok := samples[name+`{model="GPT4"}`]; !ok {
			t.Errorf("exposition missing %s{model=\"GPT4\"}", name)
		}
	}
	if samples[`sqlserved_model_requests{model="GPT4"}`] < 1 {
		t.Errorf("model requests sample missing or zero")
	}
	// Enumerated gauges render their ordinal, not their name.
	if got := samples[`sqlserved_model_breaker_state{model="GPT4"}`]; got != float64(llm.BreakerClosed) {
		t.Errorf("breaker_state = %v, want %d (closed)", got, llm.BreakerClosed)
	}

	// Histogram invariants: bucket counts are cumulative (nondecreasing in
	// bound order) and the +Inf bucket equals _count.
	lines := strings.Split(body, "\n")
	var bounds []string
	var counts []float64
	for _, line := range lines {
		if !strings.HasPrefix(line, `sqlserved_model_latency_seconds_bucket{model="GPT4",le="`) {
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed bucket line %q", line)
		}
		le := m[2][strings.Index(m[2], `le="`)+4:]
		bounds = append(bounds, le[:len(le)-2])
		v, _ := strconv.ParseFloat(m[3], 64)
		counts = append(counts, v)
	}
	if len(counts) == 0 {
		t.Fatal("no latency bucket samples for GPT4")
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			t.Errorf("bucket counts not cumulative at le=%s: %v < %v", bounds[i], counts[i], counts[i-1])
		}
	}
	if bounds[len(bounds)-1] != "+Inf" {
		t.Errorf("last bucket le = %q, want +Inf", bounds[len(bounds)-1])
	}
	if inf, cnt := counts[len(counts)-1], samples[`sqlserved_model_latency_seconds_count{model="GPT4"}`]; inf != cnt {
		t.Errorf("+Inf bucket %v != _count %v", inf, cnt)
	}
}
