package serve

import (
	"net/http"
	"testing"
)

// Request params thread through to the model client: a max_tokens cap must
// show up as truncated completions in the per-line usage.
func TestEvalParamsMaxTokens(t *testing.T) {
	_, url := testServerAndURL(t)
	sql := []string{"SELECT plate , mjd FROM SpecObj WHERE z > 0.5"}

	full := decodeNDJSON(t, postEval(t, url, "syntax", EvalRequest{Model: "GPT4", SQL: sql}))
	if len(full) != 1 || full[0].Usage == nil {
		t.Fatalf("no usage on baseline line: %+v", full)
	}
	if full[0].Usage.CompletionTokens <= 2 {
		t.Fatalf("baseline completion too short to test truncation: %+v", full[0].Usage)
	}
	if full[0].LatencyMS <= 0 {
		t.Errorf("latency_ms = %v", full[0].LatencyMS)
	}

	capped := decodeNDJSON(t, postEval(t, url, "syntax", EvalRequest{
		Model: "GPT4", SQL: sql,
		Params: &EvalParams{MaxTokens: 2},
	}))
	if len(capped) != 1 || capped[0].Usage == nil {
		t.Fatalf("no usage on capped line: %+v", capped)
	}
	if capped[0].Usage.CompletionTokens != 2 {
		t.Errorf("capped completion tokens = %d, want 2", capped[0].Usage.CompletionTokens)
	}
	if len(capped[0].Response) >= len(full[0].Response) {
		t.Errorf("max_tokens did not truncate: %q vs %q", capped[0].Response, full[0].Response)
	}
	// Prompt accounting is unaffected by the cap.
	if capped[0].Usage.PromptTokens != full[0].Usage.PromptTokens {
		t.Errorf("prompt tokens changed under cap: %d vs %d",
			capped[0].Usage.PromptTokens, full[0].Usage.PromptTokens)
	}
}

// Temperature and model-side seed are accepted (the simulators ignore them,
// but the request must validate and evaluate normally).
func TestEvalParamsAccepted(t *testing.T) {
	_, url := testServerAndURL(t)
	temp := 0.0
	seed := int64(7)
	lines := decodeNDJSON(t, postEval(t, url, "perf", EvalRequest{
		Model:  "GPT4",
		SQL:    []string{"SELECT TOP 10 objid FROM PhotoObj"},
		Params: &EvalParams{Temperature: &temp, Seed: &seed},
	}))
	if len(lines) != 1 || lines[0].PredCostly == nil {
		t.Fatalf("lines = %+v", lines)
	}
}

// Invalid params are rejected before any evaluation starts.
func TestEvalParamsValidation(t *testing.T) {
	_, url := testServerAndURL(t)
	bad := []EvalRequest{
		{Model: "GPT4", SQL: []string{"SELECT 1"}, Params: &EvalParams{MaxTokens: -1}},
		{Model: "GPT4", SQL: []string{"SELECT 1"}, Params: &EvalParams{ContinueOnError: true, MaxFailures: -1}},
		{Model: "GPT4", SQL: []string{"SELECT 1"}, Params: &EvalParams{Temperature: f(-0.5)}},
		{Model: "GPT4", SQL: []string{"SELECT 1"}, Params: &EvalParams{Temperature: f(9)}},
	}
	for i, req := range bad {
		resp := postEval(t, url, "syntax", req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad params %d: status %d, want 400", i, resp.StatusCode)
		}
	}
}

func f(v float64) *float64 { return &v }
