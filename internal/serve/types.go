package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/obs"
)

// EvalRequest is the body of POST /v1/eval/{task}. Exactly one source of
// examples applies, checked in this order:
//
//   - SQL (or Pairs, for pair-input tasks like equiv): ad-hoc statements
//     submitted by the caller. No ground-truth labels exist, so result
//     lines carry only the model's predictions.
//   - IDs: benchmark example IDs (e.g. "sdss-0017/syn") resolved against the
//     seed's benchmark. Result lines include the expected label and a
//     correctness verdict.
//   - neither: the whole model×dataset cell streams back, labeled.
//
// Sources are mutually exclusive, and a source the task does not take
// (Pairs on an sql-input task, SQL on a pair-input one) is rejected with
// 400 rather than silently ignored.
type EvalRequest struct {
	// Model is the registered model name (GPT4, GPT3.5, Llama3, MistralAI,
	// Gemini). Required.
	Model string `json:"model"`
	// Dataset selects the benchmark dataset for multi-dataset tasks (each
	// task's list and default are in GET /v1/tasks). Single-dataset tasks
	// (perf: SDSS, explain: Spider, as in the paper) are pinned.
	Dataset string `json:"dataset,omitempty"`
	// Seed selects the benchmark seed (0 = server default).
	Seed int64 `json:"seed,omitempty"`
	// IDs selects labeled benchmark examples by ID.
	IDs []string `json:"ids,omitempty"`
	// SQL holds ad-hoc statements (sql-input tasks).
	SQL []string `json:"sql,omitempty"`
	// Pairs holds ad-hoc [left, right] query pairs (pair-input tasks).
	Pairs [][2]string `json:"pairs,omitempty"`
	// Params optionally sets completion parameters for every request the
	// eval issues (temperature, max_tokens, model-side seed).
	Params *EvalParams `json:"params,omitempty"`
}

// EvalParams are the per-request completion parameters a caller may set;
// they apply to every completion of the eval batch.
type EvalParams struct {
	// Temperature is the sampling temperature (nil = provider default).
	Temperature *float64 `json:"temperature,omitempty"`
	// MaxTokens caps each completion's length (0 = no cap).
	MaxTokens int `json:"max_tokens,omitempty"`
	// Seed requests provider-side deterministic sampling (nil = unset).
	// This is the model-side sampling seed, unrelated to the benchmark
	// Seed above.
	Seed *int64 `json:"seed,omitempty"`
	// ContinueOnError switches the eval to partial-failure mode: an example
	// whose completion fails becomes an inline error line (failed=true) in
	// its stream position instead of aborting the whole response.
	ContinueOnError bool `json:"continue_on_error,omitempty"`
	// MaxFailures aborts a continuing eval once more than this many
	// examples have failed (0 = unlimited). Ignored without
	// ContinueOnError.
	MaxFailures int `json:"max_failures,omitempty"`
}

// TaskInfo is one entry of GET /v1/tasks: a registered task's identity,
// paper skill tags, dataset topology, and the request parameters its eval
// endpoint accepts.
type TaskInfo struct {
	ID             string         `json:"id"`
	Name           string         `json:"name"`
	Description    string         `json:"description"`
	Skills         map[string]int `json:"skills"`
	Datasets       []string       `json:"datasets"`
	DefaultDataset string         `json:"default_dataset"`
	// Input names the ad-hoc example source the task takes: "sql" for
	// single statements, "pairs" for [left, right] statement pairs.
	Input  string   `json:"input"`
	Params []string `json:"params"`
}

// encodeLine renders one NDJSON eval line from a task-agnostic result view.
// Field order is fixed — index, id, task, sql[, sql2], the task's
// pred_*/want_* fields in task order, correct, response, usage, latency_ms —
// matching the shape the per-task handlers used to emit.
func encodeLine(index int, task string, v core.ResultView) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('{')
	w := func(key string, value any) error {
		enc, err := json.Marshal(value)
		if err != nil {
			return fmt.Errorf("encoding field %s: %w", key, err)
		}
		if buf.Len() > 1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('"')
		buf.WriteString(key)
		buf.WriteString(`":`)
		buf.Write(enc)
		return nil
	}
	if err := w("index", index); err != nil {
		return nil, err
	}
	w("id", v.ID)
	w("task", task)
	w("sql", v.SQL)
	if v.SQL2 != "" {
		w("sql2", v.SQL2)
	}
	// A failed example renders as an error row in its stream position:
	// identity fields plus the failure, no predictions.
	if v.Err != "" {
		w("failed", true)
		if err := w("error", v.Err); err != nil {
			return nil, err
		}
		buf.WriteString("}\n")
		return buf.Bytes(), nil
	}
	for _, f := range v.Fields {
		if err := w(f.Key, f.Value); err != nil {
			return nil, err
		}
	}
	if v.Correct != nil {
		w("correct", *v.Correct)
	}
	if v.Response != "" {
		w("response", v.Response)
	}
	if v.Usage != (llm.Usage{}) {
		w("usage", UsageInfo{PromptTokens: v.Usage.PromptTokens, CompletionTokens: v.Usage.CompletionTokens})
	}
	if v.Latency != 0 {
		w("latency_ms", float64(v.Latency)/float64(time.Millisecond))
	}
	buf.WriteString("}\n")
	return buf.Bytes(), nil
}

// UsageInfo is one completion's token accounting on an eval line.
type UsageInfo struct {
	PromptTokens     int `json:"prompt_tokens"`
	CompletionTokens int `json:"completion_tokens"`
}

// ErrorLine terminates an NDJSON stream that failed after results started
// flowing (the status code is already committed by then).
type ErrorLine struct {
	Error string `json:"error"`
}

// ExperimentInfo is one entry of GET /v1/experiments.
type ExperimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// TraceSnapshot is the GET /v1/trace payload: the span ring's current
// contents (oldest first) and how many older spans were evicted to stay
// within the configured bound.
type TraceSnapshot struct {
	Spans   []obs.SpanRecord `json:"spans"`
	Evicted uint64           `json:"evicted"`
}
