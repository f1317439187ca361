package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
)

// faultyServer builds a service whose GPT4 is a sim model with a
// deterministic 15% fault plan — the serve-layer chaos fixture.
func faultyServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(Config{DefaultSeed: 1, Parallel: 4, Models: []llm.Spec{{
		Name: llm.GPT4, Provider: "sim",
		FaultRate: 0.15, FaultSeed: 7,
	}}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestEvalContinueOnError drives a whole cell against a faulty model with
// continue_on_error: the stream must complete with one line per example in
// order, failures inline as error rows, and the failed counters must move.
func TestEvalContinueOnError(t *testing.T) {
	srv, ts := faultyServer(t)
	lines := decodeNDJSON(t, postEval(t, ts.URL, "syntax", EvalRequest{
		Model:   llm.GPT4,
		Dataset: core.SDSS,
		Params:  &EvalParams{ContinueOnError: true},
	}))

	env, err := srv.env(envKey{seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cell := env.Bench.Syntax[core.SDSS]
	if len(lines) != len(cell) {
		t.Fatalf("streamed %d lines, cell has %d examples", len(lines), len(cell))
	}
	failed, graded := 0, 0
	for i, line := range lines {
		if line.Index != i {
			t.Fatalf("line %d has index %d (order broken)", i, line.Index)
		}
		if line.ID != cell[i].ID {
			t.Fatalf("line %d: ID %q, want %q", i, line.ID, cell[i].ID)
		}
		if line.Failed {
			failed++
			if line.Error == "" {
				t.Fatalf("line %d: failed row with no error", i)
			}
			if line.SQL == "" {
				t.Fatalf("line %d: failed row lost its statement", i)
			}
			if line.PredHasError != nil || line.Correct != nil {
				t.Fatalf("line %d: failed row carries predictions: %+v", i, line)
			}
		} else {
			graded++
			if line.Error != "" {
				t.Fatalf("line %d: graded row carries an error: %q", i, line.Error)
			}
			if line.PredHasError == nil {
				t.Fatalf("line %d: graded row missing prediction", i)
			}
		}
	}
	if failed == 0 || graded == 0 {
		t.Fatalf("degenerate stream: %d failed, %d graded", failed, graded)
	}
	if got := srv.Metrics().FailedExamples.Load(); got != int64(failed) {
		t.Errorf("failed_examples = %d, want %d", got, failed)
	}
	if got := srv.Metrics().FailedByTask(); len(got) != 1 || got[0].Label != "syntax" || got[0].From != int64(failed) {
		t.Errorf("failed_by_task = %+v, want syntax: %d", got, failed)
	}
}

// TestEvalAbortsWithoutContinueOnError pins the default contract: the same
// faulty cell without continue_on_error must not stream a complete set of
// rows — the run aborts on the first failure (terminal error line, since
// rows may already be flowing).
func TestEvalAbortsWithoutContinueOnError(t *testing.T) {
	srv, ts := faultyServer(t)
	resp := postEval(t, ts.URL, "syntax", EvalRequest{Model: llm.GPT4, Dataset: core.SDSS})
	defer resp.Body.Close()
	env, err := srv.env(envKey{seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var lastErr string
	n := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		n++
		var line struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		lastErr = line.Error
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lastErr == "" {
		t.Fatal("aborted eval ended without an error line")
	}
	if n > len(env.Bench.Syntax[core.SDSS]) {
		t.Fatalf("aborted eval streamed %d lines", n)
	}
}

// TestEvalShedsWhenBreakerOpen pins the admission contract: an open
// circuit breaker on the target model sheds the eval with 503 +
// Retry-After before any completion runs.
func TestEvalShedsWhenBreakerOpen(t *testing.T) {
	srv, ts := faultyServer(t)
	ms := srv.ModelStats().Model(llm.GPT4)
	ms.BreakerState.Store(int32(llm.BreakerOpen))
	ms.BreakerOpenUntil.Store(time.Now().Add(30 * time.Second).UnixNano())
	defer func() {
		ms.BreakerState.Store(int32(llm.BreakerClosed))
		ms.BreakerOpenUntil.Store(0)
	}()

	resp := postEval(t, ts.URL, "syntax", EvalRequest{Model: llm.GPT4, Dataset: core.SDSS})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}
	if got := srv.Metrics().BreakerSheds.Load(); got == 0 {
		t.Error("breaker_sheds not counted")
	}

	// An expired open deadline must admit again (half-open probes need to
	// get through).
	ms.BreakerOpenUntil.Store(time.Now().Add(-time.Second).UnixNano())
	resp2 := postEval(t, ts.URL, "syntax", EvalRequest{
		Model: llm.GPT4, Dataset: core.SDSS,
		Params: &EvalParams{ContinueOnError: true},
	})
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("expired breaker deadline still shed: status = %d", resp2.StatusCode)
	}
}
