// Command modelstub is a deterministic OpenAI-compatible chat-completions
// stub for exercising the HTTP model backend (llm/httpllm) end to end
// without network access or credentials: CI points sqlbench/sqlserved at it
// via -models. It answers every task prompt with a fixed parseable response,
// reports usage, and can inject failures to exercise the retry path.
//
// Usage:
//
//	modelstub -addr 127.0.0.1:9090
//	modelstub -addr 127.0.0.1:9090 -fail429 2     # first 2 requests get 429
//	modelstub -addr 127.0.0.1:9090 -latency 50ms  # per-request delay
//
// Chaos flags (the HTTP twin of the in-process faultllm harness):
//
//	-fail-rate 0.1 -fail-status 503 -seed 7  # fail 10% of requests, chosen
//	                                         # deterministically by prompt
//	                                         # hash, so reruns fail the same
//	                                         # requests
//	-flake-every 5                           # every 5th request fails once;
//	                                         # a retry of the same prompt
//	                                         # succeeds (exercises Retry)
//	-slow-every 10 -slow 500ms               # every 10th request stalls an
//	                                         # extra 500ms (exercises Hedge
//	                                         # tail-latency cutting)
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/prompt"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
)

type wireRequest struct {
	Model    string `json:"model"`
	Messages []struct {
		Role    string `json:"role"`
		Content string `json:"content"`
	} `json:"messages"`
	Temperature *float64 `json:"temperature,omitempty"`
	MaxTokens   int      `json:"max_tokens,omitempty"`
	Seed        *int64   `json:"seed,omitempty"`
}

// answer picks a deterministic, respparse-compatible reply per task so
// streamed eval results carry real predictions, not parse failures.
func answer(prompt string) string {
	lower := strings.ToLower(prompt)
	switch {
	case strings.Contains(lower, "exact missing token"):
		return `Yes, a token is absent. The missing token is "FROM".`
	case strings.Contains(lower, "missing word") || strings.Contains(lower, "token is missing"):
		return "No. The query appears complete, with no missing words."
	case strings.Contains(lower, "equivalent") || strings.Contains(lower, "identical results"):
		return "Yes, the two queries are equivalent: the rewrite is a where_predicate transformation that preserves results."
	case strings.Contains(lower, "longer than usual") || strings.Contains(lower, "runtime cost"):
		return "No, this query should run quickly; it touches limited data."
	case strings.Contains(lower, "describing this query") || strings.Contains(lower, "purpose of this query"):
		return "This query returns rows selected from the referenced tables."
	case strings.Contains(lower, "final contents") || strings.Contains(lower, "contain after running"):
		return answerState(prompt)
	default:
		return "No, the query does not contain any syntax errors. It is well-formed SQL."
	}
}

// answerState really executes the embedded DML/transaction script on the
// in-memory engine, so state-task evals through the stub grade against true
// final contents instead of a canned string.
func answerState(promptText string) string {
	const empty = "After running the script, the table is empty."
	script, ok := prompt.ExtractQuery(promptText)
	if !ok {
		return empty
	}
	stmts, err := sqlparse.ParseAll(script)
	if err != nil {
		return empty
	}
	db, err := engine.RunScript(stmts)
	if err != nil {
		return empty
	}
	table := ""
	for _, s := range stmts {
		if ct, ok := s.(*sqlast.CreateTableStmt); ok {
			table = ct.Name
		}
	}
	rel, ok := db.Table(table)
	if !ok || len(rel.Rows) == 0 {
		return empty
	}
	parts := make([]string, len(rel.Rows))
	for i, row := range rel.Rows {
		parts[i] = engine.FormatRow(row)
	}
	return "Final contents: " + strings.Join(parts, " ")
}

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:9090", "listen address")
		fail429 = flag.Int64("fail429", 0, "reject the first N completion requests with 429 (exercises retry)")
		latency = flag.Duration("latency", 0, "artificial per-request latency")

		failRate   = flag.Float64("fail-rate", 0, "fraction of requests failing with -fail-status, chosen deterministically by prompt hash and -seed")
		failStatus = flag.Int("fail-status", 503, "HTTP status of -fail-rate failures")
		seed       = flag.Int64("seed", 0, "seed for the -fail-rate decision hash")
		flakeEvery = flag.Int64("flake-every", 0, "every Nth request fails once with -fail-status; retries of the same prompt succeed (0 = off)")
		slowEvery  = flag.Int64("slow-every", 0, "every Nth request stalls an extra -slow (0 = off)")
		slow       = flag.Duration("slow", 500*time.Millisecond, "extra latency of -slow-every requests")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "modelstub: ", log.LstdFlags)

	var served, rejected atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/chat/completions", func(w http.ResponseWriter, r *http.Request) {
		var req wireRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprintf(w, `{"error":{"message":"decoding request: %v","type":"invalid_request_error"}}`, err)
			return
		}
		n := served.Add(1)
		if n <= *fail429 {
			rejected.Add(1)
			w.Header().Set("Retry-After", "0")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"message":"stub rate limit, retry","type":"rate_limited"}}`)
			return
		}
		var prompt string
		for _, m := range req.Messages {
			if m.Role == "user" {
				prompt = m.Content
			}
		}
		// Deterministic chaos: -fail-rate picks failures by prompt hash (the
		// same prompt fails on every attempt — a planned failure set),
		// -flake-every by request count (a retry of the same prompt
		// succeeds — a transient blip).
		injected := false
		if *failRate > 0 {
			h := fnv.New64a()
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], uint64(*seed))
			h.Write(buf[:])
			h.Write([]byte(prompt))
			if float64(h.Sum64()>>11)/float64(1<<53) < *failRate {
				injected = true
			}
		}
		if *flakeEvery > 0 && n%*flakeEvery == 0 {
			injected = true
		}
		if injected {
			rejected.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(*failStatus)
			fmt.Fprintf(w, `{"error":{"message":"stub injected fault (status %d)","type":"server_error"}}`, *failStatus)
			return
		}
		if *latency > 0 {
			time.Sleep(*latency)
		}
		if *slowEvery > 0 && n%*slowEvery == 0 {
			time.Sleep(*slow)
		}
		text := answer(prompt)
		promptTokens := (len(prompt) + 3) / 4
		completionTokens := (len(text) + 3) / 4
		finish := "stop"
		if req.MaxTokens > 0 && completionTokens > req.MaxTokens {
			text = text[:req.MaxTokens*4]
			completionTokens = req.MaxTokens
			finish = "length"
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"id":     fmt.Sprintf("stub-%d", served.Load()),
			"object": "chat.completion",
			"model":  req.Model,
			"choices": []map[string]any{{
				"index":         0,
				"message":       map[string]string{"role": "assistant", "content": text},
				"finish_reason": finish,
			}},
			"usage": map[string]int{
				"prompt_tokens":     promptTokens,
				"completion_tokens": completionTokens,
				"total_tokens":      promptTokens + completionTokens,
			},
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"status": "ok", "served": served.Load(), "rejected": rejected.Load(),
		})
	})

	logger.Printf("listening on %s (fail429=%d latency=%v fail-rate=%.2f fail-status=%d flake-every=%d slow-every=%d slow=%v)",
		*addr, *fail429, *latency, *failRate, *failStatus, *flakeEvery, *slowEvery, *slow)
	srv := &http.Server{Addr: *addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	logger.Fatal(srv.ListenAndServe())
}
