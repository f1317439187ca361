package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/llm"
	"repro/internal/runner"
)

// maxEvalBody bounds eval request bodies (1 MiB of JSON is thousands of
// queries; anything larger is a mistake or abuse).
const maxEvalBody = 1 << 20

// httpError writes a JSON error object with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorLine{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
}

// handleTrace serves the bounded in-memory span ring: the most recent
// completed spans (oldest first) plus how many older spans the ring has
// evicted. Intended for ad-hoc debugging — scrape it after a request to see
// that request's span tree by trace id (the X-Request-Id the client saw).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	spans, evicted := s.tracer.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(TraceSnapshot{Spans: spans, Evicted: evicted})
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	var out []ExperimentInfo
	for _, e := range experiments.All() {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleTasks serves task discovery: every registered task with its
// identity, skill tags, dataset topology, and accepted request parameters —
// the machine-readable form of the paper's Table 1 column set. The listing
// is driven entirely by the core registry, so newly registered tasks appear
// without any serve changes.
func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	out := make([]TaskInfo, 0)
	for _, t := range core.Tasks() {
		skills := map[string]int{}
		for skill, level := range t.Skills() {
			skills[string(skill)] = level
		}
		input := "sql"
		if t.PairInput() {
			input = "pairs"
		}
		out = append(out, TaskInfo{
			ID:             t.ID(),
			Name:           t.Name(),
			Description:    t.Description(),
			Skills:         skills,
			Datasets:       t.Datasets(),
			DefaultDataset: t.DefaultDataset(),
			Input:          input,
			Params:         []string{"temperature", "max_tokens", "seed", "continue_on_error", "max_failures"},
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleExperiment serves one rendered paper artifact from the seed-keyed
// cache; concurrent cold requests coalesce onto a single render.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := experiments.ByID(id); !ok {
		httpError(w, http.StatusNotFound, "unknown experiment %q", id)
		return
	}
	key := artifactKey{envKey: envKey{seed: s.cfg.DefaultSeed, verify: s.cfg.Verify}, id: id}
	if q := r.URL.Query().Get("seed"); q != "" {
		seed, err := strconv.ParseInt(q, 10, 64)
		if err != nil || seed <= 0 {
			httpError(w, http.StatusBadRequest, "invalid seed %q", q)
			return
		}
		key.seed = seed
	}
	if q := r.URL.Query().Get("verify"); q != "" {
		v, err := strconv.ParseBool(q)
		if err != nil {
			httpError(w, http.StatusBadRequest, "invalid verify %q", q)
			return
		}
		key.verify = v
	}
	out, err := s.artifact(key)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "rendering %s: %v", id, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(out)
}

// handleEval evaluates submitted SQL or benchmark examples against one model
// and streams results back as NDJSON in example order. The handler is fully
// registry-driven: example selection, prompting, grading, and line
// rendering all come from the task's registry entry, so it serves any
// registered task — including ones added after this code was written.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("task")
	task, ok := core.TaskByID(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown eval task %q (registered: %s)",
			id, strings.Join(core.TaskIDs(), ", "))
		return
	}
	var req EvalRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxEvalBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.Model == "" {
		httpError(w, http.StatusBadRequest, "model is required")
		return
	}
	// Reject example sources that don't apply to this task instead of
	// silently ignoring them — a stray field would otherwise stream the
	// whole labeled cell where the caller meant to submit two queries.
	if task.PairInput() {
		if req.SQL != nil {
			httpError(w, http.StatusBadRequest, "the %s task takes \"pairs\", not \"sql\"", task.ID())
			return
		}
		if len(req.Pairs) > 0 && len(req.IDs) > 0 {
			httpError(w, http.StatusBadRequest, "pairs and ids are mutually exclusive")
			return
		}
		if req.Pairs != nil && len(req.Pairs) == 0 {
			httpError(w, http.StatusBadRequest, "pairs is empty")
			return
		}
	} else {
		if req.Pairs != nil {
			httpError(w, http.StatusBadRequest, "only pair tasks take \"pairs\"; use \"sql\"")
			return
		}
		if len(req.SQL) > 0 && len(req.IDs) > 0 {
			httpError(w, http.StatusBadRequest, "sql and ids are mutually exclusive")
			return
		}
		if req.SQL != nil && len(req.SQL) == 0 {
			httpError(w, http.StatusBadRequest, "sql is empty")
			return
		}
	}
	if req.Seed < 0 {
		httpError(w, http.StatusBadRequest, "invalid seed %d", req.Seed)
		return
	}
	if req.Params != nil {
		if req.Params.MaxTokens < 0 {
			httpError(w, http.StatusBadRequest, "invalid max_tokens %d", req.Params.MaxTokens)
			return
		}
		if t := req.Params.Temperature; t != nil && (*t < 0 || *t > 2) {
			httpError(w, http.StatusBadRequest, "invalid temperature %v", *t)
			return
		}
	}
	// Resolve the dataset against the task's topology: single-dataset tasks
	// are pinned, the rest validate the requested cell.
	datasets := task.Datasets()
	ds := datasets[0]
	if len(datasets) > 1 {
		ds = req.Dataset
		if ds == "" {
			ds = task.DefaultDataset()
		}
		known := false
		for _, d := range datasets {
			if d == ds {
				known = true
				break
			}
		}
		if !known {
			httpError(w, http.StatusBadRequest, "unknown dataset %q (%s)", ds, strings.Join(datasets, ", "))
			return
		}
	}
	seed := req.Seed
	if seed == 0 {
		seed = s.cfg.DefaultSeed
	}
	env, err := s.env(envKey{seed: seed, verify: s.cfg.Verify})
	if err != nil {
		httpError(w, http.StatusInternalServerError, "building benchmark: %v", err)
		return
	}
	client, err := env.Registry.Get(req.Model)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// An open circuit breaker means every completion would fast-fail:
	// shed the whole eval up front with 503 + Retry-After instead of
	// streaming a response full of identical errors. Half-open is admitted
	// so probes can close the breaker.
	ms := s.llmStats.Model(req.Model)
	if llm.BreakerState(ms.BreakerState.Load()) == llm.BreakerOpen {
		if wait := time.Until(time.Unix(0, ms.BreakerOpenUntil.Load())); wait > 0 {
			s.metrics.BreakerSheds.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(int(wait/time.Second)+1))
			httpError(w, http.StatusServiceUnavailable,
				"circuit breaker open for model %s: backend shedding load", req.Model)
			return
		}
	}
	// Caller-supplied completion parameters apply to every request of the
	// batch; explicit per-request values (none today) would win.
	if p := req.Params; p != nil {
		client = llm.Chain(client, llm.WithDefaults(p.Temperature, p.MaxTokens, p.Seed))
	}
	// Spend accounting wraps the client itself so every completion is
	// charged the moment it finishes — a caller that drops the connection
	// mid-stream still pays for the work already done, not just for the
	// lines it received.
	if debit := debitFrom(r.Context()); debit != nil {
		client = spendClient{Client: client, debit: debit}
	}

	st := &stream{w: w, metrics: s.metrics, task: task.ID()}

	// Select the examples: ad-hoc statements (unlabeled) or benchmark cell
	// examples (labeled, optionally narrowed by ID).
	labeled := true
	var examples []core.Example
	adhoc := func(i int, sql []string) bool {
		ex, err := task.AdHoc(fmt.Sprintf("adhoc/%d", i), sql)
		if err != nil {
			st.fail(http.StatusBadRequest, "%v", err)
			return false
		}
		examples = append(examples, ex)
		return true
	}
	switch {
	case task.PairInput() && len(req.Pairs) > 0:
		labeled = false
		for i, p := range req.Pairs {
			if !adhoc(i, []string{p[0], p[1]}) {
				return
			}
		}
	case !task.PairInput() && len(req.SQL) > 0:
		labeled = false
		for i, q := range req.SQL {
			if !adhoc(i, []string{q}) {
				return
			}
		}
	default:
		cell, ok := task.Cell(env.Bench, ds)
		if !ok {
			httpError(w, http.StatusBadRequest, "unknown dataset %q (%s)", ds, strings.Join(datasets, ", "))
			return
		}
		examples, err = selectExamples(cell, req.IDs)
		if err != nil {
			st.fail(http.StatusBadRequest, "%v", err)
			return
		}
	}

	ctx := runner.WithParallelism(r.Context(), env.Parallel)
	opts := core.RunOpts{}
	if p := req.Params; p != nil {
		opts.ContinueOnError = p.ContinueOnError
		opts.MaxFailures = p.MaxFailures
	}
	err = task.RunStreamOpts(ctx, client, examples, opts, func(idx int, res any, err error) error {
		if err != nil {
			s.metrics.FailedExample(task.ID())
			return st.send(core.FailedView(examples[idx], err))
		}
		return st.send(task.View(res, labeled))
	})
	if err != nil {
		st.fail(http.StatusInternalServerError, "eval: %v", err)
	}
}

// stream writes NDJSON eval lines, flushing after each so results reach the
// client as they complete. Headers go out lazily on the first line, which
// lets example-selection errors still return a clean 4xx.
type stream struct {
	w       http.ResponseWriter
	metrics *Metrics
	task    string
	started bool
	index   int
}

// fail reports an error: as a 4xx/5xx when nothing has been written, as a
// terminal NDJSON error line when the stream is already flowing.
func (st *stream) fail(status int, format string, args ...any) {
	if !st.started {
		httpError(st.w, status, format, args...)
		return
	}
	json.NewEncoder(st.w).Encode(ErrorLine{Error: fmt.Sprintf(format, args...)})
}

// send renders one result line from its task-agnostic view.
func (st *stream) send(view core.ResultView) error {
	if !st.started {
		st.w.Header().Set("Content-Type", "application/x-ndjson")
		st.w.WriteHeader(http.StatusOK)
		st.started = true
	}
	line, err := encodeLine(st.index, st.task, view)
	if err != nil {
		return err
	}
	st.index++
	if _, err := st.w.Write(line); err != nil {
		return err
	}
	if f, ok := st.w.(http.Flusher); ok {
		f.Flush()
	}
	st.metrics.ResultsStreamed.Add(1)
	return nil
}

// spendClient charges each completed request's tokens against the caller's
// budget as it finishes, delivered or not, so aborted streams cannot evade
// the spend bound.
type spendClient struct {
	llm.Client
	debit func(tokens int)
}

func (c spendClient) Do(ctx context.Context, req llm.Request) (llm.Response, error) {
	resp, err := c.Client.Do(ctx, req)
	if err == nil {
		c.debit(resp.Usage.CompletionTokens)
	}
	return resp, err
}

// selectExamples picks the request's examples from a benchmark cell: the
// whole cell when no IDs are given, else the named labeled examples.
func selectExamples(all []core.Example, ids []string) ([]core.Example, error) {
	if len(ids) == 0 {
		return all, nil
	}
	byID := make(map[string]core.Example, len(all))
	for _, ex := range all {
		byID[ex.ID] = ex
	}
	out := make([]core.Example, 0, len(ids))
	for _, want := range ids {
		ex, ok := byID[want]
		if !ok {
			return nil, fmt.Errorf("unknown example ID %q", want)
		}
		out = append(out, ex)
	}
	return out, nil
}

// debitFrom returns the completion-token debit hook the spend-admission
// middleware injected, if any.
func debitFrom(ctx context.Context) func(int) {
	f, _ := ctx.Value(spendDebitKey{}).(func(int))
	return f
}
