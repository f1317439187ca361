// Package experiments maps every table and figure in the paper's evaluation
// to a runnable experiment that regenerates it from the benchmark. The
// registry backs the sqlbench CLI and the root benchmark harness.
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/llm/checkpoint"
	"repro/internal/llm/faultllm"
	"repro/internal/llm/httpllm"
	"repro/internal/llm/sim"
	"repro/internal/obs"
	"repro/internal/runner"
)

// Env carries the shared state experiments run against: the benchmark, the
// model registry, and memoized per-task results. Result memoization is
// per-key singleflight over task×model×dataset cells: distinct cells
// compute concurrently, duplicate requests for the same cell coalesce onto
// one computation, and completed cells are served from cache. The cell grid
// is driven by the core task registry — any registered task gets cells with
// no Env changes. An Env is safe for concurrent use.
type Env struct {
	Bench    *core.Benchmark
	Registry *llm.Registry
	Models   []string
	// Stats accumulates per-model request/error/token counters and latency
	// histograms across every task run (the Instrument middleware wraps each
	// registered client).
	Stats *llm.Stats
	// Parallel bounds the worker pool used for example fan-out inside each
	// task run and for the model×dataset prefetch in the experiment
	// definitions. 0 means GOMAXPROCS; 1 reproduces the sequential pipeline.
	Parallel int
	// ContinueOnError runs cells in partial-failure mode: an example whose
	// completion fails is recorded (see Failures) instead of aborting the
	// cell, and summaries report the failed count. MaxFailures bounds how
	// many failures a cell tolerates before aborting anyway (0 = unlimited).
	ContinueOnError bool
	MaxFailures     int

	// results caches boxed task results per task×model×dataset cell; typed
	// caches the unboxed form of the same cells so repeated typed accesses
	// (the per-figure experiments re-fetch cells constantly) don't re-assert
	// and reallocate per call.
	results runner.Flight[string, []any]
	typed   runner.Flight[string, any]

	// stores holds the open checkpoint stores (one per model) when the
	// environment was built with a CheckpointDir; Close releases them.
	stores []*checkpoint.Store

	// failMu guards failures: per-cell failed-example records accumulated
	// by partial-failure runs.
	failMu   sync.Mutex
	failures map[string][]CellFailure

	// traceCtx carries the environment's tracer and run span (when one was
	// configured) into every task run; runSpan is the root "run" span Close
	// ends.
	traceCtx context.Context
	runSpan  *obs.Span
}

// CellFailure records one failed example of a partial-failure cell run.
type CellFailure struct {
	// Index is the example's position in the cell; ID its stable id.
	Index int
	ID    string
	// Err is the completion error message.
	Err string
}

// Close releases the environment's checkpoint stores, if any, and ends the
// environment's root trace span. Safe to call repeatedly and on
// environments built without checkpointing or tracing.
func (e *Env) Close() error {
	e.runSpan.End() // idempotent, nil-safe
	var first error
	for _, s := range e.stores {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	e.stores = nil
	return first
}

// Config controls environment construction.
type Config struct {
	// Seed drives benchmark generation (0 means 1).
	Seed int64
	// VerifyEquivalences engine-checks generated equivalence pairs.
	VerifyEquivalences bool
	// Parallel is the worker budget for the build and all task runs
	// (0 = GOMAXPROCS, 1 = sequential).
	Parallel int
	// Models optionally replaces the default five simulated models with a
	// config-driven set (the binaries' -models flag): each spec names a
	// provider ("sim" over this environment's knowledge, or "http" for an
	// OpenAI-compatible endpoint) plus its middleware stack.
	Models []llm.Spec
	// Stats optionally shares one telemetry sink across environments (the
	// serve layer passes its own so /v1/metrics aggregates every env); nil
	// means a fresh per-environment Stats.
	Stats *llm.Stats
	// ClientCache optionally shares spec-built clients — and the middleware
	// state that must be global to be meaningful: rate-limit buckets,
	// in-flight semaphores, response caches — across environments. sim specs
	// are always built per environment, since the simulators resolve against
	// the environment's own knowledge context.
	ClientCache *llm.ClientCache
	// CheckpointDir enables checkpoint/resume: every model's completed
	// responses append to <dir>/<model>.ndjson, and requests recorded there
	// replay without touching the backend. Grading is deterministic given
	// responses, so a resumed run's artifacts are byte-identical to an
	// uninterrupted run's. Empty means no checkpointing.
	CheckpointDir string
	// ContinueOnError runs every cell in partial-failure mode (see
	// Env.ContinueOnError); MaxFailures is the per-cell failure budget
	// (0 = unlimited).
	ContinueOnError bool
	MaxFailures     int
	// Tracer, when set, threads an obs tracer through the environment: the
	// benchmark build and every task cell, example, LLM attempt, and engine
	// execution report spans to it, rooted under one "run" span that
	// Env.Close ends. Nil disables tracing at zero cost.
	Tracer *obs.Tracer
}

// Providers returns the spec provider factories an environment's registry
// builds from: the calibrated simulators over the given knowledge context,
// and the OpenAI-compatible HTTP client. Every factory is wrapped with the
// faultllm harness, so a spec's fault_* fields inject deterministic chaos
// below the middleware stack regardless of provider (fault-free specs build
// the bare client).
func Providers(k *sim.Knowledge) map[string]llm.Factory {
	return map[string]llm.Factory{
		"sim":  faultllm.WrapFactory(sim.Factory(k)),
		"http": faultllm.WrapFactory(httpllm.Factory),
	}
}

// NewEnvConfig builds the benchmark and the model registry — the five
// calibrated simulators by default, or the configured spec set — with
// explicit parallelism control. Every client is wrapped with llm.Instrument
// so Env.Stats reports usage regardless of backend.
func NewEnvConfig(cfg Config) (*Env, error) {
	// Root the whole environment under one "run" span (ended by Env.Close)
	// so cells, examples, and engine executions nest under it. With no
	// tracer, traceCtx stays Background and every span below is a nil no-op.
	traceCtx := obs.With(context.Background(), cfg.Tracer)
	traceCtx, runSpan := obs.Start(traceCtx, "run")
	runSpan.SetInt("seed", cfg.Seed)

	buildCtx, buildSpan := obs.Start(traceCtx, "bench.build")
	bench, err := core.Build(core.BuildConfig{
		Seed:               cfg.Seed,
		VerifyEquivalences: cfg.VerifyEquivalences,
		Parallel:           cfg.Parallel,
		Ctx:                buildCtx,
	})
	buildSpan.EndErr(err)
	if err != nil {
		runSpan.End()
		return nil, fmt.Errorf("building benchmark: %w", err)
	}
	knowledge := sim.NewKnowledge(bench.SchemasByDataset())
	stats := cfg.Stats
	if stats == nil {
		stats = llm.NewStats()
	}
	env := &Env{
		Stats:           stats,
		Parallel:        cfg.Parallel,
		ContinueOnError: cfg.ContinueOnError,
		MaxFailures:     cfg.MaxFailures,
		traceCtx:        traceCtx,
		runSpan:         runSpan,
	}
	// wrap attaches the checkpoint replay/record layer (outermost, above
	// even the cache, so resumed runs replay without re-counting stats or
	// re-spending rate tokens) when a checkpoint directory is configured.
	wrap := func(c llm.Client) (llm.Client, error) {
		if cfg.CheckpointDir == "" {
			return c, nil
		}
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("checkpoint dir: %w", err)
		}
		store, err := checkpoint.Open(filepath.Join(cfg.CheckpointDir, checkpoint.Filename(c.Name())))
		if err != nil {
			return nil, err
		}
		env.stores = append(env.stores, store)
		return llm.Chain(c, checkpoint.Middleware(store)), nil
	}
	reg := llm.NewRegistry()
	models := llm.ModelNames
	if len(cfg.Models) == 0 {
		for _, name := range llm.ModelNames {
			m, err := sim.New(name, knowledge)
			if err != nil {
				env.Close()
				return nil, fmt.Errorf("building simulator %s: %w", name, err)
			}
			c, err := wrap(llm.Chain(m, llm.Trace("llm.request"), llm.Instrument(stats)))
			if err != nil {
				env.Close()
				return nil, err
			}
			reg.Register(c)
		}
	} else {
		providers := Providers(knowledge)
		models = make([]string, 0, len(cfg.Models))
		for _, spec := range cfg.Models {
			var c llm.Client
			if cfg.ClientCache != nil && spec.Provider != "sim" {
				c, err = cfg.ClientCache.Build(spec, providers, stats)
			} else {
				c, err = llm.BuildClient(spec, providers, stats)
			}
			if err == nil {
				c, err = wrap(c)
			}
			if err != nil {
				env.Close()
				return nil, fmt.Errorf("building model registry: %w", err)
			}
			reg.Register(c)
			models = append(models, spec.Name)
		}
	}
	env.Bench = bench
	env.Registry = reg
	env.Models = models
	return env, nil
}

// NewEnv builds the benchmark and the five simulated models with the default
// worker budget (GOMAXPROCS).
func NewEnv(seed int64, verifyEquiv bool) (*Env, error) {
	return NewEnvConfig(Config{Seed: seed, VerifyEquivalences: verifyEquiv})
}

// ctx returns the context task runs execute under, carrying the worker
// budget for runner.Map fan-out inside core.Run* — and the environment's
// tracer and run span when tracing is on.
func (e *Env) ctx() context.Context {
	base := e.traceCtx
	if base == nil {
		base = context.Background()
	}
	return runner.WithParallelism(base, e.Parallel)
}

func key(task, model, ds string) string { return task + "\x00" + model + "\x00" + ds }

// Results runs (or returns cached) one task×model×dataset cell through the
// core registry's generic driver, returning the task's boxed results in
// example order. Unknown tasks and datasets the task has no cell for fail;
// ds "" selects the task's default (and only valid value for pinned tasks).
func (e *Env) Results(taskID, model, ds string) ([]any, error) {
	task, ok := core.TaskByID(taskID)
	if !ok {
		return nil, fmt.Errorf("unknown task %q (registered: %v)", taskID, core.TaskIDs())
	}
	if ds == "" {
		ds = task.DefaultDataset()
	}
	k := key(taskID, model, ds)
	return e.results.Do(k, func() ([]any, error) {
		client, err := e.Registry.Get(model)
		if err != nil {
			return nil, err
		}
		cell, ok := task.Cell(e.Bench, ds)
		if !ok {
			return nil, fmt.Errorf("task %s has no %q cell (datasets: %v)", taskID, ds, task.Datasets())
		}
		ctx, span := obs.Start(e.ctx(), "task.cell")
		if span != nil {
			span.SetString("task", taskID)
			span.SetString("model", model)
			span.SetString("dataset", ds)
			span.SetInt("examples", int64(len(cell)))
		}
		opts := core.RunOpts{ContinueOnError: e.ContinueOnError, MaxFailures: e.MaxFailures}
		out := make([]any, 0, len(cell))
		var failed []CellFailure
		err = task.RunStreamOpts(ctx, client, cell, opts, func(idx int, r any, err error) error {
			if err != nil {
				failed = append(failed, CellFailure{Index: idx, ID: cell[idx].ID, Err: err.Error()})
				return nil
			}
			out = append(out, r)
			return nil
		})
		if span != nil {
			span.SetInt("failed", int64(len(failed)))
		}
		span.EndErr(err)
		if err != nil {
			return nil, err
		}
		if len(failed) > 0 {
			e.failMu.Lock()
			if e.failures == nil {
				e.failures = make(map[string][]CellFailure)
			}
			e.failures[k] = failed
			e.failMu.Unlock()
		}
		return out, nil
	})
}

// Failures returns the failed-example records of one cell's partial run
// (nil when the cell ran clean or has not run). ds "" selects the task's
// default dataset, mirroring Results.
func (e *Env) Failures(taskID, model, ds string) []CellFailure {
	if task, ok := core.TaskByID(taskID); ok && ds == "" {
		ds = task.DefaultDataset()
	}
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return append([]CellFailure{}, e.failures[key(taskID, model, ds)]...)
}

// FailedByModel aggregates recorded example failures per model across every
// cell run so far — the source of the failed column in sqlbench -stats.
func (e *Env) FailedByModel() map[string]int {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	out := make(map[string]int)
	for k, fs := range e.failures {
		parts := strings.SplitN(k, "\x00", 3)
		if len(parts) == 3 {
			out[parts[1]] += len(fs)
		}
	}
	return out
}

// Summary computes the generic accuracy summary of one task cell.
func (e *Env) Summary(taskID, model, ds string) (core.Summary, error) {
	task, ok := core.TaskByID(taskID)
	if !ok {
		return core.Summary{}, fmt.Errorf("unknown task %q", taskID)
	}
	rs, err := e.Results(taskID, model, ds)
	if err != nil {
		return core.Summary{}, err
	}
	s := task.Summarize(rs)
	s.Failed = len(e.Failures(taskID, model, ds))
	return s, nil
}

// typedResults unboxes a cached cell into the task's concrete result type —
// the bridge from the erased registry cells back to the typed aggregations
// (core.Confusion and friends, over the task's Score) the per-figure
// experiments use. The typed slice is memoized per cell, so repeated
// accesses cost a cache lookup, not a reallocation.
func typedResults[R any](e *Env, taskID, model, ds string) ([]R, error) {
	if task, ok := core.TaskByID(taskID); ok && ds == "" {
		ds = task.DefaultDataset()
	}
	out, err := e.typed.Do(key(taskID, model, ds), func() (any, error) {
		rs, err := e.Results(taskID, model, ds)
		if err != nil {
			return nil, err
		}
		out := make([]R, len(rs))
		for i, r := range rs {
			v, ok := r.(R)
			if !ok {
				return nil, fmt.Errorf("task %s results hold %T, not the requested type", taskID, r)
			}
			out[i] = v
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return out.([]R), nil
}

// cell identifies one task×model×dataset unit of work in a prefetch.
type cell struct{ task, model, ds string }

// prefetch computes the given cells concurrently (bounded by Env.Parallel)
// so the serial rendering loops that follow hit warm caches. Cells already
// cached cost nothing; duplicate in-flight cells coalesce.
func (e *Env) prefetch(cells []cell) error {
	_, err := runner.Map(e.ctx(), 0, cells, func(_ context.Context, _ int, c cell) (struct{}, error) {
		_, err := e.Results(c.task, c.model, c.ds)
		return struct{}{}, err
	})
	return err
}

// cross builds one task's model×dataset cell grid. nil datasets means the
// task's full dataset list from the registry.
func cross(taskID string, models, datasets []string) []cell {
	if datasets == nil {
		if task, ok := core.TaskByID(taskID); ok {
			datasets = task.Datasets()
		}
	}
	cells := make([]cell, 0, len(models)*len(datasets))
	for _, m := range models {
		for _, ds := range datasets {
			cells = append(cells, cell{taskID, m, ds})
		}
	}
	return cells
}

// warm precomputes one task's cells for a model×dataset grid (nil datasets
// = every dataset the registry lists for the task).
func (e *Env) warm(taskID string, models, datasets []string) error {
	return e.prefetch(cross(taskID, models, datasets))
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(env *Env, w io.Writer) error
}

var registry = map[string]Experiment{}
var registryOrder []string

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
	registryOrder = append(registryOrder, e.ID)
}

// All returns every experiment in registration (paper) order.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, id := range registryOrder {
		out = append(out, registry[id])
	}
	return out
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}
