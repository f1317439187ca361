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

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/llm/checkpoint"
	"repro/internal/llm/faultllm"
	"repro/internal/llm/httpllm"
	"repro/internal/llm/sim"
	"repro/internal/obs"
	"repro/internal/prompt"
	"repro/internal/runner"
)

// Env carries the shared state experiments run against: the benchmark, the
// model registry, and memoized task×model×dataset cells. A cell is the one
// way an artifact reaches model results: per-key singleflight over cells,
// each run under one prompt template, so distinct cells compute
// concurrently, duplicate requests for the same cell coalesce onto one
// computation, and completed cells are served from cache. The cell grid is
// driven by the core task registry — any registered task gets cells with no
// Env changes. An Env is safe for concurrent use.
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
	// completion fails is recorded with its cell (see Failures) instead of
	// aborting it, and summaries report the failed count. MaxFailures bounds
	// how many failures a cell tolerates before aborting anyway (0 =
	// unlimited).
	ContinueOnError bool
	MaxFailures     int

	// cells memoizes every cell run: its graded results, held once as the
	// task's own []R, and its failed examples.
	cells runner.Flight[cellKey, core.CellRun]

	// stores holds the open checkpoint stores (one per model) when the
	// environment was built with a CheckpointDir; Close releases them.
	stores []*checkpoint.Store

	// traceCtx carries the environment's tracer and run span (when one was
	// configured) into every task run; runSpan is the root "run" span Close
	// ends.
	traceCtx context.Context
	runSpan  *obs.Span
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
// budget for the worker fan-out inside core's drivers — and the environment's
// tracer and run span when tracing is on.
func (e *Env) ctx() context.Context {
	base := e.traceCtx
	if base == nil {
		base = context.Background()
	}
	return runner.WithParallelism(base, e.Parallel)
}

// cellKey identifies one memoized cell: a task×model×dataset grid cell run
// under one prompt template ("" is the task's default template).
type cellKey struct{ task, model, ds, template string }

// cell names a cell to run: its task, model and dataset ("" = the task's
// default), and the prompt template (zero = the task's default).
type cell struct {
	task, model, ds string
	tpl             prompt.Template
}

// run runs (or returns the memoized) cell through the core registry's
// collecting driver. Unknown tasks and datasets the task has no cell for
// fail.
func (e *Env) run(c cell) (core.Task, core.CellRun, error) {
	task, ok := core.TaskByID(c.task)
	if !ok {
		return nil, core.CellRun{}, fmt.Errorf("unknown task %q (registered: %v)", c.task, core.TaskIDs())
	}
	if c.ds == "" {
		c.ds = task.DefaultDataset()
	}
	run, err := e.cells.Do(cellKey{c.task, c.model, c.ds, c.tpl.ID}, func() (core.CellRun, error) {
		client, err := e.Registry.Get(c.model)
		if err != nil {
			return core.CellRun{}, err
		}
		examples, ok := task.Cell(e.Bench, c.ds)
		if !ok {
			return core.CellRun{}, fmt.Errorf("task %s has no %q cell (datasets: %v)", c.task, c.ds, task.Datasets())
		}
		ctx, span := obs.Start(e.ctx(), "task.cell")
		if span != nil {
			span.SetString("task", c.task)
			span.SetString("model", c.model)
			span.SetString("dataset", c.ds)
			span.SetInt("examples", int64(len(examples)))
		}
		opts := core.RunOpts{Template: c.tpl, ContinueOnError: e.ContinueOnError, MaxFailures: e.MaxFailures}
		run, err := task.Run(ctx, client, examples, opts)
		span.SetInt("failed", int64(len(run.Failed)))
		span.EndErr(err)
		return run, err
	})
	return task, run, err
}

// typedResults returns a cell's graded results as the task's concrete
// result type — the bridge from the erased registry cells to the typed
// aggregations (core.Confusion and friends, over the task's Score) the
// per-figure experiments use. It costs a cache lookup and one assertion.
func typedResults[R any](e *Env, c cell) ([]R, error) {
	_, run, err := e.run(c)
	if err != nil {
		return nil, err
	}
	rs, ok := run.Results.([]R)
	if !ok {
		return nil, fmt.Errorf("task %s results are %T, not the requested type", c.task, run.Results)
	}
	return rs, nil
}

// Failures returns the failed-example records of one cell's partial run
// under the task's default prompt (nil when the cell ran clean); ds ""
// selects the task's default dataset. It runs the cell if it has not run.
func (e *Env) Failures(taskID, model, ds string) ([]core.Failure, error) {
	_, run, err := e.run(cell{task: taskID, model: model, ds: ds})
	return run.Failed, err
}

// FailedByModel aggregates recorded example failures per model across every
// cell run so far — the source of the failed column in sqlbench -stats.
func (e *Env) FailedByModel() map[string]int {
	out := make(map[string]int)
	e.cells.Range(func(k cellKey, run core.CellRun) { out[k.model] += len(run.Failed) })
	return out
}

// Summary computes the generic accuracy summary of one task cell under the
// task's default prompt, its failed count included.
func (e *Env) Summary(taskID, model, ds string) (core.Summary, error) {
	return e.summary(cell{task: taskID, model: model, ds: ds})
}

func (e *Env) summary(c cell) (core.Summary, error) {
	task, run, err := e.run(c)
	if err != nil {
		return core.Summary{}, err
	}
	return task.Summarize(run), nil
}

// warm computes one task's cells for every model × the given datasets
// concurrently (bounded by Env.Parallel), so the serial rendering loops that
// follow hit warm caches. Cells already cached cost nothing; duplicate
// in-flight cells coalesce.
func (e *Env) warm(taskID string, datasets []string) error {
	cells := make([]cell, 0, len(e.Models)*len(datasets))
	for _, m := range e.Models {
		for _, ds := range datasets {
			cells = append(cells, cell{task: taskID, model: m, ds: ds})
		}
	}
	_, err := runner.Map(e.ctx(), 0, cells, func(_ context.Context, _ int, c cell) (struct{}, error) {
		_, _, err := e.run(c)
		return struct{}{}, err
	})
	return err
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
