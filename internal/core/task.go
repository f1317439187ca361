package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/prompt"
	"repro/internal/runner"
)

// This file defines the generic task-execution API: one typed contract
// (TaskDef) every SQL-understanding task implements, a package-level
// registry of type-erased entries (Task), and the generic drivers (Run and
// Task.RunStreamOpts) replacing the per-task Run* families.
// The serve, experiments, and report layers consume tasks only through the
// registry, so adding a task is one definition file plus RegisterTask — no
// dispatch code changes anywhere else.

// Field is one ordered key/value output of a result projection. Values must
// be JSON-encodable (bool, int, float64, string).
type Field struct {
	Key   string
	Value any
}

// ResultView is the task-agnostic projection of one result that generic
// consumers (the serve layer's NDJSON lines, the contract suite) render
// from. Fields carries the task-specific predictions and — on labeled
// examples — expected labels, in the order they should be emitted.
type ResultView struct {
	ID   string
	SQL  string
	SQL2 string // pair tasks: right-hand statement
	// Fields holds the task-specific pred_*/want_* outputs in emission order.
	Fields []Field
	// Correct compares the primary prediction against the label; nil for
	// unlabeled examples and for tasks graded on a continuous score.
	Correct *bool
	// Response is the raw model response ("" for tasks whose response is
	// itself a field, like the explanation).
	Response string
	Usage    llm.Usage
	Latency  time.Duration
	// Err is the failure message of an example that produced no graded
	// result (partial-failure runs). When set, only ID/SQL/SQL2 are
	// meaningful — a failed row renders alongside graded rows so a stream
	// accounts for every example it attempted.
	Err string
}

// FailedView projects a failed example into the generic renderable form —
// the row shape partial-failure streams emit for examples whose completion
// errored.
func FailedView(ex Example, err error) ResultView {
	v := ResultView{ID: ex.ID, Err: err.Error()}
	if len(ex.SQL) > 0 {
		v.SQL = ex.SQL[0]
	}
	if len(ex.SQL) > 1 {
		v.SQL2 = ex.SQL[1]
	}
	return v
}

// Summary is the generic accuracy aggregation of one task cell — the cell
// content of a registry-driven accuracy grid, folded from the cell's Scores
// by Summarize. Accuracy is the mean credit (fraction correct, or mean
// coverage for continuously graded tasks); Prec/Rec/F1 score the detection
// and are populated when HasPRF is set.
type Summary struct {
	N             int
	Accuracy      float64
	Prec, Rec, F1 float64
	HasPRF        bool
	// Failed counts examples that produced no graded result in a
	// partial-failure run. N counts graded results only, so N+Failed is the
	// attempted total. Task.Summarize fills it from the collected cell.
	Failed int
}

// TaskDef is the typed contract one task implements: identity and skill
// tags, dataset topology, an example codec, a prompt builder, and a
// response grader. E is the labeled example type, R the graded result type.
// A TaskDef is registered once (RegisterTask) and consumed either typed —
// the generic drivers below — or type-erased through the Task interface.
type TaskDef[E, R any] struct {
	// TaskID is the registry/endpoint id, e.g. "syntax".
	TaskID string
	// Name is the paper task name, e.g. "syntax_error".
	Name string
	// Description is one human-readable sentence for discovery listings.
	Description string
	// TaskSkills maps the paper's four understanding skills to emphasis
	// levels (0 = not probed, 1 = probed, 2 = strongly probed).
	TaskSkills map[Skill]int

	// PromptTask selects the task's prompt-template family; the drivers use
	// prompt.Default(PromptTask) unless RunOpts names another template.
	PromptTask prompt.Task
	// Pair marks tasks whose examples are statement pairs (ad-hoc input is
	// then [left, right] pairs instead of single statements).
	Pair bool

	// DatasetNames lists the benchmark datasets this task has cells for;
	// DefaultDataset is used when a caller names none. Single-dataset tasks
	// are pinned: the lone entry is always used.
	DatasetNames   []string
	DefaultDataset string
	// Cell returns the labeled examples of one dataset cell in evaluation
	// order.
	Cell func(b *Benchmark, ds string) []E

	// ExampleID returns an example's stable id; ExampleSQL its statement(s)
	// (one entry, or two for pair tasks); AdHoc builds an unlabeled example
	// from caller-submitted statement(s). AdHoc(ExampleID, ExampleSQL) must
	// round-trip.
	ExampleID  func(E) string
	ExampleSQL func(E) []string
	AdHoc      func(id string, sql []string) (E, error)

	// Render produces the prompt text for one example under a template.
	Render func(tpl prompt.Template, ex E) string
	// Grade post-processes one model response into a result.
	Grade func(ex E, resp llm.Response) R

	// View projects a result into the generic renderable form; labeled
	// selects whether expected labels and a correctness verdict appear.
	View func(r R, labeled bool) ResultView
	// Score says how one result counts toward the task's measurements; every
	// summary, table and figure aggregates these records. It reads the
	// result in place: the aggregators score every result of a cell on each
	// render, and a copy of each result would dominate that cost.
	Score func(r *R) Score
}

// ---------------------------------------------------------------------------
// Generic drivers

// Both drivers run one worker body on runner's one worker pool (budget
// taken from the context via runner.WithParallelism, defaulting to
// GOMAXPROCS), so results arrive in dataset order whatever the parallelism.
// Run collects a cell (experiment cells, prompt tuning, the library facade);
// Task.RunStreamOpts hands each result to a sink as its prefix completes
// (the serve layer).

// RunOpts controls a driver run's prompt and failure handling.
type RunOpts struct {
	// Template is the prompt every example renders under; its zero value
	// means the task's default, prompt.Default(PromptTask). A template with
	// Shots is a few-shot prompt.
	Template prompt.Template
	// ContinueOnError switches the run to partial-failure mode: an example
	// whose completion errors becomes an error row delivered to the sink in
	// its dataset position, and the run keeps going instead of aborting.
	ContinueOnError bool
	// MaxFailures aborts a continuing run once more than this many examples
	// have failed — the budget that bounds wasted work against a dead
	// backend. 0 means unlimited. Ignored unless ContinueOnError is set.
	MaxFailures int
}

// Failure records one example of a partial-failure run that produced no
// graded result: its stable id and the completion error message.
type Failure struct {
	ID, Err string
}

// runExample renders, completes, and grades one example — the shared worker
// body under every driver form. When a tracer rides the context it wraps the
// example in a "task.example" span (task/example/model attributes) with a
// "prompt.render" child covering template rendering; the span tree then
// continues into the client's own llm.request/llm.attempt spans. With no
// tracer the obs calls are nil no-ops.
func runExample[E, R any](ctx context.Context, client llm.Client, t *TaskDef[E, R], tpl prompt.Template, ex E) (R, error) {
	ctx, span := obs.Start(ctx, "task.example")
	if span != nil {
		span.SetString("task", t.TaskID)
		span.SetString("example", t.ExampleID(ex))
		span.SetString("model", client.Name())
	}
	_, rspan := obs.Start(ctx, "prompt.render")
	text := t.Render(tpl, ex)
	rspan.End()
	resp, err := client.Do(ctx, llm.NewRequest(text))
	if err != nil {
		span.EndErr(err)
		var zero R
		return zero, fmt.Errorf("completing %s: %w", t.ExampleID(ex), err)
	}
	r := t.Grade(ex, resp)
	span.End()
	return r, nil
}

// stream drives one model over a dataset under opts, delivering each graded
// result — or, in partial mode, each failed completion — to sink in dataset
// order. By default the first failed completion aborts the run.
func stream[E, R any](ctx context.Context, client llm.Client, t *TaskDef[E, R], ds []E, opts RunOpts, sink func(idx int, r R, err error) error) error {
	tpl := opts.Template
	if tpl.Text == "" {
		tpl = prompt.Default(t.PromptTask)
	}
	fn := func(ctx context.Context, _ int, ex E) (R, error) {
		return runExample(ctx, client, t, tpl, ex)
	}
	if !opts.ContinueOnError {
		return runner.MapStream(ctx, 0, ds, fn, func(idx int, r R) error { return sink(idx, r, nil) })
	}
	return runner.MapStreamPartial(ctx, 0, ds, opts.MaxFailures, fn, sink)
}

// Run drives one model over a dataset and collects the graded results in
// dataset order, with the examples that failed when opts.ContinueOnError
// lets the run continue past them. On an error, both hold what the run
// recorded before it stopped.
func Run[E, R any](ctx context.Context, client llm.Client, t *TaskDef[E, R], ds []E, opts RunOpts) ([]R, []Failure, error) {
	out := make([]R, 0, len(ds))
	var failed []Failure
	err := stream(ctx, client, t, ds, opts, func(idx int, r R, err error) error {
		if err != nil {
			failed = append(failed, Failure{ID: t.ExampleID(ds[idx]), Err: err.Error()})
			return nil
		}
		out = append(out, r)
		return nil
	})
	return out, failed, err
}

// CellRun is one collected run: the graded results in example order, as the
// task's own []R boxed once, and the failed examples.
type CellRun struct {
	Results any
	Failed  []Failure
}

// ---------------------------------------------------------------------------
// Type-erased view and registry

// Example is one type-erased task example: the stable id and submitted
// statement(s) plus the task's concrete example value underneath.
type Example struct {
	ID    string
	SQL   []string
	value any
}

// Value returns the task's concrete example value (e.g. a SyntaxExample).
func (e Example) Value() any { return e.value }

// Task is the type-erased registry view of a TaskDef — the contract the
// serve, experiments, and report layers drive tasks through without knowing
// their example or result types.
type Task interface {
	// ID is the registry/endpoint id; Name the paper task name.
	ID() string
	Name() string
	Description() string
	// Skills maps the four understanding skills to emphasis levels.
	Skills() map[Skill]int
	// Datasets lists the valid benchmark datasets; DefaultDataset the one
	// used when a caller names none. PairInput marks pair-statement tasks.
	Datasets() []string
	DefaultDataset() string
	PairInput() bool

	// Cell returns one dataset's labeled examples (false for datasets the
	// task has no cell for). AdHoc builds an unlabeled example from
	// caller-submitted statement(s): one, or two for pair tasks.
	Cell(b *Benchmark, ds string) ([]Example, bool)
	AdHoc(id string, sql []string) (Example, error)

	// Run drives one model over erased examples under opts and collects the
	// cell (see the typed Run): its Results hold the task's own []R.
	Run(ctx context.Context, client llm.Client, examples []Example, opts RunOpts) (CellRun, error)
	// RunStreamOpts drives one model over erased examples under opts,
	// delivering each result to sink in example order as soon as its prefix
	// completes: a boxed graded result with a nil error.
	// By default the first failed completion aborts the run and sink sees
	// only the examples before it. In partial mode (opts.ContinueOnError)
	// every example yields exactly one sink call, a failed one as a nil
	// result with the completion error, and the run continues past failures
	// until opts.MaxFailures trips the budget (a *runner.BudgetError).
	RunStreamOpts(ctx context.Context, client llm.Client, examples []Example, opts RunOpts, sink func(idx int, result any, err error) error) error
	// Grade post-processes one raw response for one example (boxed result).
	Grade(ex Example, resp llm.Response) (any, error)
	// View projects one boxed result into the generic renderable form.
	View(result any, labeled bool) ResultView
	// Score scores one boxed result; Summarize folds a collected cell into
	// the generic summary, its failed examples included.
	Score(result any) Score
	Summarize(run CellRun) Summary
}

// taskAdapter erases a TaskDef behind the Task interface.
type taskAdapter[E, R any] struct {
	def *TaskDef[E, R]
}

func (a taskAdapter[E, R]) ID() string             { return a.def.TaskID }
func (a taskAdapter[E, R]) Name() string           { return a.def.Name }
func (a taskAdapter[E, R]) Description() string    { return a.def.Description }
func (a taskAdapter[E, R]) PairInput() bool        { return a.def.Pair }
func (a taskAdapter[E, R]) DefaultDataset() string { return a.def.DefaultDataset }

func (a taskAdapter[E, R]) Skills() map[Skill]int {
	out := make(map[Skill]int, len(a.def.TaskSkills))
	for k, v := range a.def.TaskSkills {
		out[k] = v
	}
	return out
}

func (a taskAdapter[E, R]) Datasets() []string {
	return append([]string{}, a.def.DatasetNames...)
}

func (a taskAdapter[E, R]) wrap(ex E) Example {
	return Example{ID: a.def.ExampleID(ex), SQL: a.def.ExampleSQL(ex), value: ex}
}

func (a taskAdapter[E, R]) Cell(b *Benchmark, ds string) ([]Example, bool) {
	known := false
	for _, d := range a.def.DatasetNames {
		if d == ds {
			known = true
			break
		}
	}
	if !known {
		return nil, false
	}
	cell := a.def.Cell(b, ds)
	out := make([]Example, len(cell))
	for i, ex := range cell {
		out[i] = a.wrap(ex)
	}
	return out, true
}

func (a taskAdapter[E, R]) AdHoc(id string, sql []string) (Example, error) {
	want := 1
	if a.def.Pair {
		want = 2
	}
	if len(sql) != want {
		return Example{}, fmt.Errorf("task %s takes %d statement(s) per example, got %d", a.def.TaskID, want, len(sql))
	}
	ex, err := a.def.AdHoc(id, sql)
	if err != nil {
		return Example{}, err
	}
	return a.wrap(ex), nil
}

// unwrap asserts the erased examples back to the task's concrete type.
func (a taskAdapter[E, R]) unwrap(examples []Example) ([]E, error) {
	ds := make([]E, len(examples))
	for i, ex := range examples {
		v, ok := ex.value.(E)
		if !ok {
			return nil, fmt.Errorf("task %s: example %s holds %T, not the task's example type", a.def.TaskID, ex.ID, ex.value)
		}
		ds[i] = v
	}
	return ds, nil
}

func (a taskAdapter[E, R]) Run(ctx context.Context, client llm.Client, examples []Example, opts RunOpts) (CellRun, error) {
	ds, err := a.unwrap(examples)
	if err != nil {
		return CellRun{}, err
	}
	rs, failed, err := Run(ctx, client, a.def, ds, opts)
	return CellRun{Results: rs, Failed: failed}, err
}

func (a taskAdapter[E, R]) RunStreamOpts(ctx context.Context, client llm.Client, examples []Example, opts RunOpts, sink func(int, any, error) error) error {
	ds, err := a.unwrap(examples)
	if err != nil {
		return err
	}
	return stream(ctx, client, a.def, ds, opts, func(idx int, r R, err error) error {
		if err != nil {
			return sink(idx, nil, err)
		}
		return sink(idx, r, nil)
	})
}

func (a taskAdapter[E, R]) Grade(ex Example, resp llm.Response) (any, error) {
	v, ok := ex.value.(E)
	if !ok {
		return nil, fmt.Errorf("task %s: example %s holds %T, not the task's example type", a.def.TaskID, ex.ID, ex.value)
	}
	return a.def.Grade(v, resp), nil
}

func (a taskAdapter[E, R]) View(result any, labeled bool) ResultView {
	return a.def.View(result.(R), labeled)
}

func (a taskAdapter[E, R]) Score(result any) Score {
	r := result.(R)
	return a.def.Score(&r)
}

func (a taskAdapter[E, R]) Summarize(run CellRun) Summary {
	s := Summarize(run.Results.([]R), a.def.Score)
	s.Failed = len(run.Failed)
	return s
}

// The package-level registry; the read side is what every generic
// consumer — handlers, experiment grids, the contract suite — iterates.
var (
	taskMu    sync.RWMutex
	taskByID  = map[string]Task{}
	taskOrder []string
)

// The built-in registrations, in the paper's endpoint order. A new task is
// one definition file plus one line here — nothing else in the codebase
// names it.
func init() {
	RegisterTask(SyntaxTask)
	RegisterTask(TokensTask)
	RegisterTask(EquivTask)
	RegisterTask(PerfTask)
	RegisterTask(ExplainTask)
	RegisterTask(FillTask)
	RegisterTask(StateTask)
}

// RegisterTask validates a definition and adds it to the registry. It
// panics on an invalid or duplicate definition, since registration happens
// at init time.
func RegisterTask[E, R any](def *TaskDef[E, R]) {
	switch {
	case def.TaskID == "" || def.Name == "":
		panic("core: task registration without id/name")
	case def.Cell == nil || def.ExampleID == nil || def.ExampleSQL == nil || def.AdHoc == nil:
		panic(fmt.Sprintf("core: task %s lacks its example codec", def.TaskID))
	case def.Render == nil || def.Grade == nil || def.View == nil || def.Score == nil:
		panic(fmt.Sprintf("core: task %s lacks prompt/grade/view/score hooks", def.TaskID))
	case len(def.DatasetNames) == 0:
		panic(fmt.Sprintf("core: task %s names no datasets", def.TaskID))
	}
	valid := false
	for _, ds := range def.DatasetNames {
		if ds == def.DefaultDataset {
			valid = true
		}
	}
	if !valid {
		panic(fmt.Sprintf("core: task %s default dataset %q is not in its dataset list", def.TaskID, def.DefaultDataset))
	}
	taskMu.Lock()
	defer taskMu.Unlock()
	if _, dup := taskByID[def.TaskID]; dup {
		panic("core: duplicate task id " + def.TaskID)
	}
	taskByID[def.TaskID] = taskAdapter[E, R]{def: def}
	taskOrder = append(taskOrder, def.TaskID)
}

// Tasks returns every registered task in registration order.
func Tasks() []Task {
	taskMu.RLock()
	defer taskMu.RUnlock()
	out := make([]Task, 0, len(taskOrder))
	for _, id := range taskOrder {
		out = append(out, taskByID[id])
	}
	return out
}

// TaskByID looks a task up by its registry id.
func TaskByID(id string) (Task, bool) {
	taskMu.RLock()
	defer taskMu.RUnlock()
	t, ok := taskByID[id]
	return t, ok
}

// TaskIDs returns the registered task ids in registration order.
func TaskIDs() []string {
	taskMu.RLock()
	defer taskMu.RUnlock()
	return append([]string{}, taskOrder...)
}

// boolp builds the optional correctness pointer ResultView uses.
func boolp(b bool) *bool { return &b }
