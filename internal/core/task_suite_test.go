package core_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/core/tasktest"
	"repro/internal/llm/sim"
	"repro/internal/nlgen"
)

// One benchmark + knowledge context for the whole contract-suite file.
var (
	suiteOnce  sync.Once
	suiteBench *core.Benchmark
	suiteKnow  *sim.Knowledge
	suiteErr   error
)

func suiteEnv(t *testing.T) (*core.Benchmark, *sim.Knowledge) {
	t.Helper()
	suiteOnce.Do(func() {
		suiteBench, suiteErr = core.Build(core.BuildConfig{Seed: 1})
		if suiteErr == nil {
			suiteKnow = sim.NewKnowledge(suiteBench.SchemasByDataset())
		}
	})
	if suiteErr != nil {
		t.Fatalf("Build: %v", suiteErr)
	}
	return suiteBench, suiteKnow
}

// findExample returns the first default-cell example whose concrete value
// satisfies pred.
func findExample(t *testing.T, b *core.Benchmark, task core.Task, pred func(any) bool) core.Example {
	t.Helper()
	cell, ok := task.Cell(b, task.DefaultDataset())
	if !ok {
		t.Fatalf("no default cell for %s", task.ID())
	}
	for _, ex := range cell {
		if pred(ex.Value()) {
			return ex
		}
	}
	t.Fatalf("no matching example in %s default cell", task.ID())
	return core.Example{}
}

// field extracts one named field from a result view.
func field(t *testing.T, v core.ResultView, key string) any {
	t.Helper()
	for _, f := range v.Fields {
		if f.Key == key {
			return f.Value
		}
	}
	t.Fatalf("view has no field %q: %+v", key, v.Fields)
	return nil
}

// TestTaskRegistry pins the registry's shape: the paper's five tasks in
// serve-endpoint order, then registered extensions.
func TestTaskRegistry(t *testing.T) {
	ids := core.TaskIDs()
	want := []string{"syntax", "tokens", "equiv", "perf", "explain", "fill", "state"}
	if len(ids) != len(want) {
		t.Fatalf("registered tasks = %v, want %v", ids, want)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("task %d = %q, want %q (all: %v)", i, ids[i], id, ids)
		}
		task, ok := core.TaskByID(id)
		if !ok || task.ID() != id {
			t.Fatalf("TaskByID(%s) broken", id)
		}
	}
	if _, ok := core.TaskByID("nosuch"); ok {
		t.Error("TaskByID(nosuch) should fail")
	}
	if got := len(core.Tasks()); got != len(want) {
		t.Errorf("Tasks() = %d entries", got)
	}
}

// TestTaskContracts runs the reusable contract suite against every
// registered task, with known-good/known-bad grading fixtures per task.
func TestTaskContracts(t *testing.T) {
	b, k := suiteEnv(t)
	client, err := sim.New("GPT4", k)
	if err != nil {
		t.Fatal(err)
	}

	cases := func(task core.Task) []tasktest.GradeCase {
		switch task.ID() {
		case "syntax":
			pos := findExample(t, b, task, func(v any) bool { return v.(core.SyntaxExample).HasError })
			return []tasktest.GradeCase{
				{Name: "good", Example: pos, Response: "yes; type=aggr-attr; detail=x", WantCorrect: true},
				{Name: "bad", Example: pos, Response: "no error", WantCorrect: false},
			}
		case "tokens":
			pos := findExample(t, b, task, func(v any) bool { return v.(core.TokenExample).Missing })
			return []tasktest.GradeCase{
				{Name: "good", Example: pos, Response: "yes; kind=keyword; token=FROM; position=2", WantCorrect: true},
				{Name: "bad", Example: pos, Response: "No. The query appears complete, with no missing words.", WantCorrect: false},
			}
		case "equiv":
			pos := findExample(t, b, task, func(v any) bool { return v.(core.EquivExample).Equivalent })
			return []tasktest.GradeCase{
				{Name: "good", Example: pos, Response: "equivalent; type=cte", WantCorrect: true},
				{Name: "bad", Example: pos, Response: "not equivalent", WantCorrect: false},
			}
		case "perf":
			pos := findExample(t, b, task, func(v any) bool { return v.(core.PerfExample).Costly })
			return []tasktest.GradeCase{
				{Name: "good", Example: pos, Response: "yes; high cost", WantCorrect: true},
				{Name: "bad", Example: pos, Response: "no; low cost", WantCorrect: false},
			}
		case "explain":
			ex := findExample(t, b, task, func(v any) bool { return true })
			full := nlgen.Render(ex.Value().(core.ExplainExample).Facts, nlgen.RenderOptions{})
			coverage := func(min, max float64) func(core.ResultView) error {
				return func(v core.ResultView) error {
					cov, ok := field(t, v, "coverage").(float64)
					if !ok {
						return fmt.Errorf("coverage is not a float: %v", v.Fields)
					}
					if cov < min || cov > max {
						return fmt.Errorf("coverage %.2f outside [%.2f, %.2f]", cov, min, max)
					}
					return nil
				}
			}
			return []tasktest.GradeCase{
				{Name: "good", Example: ex, Response: full, Check: coverage(0.5, 1)},
				{Name: "bad", Example: ex, Response: "This statement does something.", Check: coverage(0, 0.4)},
			}
		case "fill":
			pos := findExample(t, b, task, func(v any) bool {
				fe := v.(core.FillExample)
				return fe.Missing && fe.Removed != ""
			})
			removed := pos.Value().(core.FillExample).Removed
			return []tasktest.GradeCase{
				{Name: "good", Example: pos, Response: fmt.Sprintf("The missing token is %q.", removed), WantCorrect: true},
				{Name: "bad", Example: pos, Response: "The query is complete.", WantCorrect: false},
			}
		case "state":
			pos := findExample(t, b, task, func(v any) bool {
				return len(v.(core.StateExample).Want) > 0
			})
			rows := pos.Value().(core.StateExample).Want
			return []tasktest.GradeCase{
				{Name: "good", Example: pos, Response: "Final contents: " + strings.Join(rows, " "), WantCorrect: true},
				{Name: "bad", Example: pos, Response: "After running the script the table is empty.", WantCorrect: false},
			}
		default:
			t.Fatalf("no grading fixtures for task %s — add them here", task.ID())
			return nil
		}
	}

	for _, task := range core.Tasks() {
		t.Run(task.ID(), func(t *testing.T) {
			tasktest.Run(t, tasktest.Options{
				Task:       task,
				Bench:      b,
				Client:     client,
				GradeCases: cases(task),
			})
		})
	}
}

// TestFillTaskEndToEnd drives the sixth task through the generic driver and
// sanity-checks its scores: detection tracks the miss_token operating
// point, and exact token recovery lands between chance and perfection (the
// repair oracle recovers keywords verbatim but guesses identifiers).
func TestFillTaskEndToEnd(t *testing.T) {
	b, k := suiteEnv(t)
	client, err := sim.New("GPT4", k)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := core.Run(context.Background(), client, core.FillTask, core.FillTask.Cell(b, core.SDSS), core.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(b.Tokens[core.SDSS]) {
		t.Fatalf("fill results = %d, want %d", len(res), len(b.Tokens[core.SDSS]))
	}
	s := core.Summarize(res, core.FillTask.Score)
	if !s.HasPRF || s.F1 < 0.7 {
		t.Errorf("fill detection F1 = %.2f, want >= 0.7 (summary %+v)", s.F1, s)
	}
	if s.Accuracy < 0.2 || s.Accuracy > 0.98 {
		t.Errorf("fill token-recovery accuracy = %.2f, want a non-degenerate middle ground", s.Accuracy)
	}
	// Some recovered tokens must match the ground truth exactly.
	exact := 0
	for _, r := range res {
		if r.Example.Missing && r.PredMiss && r.PredToken == r.Example.Removed {
			exact++
		}
	}
	if exact == 0 {
		t.Error("no exact token recovery at all")
	}
}

// TestStateTaskEndToEnd drives the seventh task through the generic driver:
// every response must parse, a strong model lands well above chance, and a
// weak model stays clearly below a strong one (the error channel separates
// the profiles).
func TestStateTaskEndToEnd(t *testing.T) {
	b, k := suiteEnv(t)
	accuracy := func(model string) float64 {
		client, err := sim.New(model, k)
		if err != nil {
			t.Fatal(err)
		}
		var all []core.StateResult
		for _, ds := range core.TaskDatasets {
			res, _, err := core.Run(context.Background(), client, core.StateTask, core.StateTask.Cell(b, ds), core.RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != len(b.State[ds]) {
				t.Fatalf("%s/%s: %d results, want %d", model, ds, len(res), len(b.State[ds]))
			}
			all = append(all, res...)
		}
		for _, r := range all {
			if !r.Parsed {
				t.Errorf("%s: unparseable state response on %s: %q", model, r.Example.ID, r.Response)
			}
		}
		return core.Summarize(all, core.StateTask.Score).Accuracy
	}
	strong, weak := accuracy("GPT4"), accuracy("Gemini")
	if strong < 0.6 {
		t.Errorf("GPT4 state accuracy = %.2f, want >= 0.6", strong)
	}
	if strong >= 0.999 {
		t.Errorf("GPT4 state accuracy = %.2f: error channel never fired", strong)
	}
	if weak >= strong {
		t.Errorf("Gemini (%.2f) should not beat GPT4 (%.2f) on state tracking", weak, strong)
	}
}

// TestFillDerivedCellsAlign checks the fill cells mirror the miss_token
// ground truth one-to-one.
func TestFillDerivedCellsAlign(t *testing.T) {
	b, _ := suiteEnv(t)
	for _, ds := range core.TaskDatasets {
		fill := core.FillTask.Cell(b, ds)
		toks := b.Tokens[ds]
		if len(fill) != len(toks) {
			t.Fatalf("%s: fill cell = %d examples, tokens = %d", ds, len(fill), len(toks))
		}
		for i, fe := range fill {
			te := toks[i]
			if fe.SQL != te.SQL || fe.Missing != te.Missing || fe.Removed != te.Removed ||
				fe.Kind != te.Kind || fe.Position != te.Position {
				t.Fatalf("%s example %d diverges from its token source", ds, i)
			}
		}
	}
}
