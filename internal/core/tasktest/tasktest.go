// Package tasktest is the reusable contract suite every registered
// core.Task must pass (the task-level mirror of llm/clienttest): metadata
// present and consistent, the example codec round-trips, known-good and
// known-bad responses grade as expected, a result's score agrees with its
// view, and streaming delivers identical results to a buffered run at
// parallel 1 and 8. The core package runs it against every registry entry,
// so "a task is a registry entry" stays an enforced contract rather than a
// comment.
package tasktest

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/runner"
)

// GradeCase is one canned model response graded against a chosen labeled
// example.
type GradeCase struct {
	// Name labels the subtest.
	Name string
	// Example is the labeled benchmark example the response answers.
	Example core.Example
	// Response is the raw model response text to grade.
	Response string
	// WantCorrect is the expected correctness verdict; ignored when Check
	// is set.
	WantCorrect bool
	// Check optionally replaces the default verdict comparison (tasks
	// graded on a continuous score have no Correct field to compare).
	Check func(v core.ResultView) error
}

// Options configures a contract run.
type Options struct {
	// Task is the registry entry under test. Required.
	Task core.Task
	// Bench supplies the labeled cells. Required.
	Bench *core.Benchmark
	// Client is a deterministic model used for the streamed-vs-buffered
	// subtest. Required.
	Client llm.Client
	// GradeCases exercise the response grader; at least one known-good and
	// one known-bad case keep the codec honest.
	GradeCases []GradeCase
	// StreamLimit caps how many examples the determinism subtest evaluates
	// (0 = 48).
	StreamLimit int
}

// Run executes the contract suite as subtests of t.
func Run(t *testing.T, opts Options) {
	t.Helper()
	task := opts.Task
	if task == nil || opts.Bench == nil || opts.Client == nil {
		t.Fatal("tasktest: Options.Task, Bench, and Client are required")
	}

	t.Run("Metadata", func(t *testing.T) {
		if task.ID() == "" || task.Name() == "" || task.Description() == "" {
			t.Fatalf("incomplete identity: id=%q name=%q description=%q",
				task.ID(), task.Name(), task.Description())
		}
		if len(task.Skills()) == 0 {
			t.Error("no skill tags")
		}
		datasets := task.Datasets()
		if len(datasets) == 0 {
			t.Fatal("no datasets")
		}
		found := false
		for _, ds := range datasets {
			if ds == task.DefaultDataset() {
				found = true
			}
		}
		if !found {
			t.Errorf("default dataset %q not in %v", task.DefaultDataset(), datasets)
		}
	})

	t.Run("CellShapes", func(t *testing.T) {
		for _, ds := range task.Datasets() {
			cell, ok := task.Cell(opts.Bench, ds)
			if !ok {
				t.Fatalf("Cell(%s) unknown despite being listed", ds)
			}
			if len(cell) == 0 {
				t.Fatalf("Cell(%s) empty", ds)
			}
			seen := map[string]bool{}
			for i, ex := range cell {
				if ex.ID == "" {
					t.Fatalf("%s example %d has no ID", ds, i)
				}
				if seen[ex.ID] {
					t.Fatalf("%s duplicate example ID %q", ds, ex.ID)
				}
				seen[ex.ID] = true
				want := 1
				if task.PairInput() {
					want = 2
				}
				if len(ex.SQL) != want {
					t.Fatalf("%s example %s carries %d statements, want %d", ds, ex.ID, len(ex.SQL), want)
				}
			}
		}
		if _, ok := task.Cell(opts.Bench, "no-such-dataset"); ok {
			t.Error("Cell accepted an unknown dataset")
		}
	})

	t.Run("CodecRoundTrip", func(t *testing.T) {
		cell, _ := task.Cell(opts.Bench, task.DefaultDataset())
		src := cell[0]
		ex, err := task.AdHoc("adhoc/0", src.SQL)
		if err != nil {
			t.Fatalf("AdHoc: %v", err)
		}
		if ex.ID != "adhoc/0" {
			t.Errorf("AdHoc ID = %q", ex.ID)
		}
		if len(ex.SQL) != len(src.SQL) {
			t.Fatalf("AdHoc statements = %d, want %d", len(ex.SQL), len(src.SQL))
		}
		for i := range ex.SQL {
			if ex.SQL[i] != src.SQL[i] {
				t.Errorf("statement %d did not round-trip: %q vs %q", i, ex.SQL[i], src.SQL[i])
			}
		}
		if ex.Value() == nil {
			t.Error("AdHoc example has no concrete value")
		}
		// Wrong arity must be rejected, not mis-assembled.
		if _, err := task.AdHoc("adhoc/bad", append(append([]string{}, src.SQL...), "SELECT 1")); err == nil {
			t.Error("AdHoc accepted too many statements")
		}
	})

	t.Run("Grade", func(t *testing.T) {
		if len(opts.GradeCases) == 0 {
			t.Skip("no grade cases supplied")
		}
		for _, gc := range opts.GradeCases {
			t.Run(gc.Name, func(t *testing.T) {
				res, err := task.Grade(gc.Example, llm.Response{Text: gc.Response})
				if err != nil {
					t.Fatalf("Grade: %v", err)
				}
				view := task.View(res, true)
				if view.ID != gc.Example.ID {
					t.Errorf("view ID = %q, want %q", view.ID, gc.Example.ID)
				}
				if err := scoreMatchesView(task, res); err != nil {
					t.Error(err)
				}
				if gc.Check != nil {
					if err := gc.Check(view); err != nil {
						t.Error(err)
					}
					return
				}
				if view.Correct == nil {
					t.Fatalf("labeled view has no correctness verdict: %+v", view)
				}
				if *view.Correct != gc.WantCorrect {
					t.Errorf("correct = %v, want %v (response %q)", *view.Correct, gc.WantCorrect, gc.Response)
				}
			})
		}
	})

	cell, _ := task.Cell(opts.Bench, task.DefaultDataset())
	limit := opts.StreamLimit
	if limit == 0 {
		limit = 48
	}
	if len(cell) > limit {
		cell = cell[:limit]
	}

	// The NDJSON correct field and the tables read one verdict: wherever a
	// labeled view sets Correct, the score gives full credit exactly when it
	// is true, and the summary counts every result.
	t.Run("ScoresMatchViews", func(t *testing.T) {
		var results []any
		err := task.RunStreamOpts(context.Background(), opts.Client, cell, core.RunOpts{}, func(_ int, r any, _ error) error {
			results = append(results, r)
			return nil
		})
		if err != nil {
			t.Fatalf("RunStreamOpts: %v", err)
		}
		for _, r := range results {
			if err := scoreMatchesView(task, r); err != nil {
				t.Error(err)
			}
		}
		run, err := task.Run(context.Background(), opts.Client, cell, core.RunOpts{})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if s := task.Summarize(run); s.N != len(results) || s.Failed != 0 {
			t.Errorf("summary counts %d results and %d failures, want %d and 0", s.N, s.Failed, len(results))
		}
	})

	t.Run("StreamedMatchesBufferedParallel", func(t *testing.T) {
		run := func(parallel int) []string {
			ctx := runner.WithParallelism(context.Background(), parallel)
			var out []string
			err := task.RunStreamOpts(ctx, opts.Client, cell, core.RunOpts{}, func(_ int, r any, _ error) error {
				out = append(out, fmt.Sprintf("%#v", r))
				return nil
			})
			if err != nil {
				t.Fatalf("RunStreamOpts (parallel=%d): %v", parallel, err)
			}
			return out
		}
		want := run(1)
		if len(want) != len(cell) {
			t.Fatalf("delivered %d results for %d examples", len(want), len(cell))
		}
		for _, parallel := range []int{1, 8} {
			got := run(parallel)
			if len(got) != len(want) {
				t.Fatalf("parallel=%d delivered %d results, want %d", parallel, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("parallel=%d result %d differs from sequential run", parallel, i)
				}
			}
		}
	})
}

// scoreMatchesView checks that a labeled view's correctness verdict, when
// the task sets one, is the score's full credit.
func scoreMatchesView(task core.Task, result any) error {
	v := task.View(result, true)
	if v.Correct == nil {
		return nil
	}
	if credit := task.Score(result).Credit; *v.Correct != (credit == 1) {
		return fmt.Errorf("%s: view says correct=%v, score gives credit %v", v.ID, *v.Correct, credit)
	}
	return nil
}
