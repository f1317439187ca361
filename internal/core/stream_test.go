package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/prompt"
	"repro/internal/runner"
)

// Streaming-vs-buffered determinism for every registered task — the serving
// layer's guarantee that an NDJSON response is the same bytes whatever the
// server's concurrency — lives in the contract suite
// (tasktest.Run's StreamedMatchesBufferedParallel, driven for each registry
// entry by TestTaskContracts). This file covers what the suite does not:
// the typed buffered driver agreeing with the erased streaming path, and
// the streaming path's failure handling.

// The typed buffered driver must agree with the erased streaming path.
func TestBufferedMatchesErasedStream(t *testing.T) {
	b := bench(t)
	k := sim.NewKnowledge(b.SchemasByDataset())
	client, err := sim.New("Llama3", k)
	if err != nil {
		t.Fatal(err)
	}
	ctx := runner.WithParallelism(context.Background(), 4)
	ds := b.Syntax[SDSS][:40]

	buffered, _, err := Run(ctx, client, SyntaxTask, ds, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	task, ok := TaskByID(SyntaxTask.TaskID)
	if !ok {
		t.Fatal("syntax task not registered")
	}
	cell, _ := task.Cell(b, SDSS)
	var streamed []SyntaxResult
	err = task.RunStreamOpts(ctx, client, cell[:40], RunOpts{}, func(_ int, r any, _ error) error {
		streamed = append(streamed, r.(SyntaxResult))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if dump(buffered) != dump(streamed) {
		t.Error("typed buffered results differ from erased streamed results")
	}
}

// dump serializes a result slice the same way the streamed side does.
func dump[R any](rs []R) string {
	var buf bytes.Buffer
	for _, r := range rs {
		fmt.Fprintf(&buf, "%#v\n", r)
	}
	return buf.String()
}

// failingClient answers "no error" to every prompt except those of the
// examples listed in fail, which it fails; it reads the example index back
// from the statement streamExamples built.
type failingClient struct{ fail map[int]bool }

var errPlanned = errors.New("planned failure")

func (c failingClient) Name() string { return "failing" }

func (c failingClient) Do(_ context.Context, req llm.Request) (llm.Response, error) {
	sql, _ := prompt.ExtractQuery(req.UserPrompt())
	var i int
	if _, err := fmt.Sscanf(sql, "SELECT c%d FROM t", &i); err != nil {
		return llm.Response{}, err
	}
	if c.fail[i] {
		return llm.Response{}, fmt.Errorf("example %d: %w", i, errPlanned)
	}
	return llm.Response{Text: "no error"}, nil
}

// streamExamples builds n ad-hoc syntax examples; example i is
// "SELECT c<i> FROM t" with id "adhoc/<i>".
func streamExamples(t *testing.T, task Task, n int) []Example {
	t.Helper()
	out := make([]Example, n)
	for i := range out {
		ex, err := task.AdHoc(fmt.Sprintf("adhoc/%d", i), []string{fmt.Sprintf("SELECT c%d FROM t", i)})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ex
	}
	return out
}

// Task.RunStreamOpts is the one streaming driver: by default the first
// failed completion ends the run after a clean prefix, under
// ContinueOnError every example yields one sink call in order, and a
// failure budget trips into a *runner.BudgetError.
func TestRunStreamOpts(t *testing.T) {
	task, _ := TaskByID(SyntaxTask.TaskID)
	const n = 40
	examples := streamExamples(t, task, n)
	type call struct {
		idx int
		err error
	}
	cases := []struct {
		name  string
		opts  RunOpts
		fail  []int
		check func(t *testing.T, parallel int, calls []call, err error)
	}{
		{
			name: "default aborts at first failure",
			fail: []int{7, 30},
			check: func(t *testing.T, parallel int, calls []call, err error) {
				if !errors.Is(err, errPlanned) || !strings.Contains(err.Error(), "completing adhoc/7") {
					t.Fatalf("err = %v, want planned failure while completing adhoc/7", err)
				}
				// Sequentially the sink sees exactly 0..6; with workers the
				// failure may cancel earlier examples before they run, so
				// the sink sees a prefix of 0..6.
				if parallel == 1 && len(calls) != 7 {
					t.Fatalf("sink saw %d examples, want 7", len(calls))
				}
				if len(calls) > 7 {
					t.Fatalf("sink saw %d examples, want at most 7", len(calls))
				}
				for i, c := range calls {
					if c.idx != i || c.err != nil {
						t.Fatalf("sink call %d = (%d, %v), want (%d, nil)", i, c.idx, c.err, i)
					}
				}
			},
		},
		{
			name: "continue on error",
			opts: RunOpts{ContinueOnError: true},
			fail: []int{0, 7, 30, 39},
			check: func(t *testing.T, _ int, calls []call, err error) {
				if err != nil {
					t.Fatal(err)
				}
				if len(calls) != n {
					t.Fatalf("sink saw %d examples, want %d", len(calls), n)
				}
				for i, c := range calls {
					failed := i == 0 || i == 7 || i == 30 || i == 39
					if c.idx != i {
						t.Fatalf("sink call %d has index %d", i, c.idx)
					}
					if got := c.err != nil; got != failed {
						t.Fatalf("example %d: err = %v, want failed=%v", i, c.err, failed)
					}
					if failed && (!errors.Is(c.err, errPlanned) || !strings.Contains(c.err.Error(), fmt.Sprintf("completing adhoc/%d", i))) {
						t.Fatalf("example %d: err = %v, want planned failure while completing it", i, c.err)
					}
				}
			},
		},
		{
			name: "failure budget",
			opts: RunOpts{ContinueOnError: true, MaxFailures: 1},
			fail: []int{3, 9},
			check: func(t *testing.T, _ int, calls []call, err error) {
				var be *runner.BudgetError
				if !errors.As(err, &be) {
					t.Fatalf("err = %v, want *runner.BudgetError", err)
				}
				if be.Budget != 1 || be.Failures != 2 {
					t.Errorf("budget error = %+v, want budget 1 tripped by failure 2", be)
				}
				if len(calls) > 9 {
					t.Errorf("sink saw %d examples after the budget tripped at 9", len(calls))
				}
			},
		},
	}
	for _, tc := range cases {
		client := failingClient{fail: map[int]bool{}}
		for _, i := range tc.fail {
			client.fail[i] = true
		}
		for _, parallel := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/parallel=%d", tc.name, parallel), func(t *testing.T) {
				ctx := runner.WithParallelism(context.Background(), parallel)
				var calls []call
				err := task.RunStreamOpts(ctx, client, examples, tc.opts, func(idx int, r any, err error) error {
					if (r == nil) == (err == nil) {
						t.Errorf("sink call %d: result %v with error %v", idx, r, err)
					}
					calls = append(calls, call{idx, err})
					return nil
				})
				tc.check(t, parallel, calls, err)
			})
		}
	}
}
