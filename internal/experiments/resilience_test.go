package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/llm/faultllm"
	"repro/internal/prompt"
)

// TestPartialRunMatchesFaultPlan is the end-to-end chaos guarantee: under a
// deterministic 10% fault plan, a continue-on-error cell run completes with
// zero aborts, and the failed examples are exactly the ones the plan names
// — no more (spurious failures), no fewer (silently dropped errors).
func TestPartialRunMatchesFaultPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an environment")
	}
	plan := faultllm.Plan{Seed: 7, ErrorRate: 0.10}
	env, err := NewEnvConfig(Config{
		Seed:     1,
		Parallel: 8,
		Models: []llm.Spec{{
			Name: llm.GPT4, Provider: "sim",
			FaultRate: plan.ErrorRate, FaultSeed: plan.Seed,
		}},
		ContinueOnError: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	taskID := core.SyntaxTask.TaskID
	ds := core.SyntaxTask.DefaultDataset
	examples := core.SyntaxTask.Cell(env.Bench, ds)
	if len(examples) == 0 {
		t.Fatal("empty cell")
	}
	// The plan is pure, so the expected failure set is computable up front
	// from the exact prompts the driver will issue.
	tpl := prompt.Default(core.SyntaxTask.PromptTask)
	expected := map[string]bool{}
	for _, ex := range examples {
		req := llm.NewRequest(core.SyntaxTask.Render(tpl, ex))
		if plan.Decide(llm.GPT4, req).Fail {
			expected[core.SyntaxTask.ExampleID(ex)] = true
		}
	}
	if len(expected) == 0 {
		t.Fatalf("plan fails nothing over %d examples; pick a different seed", len(examples))
	}

	results, err := typedResults[core.SyntaxResult](env, cell{task: taskID, model: llm.GPT4, ds: ds})
	if err != nil {
		t.Fatalf("partial run aborted: %v", err)
	}
	failures, err := env.Failures(taskID, llm.GPT4, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(results)+len(failures) != len(examples) {
		t.Fatalf("attempted %d+%d examples, cell has %d", len(results), len(failures), len(examples))
	}
	got := map[string]bool{}
	for _, f := range failures {
		if f.Err == "" {
			t.Errorf("failure %s has no error message", f.ID)
		}
		got[f.ID] = true
	}
	if !reflect.DeepEqual(got, expected) {
		t.Errorf("failed set diverges from plan: got %d failures, plan names %d", len(got), len(expected))
	}

	sum, err := env.Summary(taskID, llm.GPT4, ds)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != len(expected) || sum.N != len(examples)-len(expected) {
		t.Errorf("summary N=%d Failed=%d, want N=%d Failed=%d",
			sum.N, sum.Failed, len(examples)-len(expected), len(expected))
	}
}

// TestCheckpointResumeByteIdentical drives the resume guarantee end to end:
// a run interrupted by faults leaves a partial checkpoint; resuming against
// it replays recorded responses (never re-querying the backend for them)
// and produces results identical to a never-interrupted run.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three environments")
	}
	dir := t.TempDir()
	taskID := core.SyntaxTask.TaskID
	spec := llm.Spec{Name: llm.GPT4, Provider: "sim"}

	// Uninterrupted baseline, no checkpointing.
	baseEnv, err := NewEnvConfig(Config{Seed: 1, Parallel: 8, Models: []llm.Spec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := typedResults[core.SyntaxResult](baseEnv, cell{task: taskID, model: llm.GPT4})
	if err != nil {
		t.Fatal(err)
	}

	// First attempt: 30% of requests fail under a deterministic plan, the
	// run continues past them, and successes land in the checkpoint.
	faulty := spec
	faulty.FaultRate = 0.3
	faulty.FaultSeed = 11
	firstEnv, err := NewEnvConfig(Config{
		Seed: 1, Parallel: 8,
		Models:          []llm.Spec{faulty},
		ContinueOnError: true,
		CheckpointDir:   dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	failures, err := firstEnv.Failures(taskID, llm.GPT4, "")
	if err != nil {
		t.Fatalf("interrupted run aborted: %v", err)
	}
	failed := len(failures)
	if failed == 0 {
		t.Fatal("fault plan failed nothing; resume would be trivial")
	}
	if err := firstEnv.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: same checkpoint dir, faults gone (the outage ended).
	resumeEnv, err := NewEnvConfig(Config{
		Seed: 1, Parallel: 8,
		Models:        []llm.Spec{spec},
		CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resumeEnv.Close()
	resumed, err := typedResults[core.SyntaxResult](resumeEnv, cell{task: taskID, model: llm.GPT4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, baseline) {
		t.Errorf("resumed results diverge from uninterrupted run (%d vs %d results)", len(resumed), len(baseline))
	}
	// Only the previously-failed examples may touch the backend on resume:
	// the checkpoint layer sits above Instrument, so replayed hits are
	// invisible to stats.
	if got := resumeEnv.Stats.Model(llm.GPT4).Requests.Load(); got != int64(failed) {
		t.Errorf("resume issued %d backend requests, want %d (one per previously-failed example)", got, failed)
	}
}

// A partial-failure cell lacks its failed examples, so the case study must
// find each pinned query's result by example ID: at a 50% fault rate a
// positional lookup prints another query's explanation under Q17 and Q18,
// and at 99% it indexes past the end of the cell.
func TestCaseStudyMatchesResultsByID(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two environments")
	}
	for _, rate := range []float64{0.5, 0.99} {
		env, err := NewEnvConfig(Config{
			Seed: 1, Parallel: 2,
			Models:          []llm.Spec{{Name: llm.GPT4, Provider: "sim", FaultRate: rate, FaultSeed: 7}},
			ContinueOnError: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		exp, _ := ByID("casestudy")
		var buf bytes.Buffer
		if err := exp.Run(env, &buf); err != nil {
			t.Fatalf("rate %.2f: %v", rate, err)
		}
		out := buf.String()

		// Walk the cell beside its results: every example not recorded as
		// failed owns the next result, in cell order.
		taskID := core.ExplainTask.TaskID
		failures, err := env.Failures(taskID, llm.GPT4, "")
		if err != nil {
			t.Fatal(err)
		}
		failed := map[string]bool{}
		for _, f := range failures {
			failed[f.ID] = true
		}
		res, err := typedResults[core.ExplainResult](env, cell{task: taskID, model: llm.GPT4})
		if err != nil {
			t.Fatal(err)
		}
		pinnedFailed, next := 0, 0
		for i, ex := range env.Bench.Explain[:4] {
			line := fmt.Sprintf("  %-10s (failed)\n", llm.GPT4)
			if failed[ex.ID] {
				pinnedFailed++
			} else {
				r := res[next]
				next++
				line = fmt.Sprintf("  %-10s (coverage %.2f): %s\n", llm.GPT4, r.Coverage, r.Explanation)
			}
			block := fmt.Sprintf("Q%d: %s\n  reference: %s\n%s", 15+i, ex.SQL, ex.Description, line)
			if !strings.Contains(out, block) {
				t.Errorf("rate %.2f: output lacks\n%s\ngot:\n%s", rate, block, out)
			}
		}
		if pinnedFailed == 0 {
			t.Errorf("rate %.2f: no pinned query failed; pick another fault seed", rate)
		}
		// The mean covers the graded results only: the heading counts the
		// benchmark's queries and the model's line says how many failed.
		mean := core.Summarize(res, core.ExplainTask.Score).Accuracy
		for _, want := range []string{
			fmt.Sprintf("Mean fact coverage over all %d Spider queries:\n", len(env.Bench.Explain)),
			fmt.Sprintf("  %-10s %.3f  (%d failed)\n", llm.GPT4, mean, len(failures)),
		} {
			if !strings.Contains(out, want) {
				t.Errorf("rate %.2f: output lacks %q", rate, want)
			}
		}
		env.Close()
	}
}

// ext-fewshot reads its cells through the Env like every artifact, so under
// a continue-on-error run it renders from the graded results and names each
// variant's failed count instead of aborting on the first failure.
func TestExtFewShotUnderPartialFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an environment")
	}
	plan := faultllm.Plan{Seed: 7, ErrorRate: 0.5}
	env, err := NewEnvConfig(Config{
		Seed: 1, Parallel: 2,
		Models:          []llm.Spec{{Name: llm.GPT4, Provider: "sim", FaultRate: plan.ErrorRate, FaultSeed: plan.Seed}},
		ContinueOnError: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	exp, _ := ByID("ext-fewshot")
	var buf bytes.Buffer
	if err := exp.Run(env, &buf); err != nil {
		t.Fatalf("ext-fewshot aborted: %v", err)
	}

	// Each variant's failures are the examples whose prompt the plan fails;
	// its F1 scores the rest.
	var f1 [2]float64
	var failed [2]int
	for i, tpl := range []prompt.Template{prompt.Default(prompt.SyntaxError), fewShot} {
		for _, ex := range env.Bench.Syntax[core.SDSS] {
			if plan.Decide(llm.GPT4, llm.NewRequest(core.SyntaxTask.Render(tpl, ex))).Fail {
				failed[i]++
			}
		}
		res, err := typedResults[core.SyntaxResult](env, cell{task: core.SyntaxTask.TaskID, model: llm.GPT4, ds: core.SDSS, tpl: tpl})
		if err != nil {
			t.Fatal(err)
		}
		f1[i] = core.Confusion(res, core.SyntaxTask.Score).F1()
	}
	if failed[1] == 0 {
		t.Fatal("plan fails no few-shot prompt; pick another fault seed")
	}
	want := fmt.Sprintf("%-12s %18.2f %18.2f  zero-shot failed %d  few-shot failed %d\n", llm.GPT4, f1[0], f1[1], failed[0], failed[1])
	if !strings.Contains(buf.String(), want) {
		t.Errorf("output lacks %q:\n%s", want, buf.String())
	}
}
