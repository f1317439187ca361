package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/llm/sim"
	"repro/internal/runner"
)

// A batch whose context is cancelled mid-stream must stop promptly with
// ctx.Err() instead of burning through the remaining examples: the sim
// models check the context per completion, and the stream propagates the
// cancellation.
func TestRunStreamStopsOnCancellation(t *testing.T) {
	b := bench(t)
	k := sim.NewKnowledge(b.SchemasByDataset())
	client, err := sim.New("GPT4", k)
	if err != nil {
		t.Fatal(err)
	}
	task, _ := TaskByID(SyntaxTask.TaskID)
	ds, _ := task.Cell(b, SDSS)
	if len(ds) < 20 {
		t.Fatalf("dataset too small: %d", len(ds))
	}

	ctx, cancel := context.WithCancel(runner.WithParallelism(context.Background(), 2))
	delivered := 0
	err = task.RunStreamOpts(ctx, client, ds, RunOpts{}, func(int, any, error) error {
		delivered++
		if delivered == 3 {
			cancel()
		}
		return nil
	})
	if err == nil {
		t.Fatal("cancelled stream completed without error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// The reorder window bounds how far workers run past the cancellation
	// point; the whole dataset must not have been delivered.
	if delivered >= len(ds) {
		t.Errorf("delivered %d/%d results after cancellation", delivered, len(ds))
	}
}

// A pre-cancelled context fails fast without touching the model.
func TestRunPreCancelled(t *testing.T) {
	b := bench(t)
	k := sim.NewKnowledge(b.SchemasByDataset())
	client, _ := sim.New("GPT4", k)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, _, err := Run(ctx, client, SyntaxTask, b.Syntax[SDSS], RunOpts{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("pre-cancelled run took %v", elapsed)
	}
}

// Every task driver must record the completion's usage and latency on its
// results.
func TestRunnersRecordUsage(t *testing.T) {
	b := bench(t)
	k := sim.NewKnowledge(b.SchemasByDataset())
	client, _ := sim.New("GPT4", k)
	ctx := context.Background()

	syn, _, err := Run(ctx, client, SyntaxTask, b.Syntax[SDSS][:5], RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range syn {
		if r.Usage.PromptTokens <= 0 || r.Usage.CompletionTokens <= 0 || r.Latency <= 0 {
			t.Errorf("syntax result %d has no usage: %+v %v", i, r.Usage, r.Latency)
		}
	}
	tok, _, err := Run(ctx, client, TokensTask, b.Tokens[SDSS][:5], RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	eq, _, err := Run(ctx, client, EquivTask, b.Equiv[SDSS][:5], RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	pf, _, err := Run(ctx, client, PerfTask, b.Perf[:5], RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ex, _, err := Run(ctx, client, ExplainTask, b.Explain[:5], RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if tok[0].Usage.Total() <= 0 || eq[0].Usage.Total() <= 0 || pf[0].Usage.Total() <= 0 || ex[0].Usage.Total() <= 0 {
		t.Errorf("a task driver dropped usage: tok=%v eq=%v pf=%v ex=%v",
			tok[0].Usage, eq[0].Usage, pf[0].Usage, ex[0].Usage)
	}
	if tok[0].Latency <= 0 || eq[0].Latency <= 0 || pf[0].Latency <= 0 || ex[0].Latency <= 0 {
		t.Error("a task driver dropped latency")
	}
}
