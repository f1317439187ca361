// Package repro is the public API of the reproduction of "Evaluating SQL
// Understanding in Large Language Models" (EDBT 2025). It exposes the
// benchmark builder, the simulated model registry, the task runners, and the
// per-table/figure experiment registry; everything underneath lives in
// internal packages (SQL parser, semantic checker, execution engine,
// workload generators, mutation and equivalence machinery).
//
// Quick start:
//
//	bench, _ := repro.BuildBenchmark(1, true)
//	reg := repro.NewSimRegistry(bench)
//	client, _ := reg.Get("GPT4")
//	results, _ := repro.RunSyntaxTask(context.Background(), client, bench, "SDSS")
//
// Or regenerate a paper artifact directly:
//
//	repro.RunExperiment("table3", os.Stdout, 1)
package repro

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/llm"
	"repro/internal/llm/sim"
)

// Benchmark is the assembled labeled benchmark (workloads plus the
// syntax-error, missing-token, equivalence, performance, and explanation
// datasets).
type Benchmark = core.Benchmark

// Registry holds model clients by name.
type Registry = llm.Registry

// Client is the model abstraction: Name plus Do(ctx, Request) (Response,
// error).
type Client = llm.Client

// Request and Response are the structured completion types: messages plus
// sampling parameters in, text plus token usage, latency, and finish reason
// out.
type (
	Request  = llm.Request
	Response = llm.Response
	Usage    = llm.Usage
)

// Result types of the typed task runners.
type (
	SyntaxResult = core.SyntaxResult
	PerfResult   = core.PerfResult
)

// TaskIDs lists the registered task ids in registration order.
func TaskIDs() []string { return core.TaskIDs() }

// Datasets lists the classification-task datasets: SDSS, SQLShare,
// Join-Order.
func Datasets() []string { return append([]string{}, core.TaskDatasets...) }

// Models lists the five evaluated model names in the paper's order.
func Models() []string { return append([]string{}, llm.ModelNames...) }

// BuildBenchmark assembles the benchmark deterministically from a seed.
// With verifyEquivalences set, generated equivalence pairs are confirmed
// empirically on the execution engine before being admitted.
func BuildBenchmark(seed int64, verifyEquivalences bool) (*Benchmark, error) {
	return core.Build(core.BuildConfig{Seed: seed, VerifyEquivalences: verifyEquivalences})
}

// NewSimRegistry returns the five simulated models, constructed over the
// benchmark's schemas. Any Client implementation (e.g. an HTTP-backed one)
// can be Registered alongside or instead of them.
func NewSimRegistry(b *Benchmark) *Registry {
	return sim.Registry(sim.NewKnowledge(b.SchemasByDataset()))
}

// The typed Run*Task runners return task-specific results; RunTask is the
// type-erased form that works for any registered task id.

// RunSyntaxTask runs the syntax_error task for one model over one dataset.
func RunSyntaxTask(ctx context.Context, client Client, b *Benchmark, dataset string) ([]SyntaxResult, error) {
	ds, ok := b.Syntax[dataset]
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
	res, _, err := core.Run(ctx, client, core.SyntaxTask, ds, core.RunOpts{})
	return res, err
}

// RunPerfTask runs performance_pred (SDSS) for one model.
func RunPerfTask(ctx context.Context, client Client, b *Benchmark) ([]PerfResult, error) {
	res, _, err := core.Run(ctx, client, core.PerfTask, b.Perf, core.RunOpts{})
	return res, err
}

// RunTask runs any registered task over one benchmark dataset cell by its
// registry id, returning the task-agnostic result views.
func RunTask(ctx context.Context, client Client, b *Benchmark, taskID, dataset string) ([]core.ResultView, error) {
	task, ok := core.TaskByID(taskID)
	if !ok {
		return nil, fmt.Errorf("unknown task %q (registered: %v)", taskID, core.TaskIDs())
	}
	if dataset == "" {
		dataset = task.DefaultDataset()
	}
	cell, ok := task.Cell(b, dataset)
	if !ok {
		return nil, fmt.Errorf("task %s has no %q cell (datasets: %v)", taskID, dataset, task.Datasets())
	}
	var out []core.ResultView
	err := task.RunStreamOpts(ctx, client, cell, core.RunOpts{}, func(_ int, r any, _ error) error {
		out = append(out, task.View(r, true))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Experiments lists the regenerable paper artifacts (table/figure IDs) in
// paper order.
func Experiments() []string {
	var out []string
	for _, e := range experiments.All() {
		out = append(out, e.ID)
	}
	return out
}

// ExperimentTitle returns the human title of an experiment ID.
func ExperimentTitle(id string) (string, bool) {
	e, ok := experiments.ByID(id)
	if !ok {
		return "", false
	}
	return e.Title, true
}

// RunExperiment regenerates one paper artifact, writing the rendered table
// or figure to w. The seed fixes the benchmark; equivalence pairs are
// engine-verified.
func RunExperiment(id string, w io.Writer, seed int64) error {
	e, ok := experiments.ByID(id)
	if !ok {
		return fmt.Errorf("unknown experiment %q (known: %v)", id, Experiments())
	}
	env, err := experiments.NewEnv(seed, true)
	if err != nil {
		return err
	}
	defer env.Close() // the Env holds no checkpoint stores, so Close has nothing to flush
	return e.Run(env, w)
}
