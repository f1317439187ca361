// Package repro is the root of the reproduction of "Evaluating SQL
// Understanding in Large Language Models" (EDBT 2025). It holds no code:
// the pipeline lives in internal packages and is driven through
// experiments.Env, which builds the labeled benchmark from a seed, registers
// the models and memoizes every task×model×dataset cell. cmd/sqlbench
// renders the paper's tables and figures from it, cmd/sqlserved serves the
// same evals over HTTP, and the examples/ programs show the library use:
//
//	env, _ := experiments.NewEnvConfig(experiments.Config{Seed: 1})
//	client, _ := env.Registry.Get("GPT4")
//	results, _, _ := core.Run(ctx, client, core.SyntaxTask, env.Bench.Syntax["SDSS"], core.RunOpts{})
//
// The root package's tests guard the module as a whole (the export surface)
// and hold its end-to-end benchmarks.
package repro
