// Quickstart: build the benchmark, run one task for one model, and print the
// resulting metrics — the minimal end-to-end use of the experiments
// environment that sqlbench and sqlserved are built on.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro/internal/core"
	"repro/internal/experiments"
)

func main() {
	// Assemble the benchmark and the five simulated models (seeded,
	// deterministic). Equivalence pairs are engine-verified only when the
	// config asks for it, which is the slow part; quickstart skips it.
	env, err := experiments.NewEnvConfig(experiments.Config{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()
	bench := env.Bench
	fmt.Printf("benchmark: %d SDSS syntax examples, %d token examples, %d equivalence pairs\n",
		len(bench.Syntax["SDSS"]), len(bench.Tokens["SDSS"]), len(bench.Equiv["SDSS"]))

	// The simulated models implement the same Client interface a real API
	// wrapper would.
	client, err := env.Registry.Get("GPT4")
	if err != nil {
		log.Fatal(err)
	}

	// Run syntax_error on SDSS and score it.
	results, _, err := core.Run(context.Background(), client, core.SyntaxTask, bench.Syntax["SDSS"], core.RunOpts{})
	if err != nil {
		log.Fatal(err)
	}
	conf := core.Confusion(results, core.SyntaxTask.Score)
	fmt.Printf("GPT4 on SDSS syntax_error: precision %.2f, recall %.2f, F1 %.2f over %d queries\n",
		conf.Precision(), conf.Recall(), conf.F1(), conf.Total())

	// Peek at one verbose model response and its parsed label.
	for _, r := range results[:3] {
		fmt.Printf("\n%s\n  truth: hasError=%v type=%s\n  model: %q\n",
			r.Example.SQL, r.Example.HasError, r.Example.Type, r.Response)
	}

	// Every task — the paper's five plus registered extensions — is a
	// registry entry; the type-erased driver runs any of them by id.
	fmt.Printf("\nregistered tasks: %v\n", core.TaskIDs())
	fill, _ := core.TaskByID("fill")
	cell, _ := fill.Cell(bench, "SDSS")
	run, err := fill.Run(context.Background(), client, cell, core.RunOpts{})
	if err != nil {
		log.Fatal(err)
	}
	// fill_token credits an exact recovery 1 and anything else 0.
	sum := fill.Summarize(run)
	correct := int(math.Round(sum.Accuracy * float64(sum.N)))
	fmt.Printf("GPT4 on SDSS fill_token: %d/%d exact token recoveries\n", correct, sum.N)
}
