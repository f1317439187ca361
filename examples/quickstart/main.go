// Quickstart: build the benchmark, run one task for one model, and print the
// resulting metrics — the minimal end-to-end use of the public API.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/core"
)

func main() {
	// Assemble the benchmark (seeded, deterministic). Equivalence pairs are
	// engine-verified, which is the slow part; quickstart skips it.
	bench, err := repro.BuildBenchmark(1, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("benchmark: %d SDSS syntax examples, %d token examples, %d equivalence pairs\n",
		len(bench.Syntax["SDSS"]), len(bench.Tokens["SDSS"]), len(bench.Equiv["SDSS"]))

	// The simulated models implement the same Client interface a real API
	// wrapper would.
	registry := repro.NewSimRegistry(bench)
	client, err := registry.Get("GPT4")
	if err != nil {
		log.Fatal(err)
	}

	// Run syntax_error on SDSS and score it.
	results, err := repro.RunSyntaxTask(context.Background(), client, bench, "SDSS")
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
	fmt.Printf("\nregistered tasks: %v\n", repro.TaskIDs())
	views, err := repro.RunTask(context.Background(), client, bench, "fill", "SDSS")
	if err != nil {
		log.Fatal(err)
	}
	correct := 0
	for _, v := range views {
		if v.Correct != nil && *v.Correct {
			correct++
		}
	}
	fmt.Printf("GPT4 on SDSS fill_token: %d/%d exact token recoveries\n", correct, len(views))
}
