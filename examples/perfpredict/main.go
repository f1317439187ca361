// Perfpredict: the workload-management scenario — compare the cost-model
// oracle's runtime labels with each model's text-only predictions on the
// SDSS workload, and show where language models overestimate (the paper's
// positive-bias finding).
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/core"
)

func main() {
	bench, err := repro.BuildBenchmark(1, false)
	if err != nil {
		log.Fatal(err)
	}
	registry := repro.NewSimRegistry(bench)

	fmt.Printf("%-12s %6s %6s %6s   %s\n", "Model", "Prec", "Rec", "F1", "bias")
	for _, name := range repro.Models() {
		client, err := registry.Get(name)
		if err != nil {
			log.Fatal(err)
		}
		results, err := repro.RunPerfTask(context.Background(), client, bench)
		if err != nil {
			log.Fatal(err)
		}
		conf := core.Confusion(results, core.PerfTask.Score)
		bias := "balanced"
		if conf.Recall() > conf.Precision()+0.05 {
			bias = "positive (overestimates runtimes)"
		} else if conf.Precision() > conf.Recall()+0.05 {
			bias = "conservative"
		}
		fmt.Printf("%-12s %6.2f %6.2f %6.2f   %s\n",
			name, conf.Precision(), conf.Recall(), conf.F1(), bias)
	}

	// Show a few false positives of the weakest-precision model: long cheap
	// queries mistaken for costly ones.
	client, _ := registry.Get("MistralAI")
	results, err := repro.RunPerfTask(context.Background(), client, bench)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nMistralAI false positives (long but cheap queries):")
	shown := 0
	for _, r := range results {
		if shown >= 3 {
			break
		}
		if !r.Example.Costly && r.PredCostly {
			fmt.Printf("  [%.0f ms, %d words] %.100s...\n",
				r.Example.ElapsedMS, r.Example.Props.WordCount, r.Example.SQL)
			shown++
		}
	}
}
