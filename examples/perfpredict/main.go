// Perfpredict: the workload-management scenario — compare the cost-model
// oracle's runtime labels with each model's text-only predictions on the
// SDSS workload, and show where language models overestimate (the paper's
// positive-bias finding).
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/experiments"
)

func main() {
	env, err := experiments.NewEnvConfig(experiments.Config{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()

	fmt.Printf("%-12s %6s %6s %6s   %s\n", "Model", "Prec", "Rec", "F1", "bias")
	for _, name := range env.Models {
		client, err := env.Registry.Get(name)
		if err != nil {
			log.Fatal(err)
		}
		results, _, err := core.Run(context.Background(), client, core.PerfTask, env.Bench.Perf, core.RunOpts{})
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
	client, _ := env.Registry.Get("MistralAI")
	results, _, err := core.Run(context.Background(), client, core.PerfTask, env.Bench.Perf, core.RunOpts{})
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
