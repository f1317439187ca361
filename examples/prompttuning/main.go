// Prompttuning: the paper's Section 3.4 mock experiments — try each prompt
// variant on a small trial subset, measure accuracy, and pick the best
// formulation for the full run.
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
	client, err := env.Registry.Get("GPT3.5")
	if err != nil {
		log.Fatal(err)
	}

	// A small trial subset, as in the paper's mock experiments.
	trial := env.Bench.Syntax["SDSS"]
	if len(trial) > 40 {
		trial = trial[:40]
	}
	results, best, err := core.TunePrompt(context.Background(), client, trial)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prompt tuning on %d trial queries with %s:\n\n", len(trial), client.Name())
	for _, r := range results {
		marker := " "
		if r.Template.ID == best.ID {
			marker = "*"
		}
		fmt.Printf(" %s %-18s accuracy %.2f\n   %q\n\n", marker, r.Template.ID, r.Accuracy, r.Template.Text)
	}
	fmt.Printf("selected: %s\n", best.ID)
}
