// Command workloadgen emits the generated workloads and their task labels
// as JSON, for inspection or for use by external harnesses.
//
// Usage:
//
//	workloadgen -workload SDSS
//	workloadgen -workload all -labels -seed 2 > bench.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
)

type queryJSON struct {
	ID          string  `json:"id"`
	Dataset     string  `json:"dataset"`
	SQL         string  `json:"sql"`
	QueryType   string  `json:"query_type"`
	WordCount   int     `json:"word_count"`
	TableCount  int     `json:"table_count"`
	Nestedness  int     `json:"nestedness"`
	Aggregate   bool    `json:"aggregate"`
	ElapsedMS   float64 `json:"elapsed_ms,omitempty"`
	Description string  `json:"description,omitempty"`
}

type labelsJSON struct {
	Syntax  map[string][]core.SyntaxExample `json:"syntax,omitempty"`
	Tokens  map[string][]core.TokenExample  `json:"tokens,omitempty"`
	Equiv   map[string][]core.EquivExample  `json:"equiv,omitempty"`
	Perf    []core.PerfExample              `json:"perf,omitempty"`
	Explain []core.ExplainExample           `json:"explain,omitempty"`
	State   map[string][]core.StateExample  `json:"state,omitempty"`
}

type output struct {
	Queries []queryJSON `json:"queries"`
	Labels  *labelsJSON `json:"labels,omitempty"`
}

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "SDSS | SQLShare | Join-Order | Spider | all")
		seed         = flag.Int64("seed", 1, "generation seed")
		labels       = flag.Bool("labels", false, "include task labels (error injections, removals, pairs)")
		verify       = flag.Bool("verify", false, "engine-verify equivalence pairs (slower)")
	)
	flag.Parse()

	bench, err := core.Build(core.BuildConfig{Seed: *seed, VerifyEquivalences: *verify})
	if err != nil {
		fmt.Fprintln(os.Stderr, "workloadgen:", err)
		os.Exit(1)
	}

	var out output
	for _, name := range []string{core.SDSS, core.SQLShare, core.JoinOrder, core.Spider} {
		if *workloadFlag != "all" && *workloadFlag != name {
			continue
		}
		w := bench.Workloads[name]
		for _, q := range w.Queries {
			out.Queries = append(out.Queries, queryJSON{
				ID: q.ID, Dataset: q.Dataset, SQL: q.SQL,
				QueryType: q.Props.QueryType, WordCount: q.Props.WordCount,
				TableCount: q.Props.TableCount, Nestedness: q.Props.Nestedness,
				Aggregate: q.Props.Aggregate, ElapsedMS: q.ElapsedMS,
				Description: q.Description,
			})
		}
	}
	if *labels {
		out.Labels = &labelsJSON{
			Syntax: bench.Syntax, Tokens: bench.Tokens, Equiv: bench.Equiv,
			Perf: bench.Perf, Explain: bench.Explain, State: bench.State,
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "workloadgen:", err)
		os.Exit(1)
	}
}
