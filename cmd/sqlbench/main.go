// Command sqlbench regenerates the paper's tables and figures from the
// benchmark.
//
// Usage:
//
//	sqlbench -list
//	sqlbench -exp table3
//	sqlbench -exp table3,table4 -seed 2
//	sqlbench -exp all -noverify
//	sqlbench -exp all -parallel 16
//	sqlbench -exp all -stats
//	sqlbench -exp table6 -models '[{"name":"gpt-4o","provider":"http",...}]'
//	sqlbench -exp table6 -models @models.json
//	sqlbench -exp all -continue-on-error -max-failures 50
//	sqlbench -exp all -checkpoint-dir /tmp/ckpt   # rerun resumes, byte-identical
//	sqlbench -exp table3 -trace-out run.json      # Chrome trace of the whole run
//	sqlbench -exp table3 -trace-out run.ndjson    # one span record per line
//	sqlbench -explain-plan 'SELECT ...'           # the logical plan the engine executes
//
// Output is byte-identical at every -parallel setting; -parallel 1
// reproduces the fully sequential pipeline. The -parallel budget bounds
// workload generation, per-dataset labeling and example fan-out; each query
// runs serially. -stats reports wall times, per-dataset engine op counts,
// and per-model request/token/latency telemetry to stderr.
//
// -models replaces the five simulated models with a JSON spec set (inline or
// @file): provider "sim" rebuilds a calibrated simulator, provider "http"
// drives any OpenAI-compatible chat-completions endpoint, and each spec may
// layer retry/rate-limit/in-flight/cache middleware (see llm.Spec).
// Experiments pinned to specific paper models (fig6, fig8, fig10-12,
// casestudy) need those model names registered.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sqlparse"
)

func main() {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		seed     = flag.Int64("seed", 1, "benchmark seed")
		noVerify = flag.Bool("noverify", false, "skip engine verification of equivalence pairs (faster)")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		tasks    = flag.Bool("tasks", false, "list registered tasks (id, paper name, datasets) and exit")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size for benchmark build and task runs (1 = sequential)")
		stats    = flag.Bool("stats", false, "report build/run wall times, engine op counts, and per-model usage to stderr")
		models   = flag.String("models", "", "JSON model specs (or @file) replacing the default simulated models; providers: sim, http")

		explainPlan = flag.String("explain-plan", "", "print the logical plan the engine executes for this SELECT and exit")

		continueOnError = flag.Bool("continue-on-error", false, "record per-example completion failures and keep going instead of aborting the run")
		maxFailures     = flag.Int("max-failures", 0, "abort a -continue-on-error run once more than this many examples fail (0 = unlimited)")
		checkpointDir   = flag.String("checkpoint-dir", "", "persist completed model responses to <dir>/<model>.ndjson and replay them on rerun; a resumed run's output is byte-identical to an uninterrupted one")
		traceOut        = flag.String("trace-out", "", "write the run's trace spans to this file: *.ndjson for one span record per line, anything else as Chrome trace_event JSON (load in chrome://tracing or Perfetto)")
	)
	flag.Parse()

	if *explainPlan != "" {
		if err := printExplain(os.Stdout, *explainPlan); err != nil {
			fmt.Fprintln(os.Stderr, "sqlbench: -explain-plan:", err)
			os.Exit(2)
		}
		return
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}
	if *tasks {
		for _, t := range core.Tasks() {
			fmt.Printf("%-8s %-18s [%s] %s\n", t.ID(), t.Name(), strings.Join(t.Datasets(), ", "), t.Description())
		}
		return
	}

	if *maxFailures < 0 {
		fmt.Fprintf(os.Stderr, "sqlbench: invalid -max-failures %d (0 = unlimited)\n", *maxFailures)
		os.Exit(2)
	}

	var ids []string
	if *expFlag == "all" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	// Validate every requested ID before the (expensive) benchmark build so
	// a typo fails in milliseconds, not after minutes of verification.
	var exps []experiments.Experiment
	for _, id := range ids {
		e, ok := experiments.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "sqlbench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		exps = append(exps, e)
	}

	var specs []llm.Spec
	if *models != "" {
		var err error
		specs, err = llm.ParseSpecsArg(*models)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sqlbench: -models:", err)
			os.Exit(2)
		}
	}

	// -trace-out collects every span of the run (build, cells, examples, LLM
	// attempts, engine executions) in memory and writes them after the
	// experiments finish. Without the flag no tracer exists and the span call
	// sites are allocation-free no-ops.
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.New(obs.WithCollector())
	}

	buildStart := time.Now()
	env, err := experiments.NewEnvConfig(experiments.Config{
		Seed:               *seed,
		VerifyEquivalences: !*noVerify,
		Parallel:           *parallel,
		Models:             specs,
		ContinueOnError:    *continueOnError,
		MaxFailures:        *maxFailures,
		CheckpointDir:      *checkpointDir,
		Tracer:             tracer,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqlbench: building benchmark:", err)
		os.Exit(1)
	}
	defer env.Close()
	if *stats {
		fmt.Fprintf(os.Stderr, "sqlbench: benchmark build took %v (parallel=%d)\n",
			time.Since(buildStart).Round(time.Millisecond), *parallel)
		var total int64
		for _, ds := range core.TaskDatasets {
			ops := env.Bench.EngineOps[ds]
			total += ops
			fmt.Fprintf(os.Stderr, "sqlbench: engine ops (equiv verification, %s): %d\n", ds, ops)
		}
		fmt.Fprintf(os.Stderr, "sqlbench: engine ops (equiv verification, total): %d\n", total)
	}
	for _, e := range exps {
		runStart := time.Now()
		if err := e.Run(env, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "sqlbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *stats {
			fmt.Fprintf(os.Stderr, "sqlbench: %s took %v\n", e.ID, time.Since(runStart).Round(time.Millisecond))
		}
	}
	if *stats {
		// Per-model client telemetry: how many completions ran, what they
		// cost in tokens, how they behaved (retries, rate limiting, latency).
		failedByModel := env.FailedByModel()
		for _, m := range env.Stats.Sources() {
			fmt.Fprintf(os.Stderr, "sqlbench: model %s: %s failed_examples=%d\n",
				m.Label, metrics.Text(llm.ModelFamilies, m.From), failedByModel[m.Label])
		}
	}
	if *traceOut != "" {
		// Close ends the root run span so it reaches the collector; the
		// deferred second Close is a no-op.
		env.Close()
		if err := writeTrace(*traceOut, tracer.Collected()); err != nil {
			fmt.Fprintln(os.Stderr, "sqlbench: -trace-out:", err)
			os.Exit(1)
		}
	}
}

// printExplain renders the logical plan the engine executes for a SELECT.
func printExplain(w io.Writer, sql string) error {
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return err
	}
	_, err = fmt.Fprint(w, engine.BuildPlan(sel).String())
	return err
}

// writeTrace exports collected spans: NDJSON when the path says so, Chrome
// trace_event JSON otherwise.
func writeTrace(path string, spans []obs.SpanRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".ndjson") {
		err = obs.WriteNDJSON(f, spans)
	} else {
		err = obs.WriteChromeTrace(f, spans)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
