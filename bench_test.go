// Root benchmark harness: one Benchmark per paper table and figure (each
// iteration fully regenerates the artifact), plus ablation benches for the
// simulated models' error channel, the equivalence checker and prompt
// tuning. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"io"
	"sync"
	"testing"

	"repro/internal/analyze"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/experiments"
	"repro/internal/llm/sim"
	"repro/internal/metrics"
	"repro/internal/sqlparse"
)

var (
	envOnce sync.Once
	envVal  *experiments.Env
	envErr  error
)

// sharedEnv builds the benchmark + model registry once for all benches.
func sharedEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() {
		envVal, envErr = experiments.NewEnvConfig(experiments.Config{Seed: 1, VerifyEquivalences: true})
	})
	if envErr != nil {
		b.Fatalf("building environment: %v", envErr)
	}
	return envVal
}

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	env := sharedEnv(b)
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := exp.Run(env, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1SkillMatrix(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkTable2WorkloadStats(b *testing.B)    { benchExperiment(b, "table2") }
func BenchmarkFig1SDSSHistograms(b *testing.B)     { benchExperiment(b, "fig1") }
func BenchmarkFig2SQLShareHistograms(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFig3JoinOrderHistograms(b *testing.B) {
	benchExperiment(b, "fig3")
}
func BenchmarkFig4Correlations(b *testing.B)     { benchExperiment(b, "fig4") }
func BenchmarkFig5ElapsedTime(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkTable3SyntaxError(b *testing.B)    { benchExperiment(b, "table3") }
func BenchmarkFig6WordCountFailure(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkFig7ErrorTypeFN(b *testing.B)      { benchExperiment(b, "fig7") }
func BenchmarkTable4MissToken(b *testing.B)      { benchExperiment(b, "table4") }
func BenchmarkFig8MissTokenFailure(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFig9TokenTypeFN(b *testing.B)      { benchExperiment(b, "fig9") }
func BenchmarkTable5TokenLocation(b *testing.B)  { benchExperiment(b, "table5") }
func BenchmarkTable6PerfPred(b *testing.B)       { benchExperiment(b, "table6") }
func BenchmarkFig10PerfPredFailure(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkTable7QueryEquiv(b *testing.B)     { benchExperiment(b, "table7") }
func BenchmarkFig11EquivWordCount(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12EquivPredicates(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkCaseStudyExplanation(b *testing.B) { benchExperiment(b, "casestudy") }

// BenchmarkColdRegeneration renders all experiments from a fresh
// environment each iteration, so every task cell runs its models cold —
// the path sqlbench -exp all takes. The verified build is excluded from the
// timing (BenchmarkBuildBenchmark measures it).
func BenchmarkColdRegeneration(b *testing.B) {
	b.ReportAllocs()
	exps := experiments.All()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env, err := experiments.NewEnvConfig(experiments.Config{Seed: 1, VerifyEquivalences: true})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, exp := range exps {
			if err := exp.Run(env, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBuildBenchmark measures benchmark assembly without equivalence
// verification (workload generation, labeling, pair derivation) with the
// default worker pool (GOMAXPROCS).
func BenchmarkBuildBenchmark(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(core.BuildConfig{Seed: 1, VerifyEquivalences: false}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildBenchmarkSequential pins the build to one worker, isolating
// the parallel speedup of the default build above (output is byte-identical
// between the two).
func BenchmarkBuildBenchmarkSequential(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(core.BuildConfig{Seed: 1, VerifyEquivalences: false, Parallel: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildBenchmarkVerified measures the build sqlbench runs: pair
// verification on, so every candidate equivalence pair executes both queries
// on the engine. One worker keeps the engine's allocations comparable
// across machines.
func BenchmarkBuildBenchmarkVerified(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(core.BuildConfig{Seed: 1, VerifyEquivalences: true, Parallel: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations

// BenchmarkAblationUniformChannel compares the complexity-tilted error
// channel with a uniform one: with the tilt removed, the failure-vs-length
// signal of Figures 6/8/10-12 collapses. The FN-vs-TP word-count gap is
// reported as a metric.
func BenchmarkAblationUniformChannel(b *testing.B) {
	env := sharedEnv(b)
	profile, _ := sim.ProfileFor("Llama3")
	knowledge := sim.NewKnowledge(env.Bench.SchemasByDataset())
	flat := profile
	flat.Tilt = 0
	tilted := sim.NewWithProfile("Llama3", profile, knowledge)
	uniform := sim.NewWithProfile("Llama3", flat, knowledge)
	ds := env.Bench.Syntax[core.SDSS]
	gap := func(client *sim.Model) float64 {
		res, _, err := core.Run(context.Background(), client, core.SyntaxTask, ds, core.RunOpts{})
		if err != nil {
			b.Fatal(err)
		}
		bd := core.Breakdown(res, core.SyntaxTask.Score, func(p analyze.Properties) float64 {
			return float64(p.WordCount)
		})
		return bd.Avg(metrics.FN) - bd.Avg(metrics.TP)
	}
	b.ResetTimer()
	var tiltedGap, uniformGap float64
	for i := 0; i < b.N; i++ {
		tiltedGap = gap(tilted)
		uniformGap = gap(uniform)
	}
	b.ReportMetric(tiltedGap, "tilted-FN-TP-words")
	b.ReportMetric(uniformGap, "uniform-FN-TP-words")
}

// BenchmarkAblationEquivChecker compares the rule-based and engine-backed
// equivalence checkers over generated pairs, reporting agreement.
func BenchmarkAblationEquivChecker(b *testing.B) {
	env := sharedEnv(b)
	pairs := env.Bench.Equiv[core.SDSS]
	if len(pairs) > 60 {
		pairs = pairs[:60]
	}
	checker := equiv.NewChecker(catalog.SDSS())
	b.ResetTimer()
	var agree, total int
	for i := 0; i < b.N; i++ {
		agree, total = 0, 0
		for _, p := range pairs {
			a, err1 := sqlparse.ParseSelect(p.SQL1)
			c, err2 := sqlparse.ParseSelect(p.SQL2)
			if err1 != nil || err2 != nil {
				continue
			}
			rule := equiv.RuleEquivalent(a, c)
			emp, err := checker.Equivalent(a, c)
			if err != nil {
				continue
			}
			total++
			if rule == emp {
				agree++
			}
		}
	}
	if total > 0 {
		b.ReportMetric(float64(agree)/float64(total), "rule-engine-agreement")
	}
}

// BenchmarkAblationPromptVariants measures accuracy spread across the prompt
// variants (the Section 3.4 tuning loop).
func BenchmarkAblationPromptVariants(b *testing.B) {
	env := sharedEnv(b)
	client, err := env.Registry.Get("GPT3.5")
	if err != nil {
		b.Fatal(err)
	}
	trial := env.Bench.Syntax[core.SDSS]
	if len(trial) > 60 {
		trial = trial[:60]
	}
	b.ResetTimer()
	var spread float64
	for i := 0; i < b.N; i++ {
		results, _, err := core.TunePrompt(context.Background(), client, trial)
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := 1.0, 0.0
		for _, r := range results {
			if r.Accuracy < lo {
				lo = r.Accuracy
			}
			if r.Accuracy > hi {
				hi = r.Accuracy
			}
		}
		spread = hi - lo
	}
	b.ReportMetric(spread, "variant-accuracy-spread")
}

// BenchmarkParserThroughput exercises the parser over the generated SDSS
// workload (substrate-level number useful when comparing machines).
func BenchmarkParserThroughput(b *testing.B) {
	env := sharedEnv(b)
	queries := env.Bench.Workloads[core.SDSS].Queries
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, err := sqlparse.ParseStatement(q.SQL); err != nil {
			b.Fatal(err)
		}
	}
}
