package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/analyze"
	"repro/internal/equiv"
	"repro/internal/llm/sim"
	"repro/internal/metrics"
	"repro/internal/semcheck"
	"repro/internal/sqlparse"
)

// buildOnce caches a benchmark across tests (verification off for speed;
// the verified path is covered by TestEquivLabelsSound).
var cachedBench *Benchmark

func bench(t *testing.T) *Benchmark {
	t.Helper()
	if cachedBench == nil {
		b, err := Build(BuildConfig{Seed: 1})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		cachedBench = b
	}
	return cachedBench
}

func TestBuildShapes(t *testing.T) {
	b := bench(t)
	if len(b.Workloads) != 4 {
		t.Fatalf("workloads = %d", len(b.Workloads))
	}
	wantSizes := map[string]int{SDSS: 285, SQLShare: 250, JoinOrder: 157}
	for ds, n := range wantSizes {
		if got := len(b.Syntax[ds]); got != n {
			t.Errorf("syntax[%s] = %d, want %d", ds, got, n)
		}
		if got := len(b.Tokens[ds]); got != n {
			t.Errorf("tokens[%s] = %d, want %d", ds, got, n)
		}
		if len(b.Equiv[ds]) == 0 {
			t.Errorf("equiv[%s] empty", ds)
		}
	}
	if len(b.Perf) != 285 {
		t.Errorf("perf = %d", len(b.Perf))
	}
	if len(b.Explain) != 200 {
		t.Errorf("explain = %d", len(b.Explain))
	}
}

// The builder must hold its invariants across arbitrary seeds, not just the
// default one.
func TestBuildSeedRobust(t *testing.T) {
	for _, seed := range []int64{2, 5, 42, 1234} {
		b, err := Build(BuildConfig{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, ds := range TaskDatasets {
			if len(b.Syntax[ds]) == 0 || len(b.Tokens[ds]) == 0 || len(b.Equiv[ds]) == 0 {
				t.Errorf("seed %d: empty dataset for %s", seed, ds)
			}
		}
		var costly int
		for _, ex := range b.Perf {
			if ex.Costly {
				costly++
			}
		}
		if costly != 41 {
			t.Errorf("seed %d: costly = %d, want 41 (Figure 5 split)", seed, costly)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(BuildConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(BuildConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Syntax[SDSS] {
		if a.Syntax[SDSS][i].SQL != b.Syntax[SDSS][i].SQL {
			t.Fatalf("syntax example %d differs across identical seeds", i)
		}
	}
	for i := range a.Equiv[SDSS] {
		if a.Equiv[SDSS][i].SQL2 != b.Equiv[SDSS][i].SQL2 {
			t.Fatalf("equiv pair %d differs across identical seeds", i)
		}
	}
}

// Every positive syntax example must actually trip the oracle with its
// labeled type, and every negative must be clean.
func TestSyntaxLabelsConsistent(t *testing.T) {
	b := bench(t)
	for _, ds := range TaskDatasets {
		checker := semcheck.New(b.Workloads[ds].Schema)
		for _, ex := range b.Syntax[ds] {
			diags := checker.CheckSQL(ex.SQL)
			if ex.HasError {
				found := false
				for _, d := range diags {
					if d.Code == ex.Type {
						found = true
					}
				}
				if !found {
					t.Errorf("%s: labeled %s but oracle says %v\n%s", ex.ID, ex.Type, diags, ex.SQL)
				}
			} else if len(diags) != 0 {
				t.Errorf("%s: labeled clean but oracle says %v\n%s", ex.ID, diags, ex.SQL)
			}
		}
	}
}

// Positive and negative classes stay roughly balanced (the calibration
// math assumes it).
func TestSyntaxBalance(t *testing.T) {
	b := bench(t)
	for _, ds := range TaskDatasets {
		pos := 0
		for _, ex := range b.Syntax[ds] {
			if ex.HasError {
				pos++
			}
		}
		frac := float64(pos) / float64(len(b.Syntax[ds]))
		if frac < 0.35 || frac > 0.6 {
			t.Errorf("%s positives fraction = %.2f, want near 0.5", ds, frac)
		}
	}
}

// Every removal label must be observable: the damaged SQL fails to parse or
// trips the checker.
func TestTokenLabelsObservable(t *testing.T) {
	b := bench(t)
	for _, ds := range TaskDatasets {
		checker := semcheck.New(b.Workloads[ds].Schema)
		for _, ex := range b.Tokens[ds] {
			if !ex.Missing {
				if len(checker.CheckSQL(ex.SQL)) != 0 {
					t.Errorf("%s: intact example trips the oracle", ex.ID)
				}
				continue
			}
			if ex.Position < 0 || ex.Removed == "" {
				t.Errorf("%s: missing ground truth fields", ex.ID)
			}
			if len(checker.CheckSQL(ex.SQL)) == 0 {
				t.Errorf("%s: removal is unobservable\n%s", ex.ID, ex.SQL)
			}
		}
	}
}

// Equivalence pairs must parse on both sides and cover both label classes
// and several types.
func TestEquivPairShapes(t *testing.T) {
	b := bench(t)
	for _, ds := range TaskDatasets {
		var eq, ne int
		types := map[equiv.Type]bool{}
		for _, p := range b.Equiv[ds] {
			if _, err := sqlparse.ParseSelect(p.SQL1); err != nil {
				t.Fatalf("%s left does not parse: %v", p.ID, err)
			}
			if _, err := sqlparse.ParseSelect(p.SQL2); err != nil {
				t.Fatalf("%s right does not parse: %v", p.ID, err)
			}
			types[p.Type] = true
			if p.Equivalent {
				eq++
			} else {
				ne++
			}
		}
		if eq == 0 || ne == 0 {
			t.Errorf("%s pair classes: %d equivalent / %d non-equivalent", ds, eq, ne)
		}
		if len(types) < 8 {
			t.Errorf("%s covers only %d transformation types", ds, len(types))
		}
	}
}

// TestEquivLabelsSound checks the verified build's equivalence labels at
// seeds 1-3 over every dataset, on the instances the build verifies on:
//   - an equivalent label is proven by the rule normalizer, or both sides
//     execute without error and agree;
//   - a proven pair whose sides both execute without error agrees, so the
//     normalizer, which labels without executing, stays sound;
//   - no non-equivalent label is proven.
//
// A proven pair may fail to execute: its original applies arithmetic to a
// text column, an error the workload generators still produce.
func TestEquivLabelsSound(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and executes three verified benchmarks")
	}
	for _, seed := range []int64{1, 2, 3} {
		b, err := Build(BuildConfig{Seed: seed, VerifyEquivalences: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, ds := range TaskDatasets {
			checker := equiv.NewChecker(b.Workloads[ds].Schema)
			checker.Seeds = []int64{11, 29}
			var proven, executed, failed int
			for _, p := range b.Equiv[ds] {
				a, err := sqlparse.ParseSelect(p.SQL1)
				if err != nil {
					t.Fatalf("%s: %v", p.ID, err)
				}
				c, err := sqlparse.ParseSelect(p.SQL2)
				if err != nil {
					t.Fatalf("%s: %v", p.ID, err)
				}
				rule := equiv.RuleEquivalent(a, c)
				if !p.Equivalent {
					if rule {
						t.Errorf("seed %d %s: labeled non-equivalent (%s) but proven equivalent", seed, p.ID, p.Type)
					}
					continue
				}
				equal, err := checker.Equivalent(a, c)
				switch {
				case !rule && (err != nil || !equal):
					t.Errorf("seed %d %s: unproven %s pair labeled equivalent, but execution gives equal=%v, error %v",
						seed, p.ID, p.Type, equal, err)
				case rule && err == nil && !equal:
					t.Errorf("seed %d %s: proven %s pair executes unequal", seed, p.ID, p.Type)
				case rule && err != nil:
					failed++
				}
				if rule {
					proven++
				} else {
					executed++
				}
			}
			t.Logf("seed %d %s: %d equivalent labels proven (%d of them fail at execution), %d verified by execution",
				seed, ds, proven, failed, executed)
		}
	}
}

func TestPerfLabelsMatchThreshold(t *testing.T) {
	b := bench(t)
	for _, ex := range b.Perf {
		if ex.Costly != (ex.ElapsedMS > 200) {
			t.Errorf("%s: costly=%v but elapsed=%.1f", ex.ID, ex.Costly, ex.ElapsedMS)
		}
	}
}

func TestExplainFactsPresent(t *testing.T) {
	b := bench(t)
	for _, ex := range b.Explain {
		if len(ex.Facts.Tables) == 0 && len(ex.Facts.Columns) == 0 {
			t.Errorf("%s: no facts extracted", ex.ID)
		}
		if ex.Description == "" {
			t.Errorf("%s: no reference description", ex.ID)
		}
	}
}

// End-to-end: run every task for one model and sanity-check aggregate
// metrics and breakdowns.
func TestRunnersEndToEnd(t *testing.T) {
	b := bench(t)
	k := sim.NewKnowledge(b.SchemasByDataset())
	client, err := sim.New("GPT4", k)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	syn, _, err := Run(ctx, client, SyntaxTask, b.Syntax[SDSS], RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if conf := Confusion(syn, SyntaxTask.Score); conf.F1() < 0.85 {
		t.Errorf("GPT4 syntax F1 = %.2f, expected near paper's 0.97", conf.F1())
	}
	if mc := TypeScores(syn, SyntaxTask.Score); mc.WeightedF1() < 0.7 {
		t.Errorf("GPT4 syntax type F1 = %.2f", mc.WeightedF1())
	}
	if rates := FNRateByClass(syn, SyntaxTask.Score); len(rates) == 0 {
		t.Error("no FN rates")
	}

	tok, _, err := Run(ctx, client, TokensTask, b.Tokens[SDSS], RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if conf := Confusion(tok, TokensTask.Score); conf.F1() < 0.9 {
		t.Errorf("GPT4 token F1 = %.2f", conf.F1())
	}
	loc := EvalTokenLocation(tok)
	if loc.N() == 0 || loc.HitRate() <= 0 {
		t.Errorf("location metrics empty: %+v", loc)
	}

	eq, _, err := Run(ctx, client, EquivTask, b.Equiv[SDSS], RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if conf := Confusion(eq, EquivTask.Score); conf.Recall() < 0.9 {
		t.Errorf("GPT4 equiv recall = %.2f, paper reports ~1.0", conf.Recall())
	}

	pf, _, err := Run(ctx, client, PerfTask, b.Perf, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if conf := Confusion(pf, PerfTask.Score); conf.F1() < 0.6 {
		t.Errorf("GPT4 perf F1 = %.2f", conf.F1())
	}
	bd := Breakdown(pf, PerfTask.Score, func(p analyze.Properties) float64 { return float64(p.WordCount) })
	if n := bd.Count(metrics.TP) + bd.Count(metrics.TN) + bd.Count(metrics.FP) + bd.Count(metrics.FN); n != len(pf) {
		t.Errorf("breakdown holds %d results, want %d", n, len(pf))
	}

	exps, _, err := Run(ctx, client, ExplainTask, b.Explain[:20], RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if cov := Summarize(exps, ExplainTask.Score).Accuracy; cov < 0.7 {
		t.Errorf("GPT4 coverage = %.2f", cov)
	}
}

func TestTaskCatalogMatchesTable1(t *testing.T) {
	if len(TaskCatalog) != 5 {
		t.Fatalf("tasks = %d", len(TaskCatalog))
	}
	// Spot checks from Table 1.
	if TaskCatalog[0].Skills[Recognition] != 2 {
		t.Error("syntax error must strongly probe recognition")
	}
	if TaskCatalog[3].Skills[Semantics] != 2 || TaskCatalog[3].Skills[Coherence] != 2 {
		t.Error("query equivalence must probe semantics and coherence")
	}
}

func TestTunePrompt(t *testing.T) {
	b := bench(t)
	k := sim.NewKnowledge(b.SchemasByDataset())
	client, _ := sim.New("GPT3.5", k)
	trial := b.Syntax[SDSS][:30]
	results, best, err := TunePrompt(context.Background(), client, trial)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 3 {
		t.Fatalf("variants tried = %d", len(results))
	}
	if !strings.HasPrefix(best.ID, "syntax_error/") {
		t.Errorf("best = %q", best.ID)
	}
	for _, r := range results {
		if r.Accuracy < 0 || r.Accuracy > 1 {
			t.Errorf("accuracy out of range: %+v", r)
		}
		if r.Accuracy > results[0].Accuracy && best.ID == results[0].Template.ID {
			t.Error("tuner did not pick the best variant")
		}
	}
}
