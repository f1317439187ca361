package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/mutate"
	promptpkg "repro/internal/prompt"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/semcheck"
	"repro/internal/stats"
)

func init() {
	register(Experiment{ID: "table1", Title: "Table 1: Skill-to-SQL task mapping", Run: runTable1})
	register(Experiment{ID: "table2", Title: "Table 2: Workload statistics overview", Run: runTable2})
	register(Experiment{ID: "fig1", Title: "Figure 1: SDSS statistics", Run: histExperiment(core.SDSS)})
	register(Experiment{ID: "fig2", Title: "Figure 2: SQLShare statistics", Run: histExperiment(core.SQLShare)})
	register(Experiment{ID: "fig3", Title: "Figure 3: Join-Order statistics", Run: histExperiment(core.JoinOrder)})
	register(Experiment{ID: "fig4", Title: "Figure 4: Pairwise property correlations", Run: runFig4})
	register(Experiment{ID: "fig5", Title: "Figure 5: Elapsed time of sampled SDSS queries", Run: runFig5})
	register(Experiment{ID: "table3", Title: "Table 3: syntax_error and syntax_error_type", Run: runTable3})
	register(Experiment{ID: "fig6", Title: "Figure 6: word_count vs outcome in syntax_error (SDSS)", Run: runFig6})
	register(Experiment{ID: "fig7", Title: "Figure 7: FN rate by syntax error type", Run: runFig7})
	register(Experiment{ID: "table4", Title: "Table 4: miss_token and miss_token_type", Run: runTable4})
	register(Experiment{ID: "fig8", Title: "Figure 8: failure vs properties in miss_token (SQLShare)", Run: runFig8})
	register(Experiment{ID: "fig9", Title: "Figure 9: FN rate by missing token type", Run: runFig9})
	register(Experiment{ID: "table5", Title: "Table 5: MAE and Hit Rate for miss_token_loc", Run: runTable5})
	register(Experiment{ID: "table6", Title: "Table 6: performance_pred accuracy", Run: runTable6})
	register(Experiment{ID: "fig10", Title: "Figure 10: MistralAI failure in performance_pred", Run: runFig10})
	register(Experiment{ID: "table7", Title: "Table 7: query_equiv and query_equiv_type", Run: runTable7})
	register(Experiment{ID: "fig11", Title: "Figure 11: word_count vs outcome in query_equiv", Run: runFig11})
	register(Experiment{ID: "fig12", Title: "Figure 12: predicate_count vs outcome in query_equiv", Run: runFig12})
	register(Experiment{ID: "casestudy", Title: "Section 4.5: query explanation case study", Run: runCaseStudy})
	register(Experiment{ID: "ext-fewshot", Title: "Extension: zero-shot vs few-shot prompting (syntax_error, SDSS)", Run: runExtFewShot})
	register(Experiment{ID: "ext-tasks", Title: "Extension: registry-wide task accuracy grid", Run: runTaskGrid})
}

// runTaskGrid renders the generic accuracy table of every registered task —
// the registry-driven view of the paper's per-task tables. It iterates
// core.Tasks(), so tasks registered after this code was written (fill_token
// being the first) appear with zero changes here.
func runTaskGrid(env *Env, w io.Writer) error {
	report.Section(w, "Extension: accuracy across all registered tasks")
	for _, task := range core.Tasks() {
		datasets := task.Datasets()
		if err := env.warm(task.ID(), env.Models, datasets); err != nil {
			return err
		}
		cells := map[string]map[string]report.TaskCell{}
		for _, model := range env.Models {
			cells[model] = map[string]report.TaskCell{}
			for _, ds := range datasets {
				s, err := env.Summary(task.ID(), model, ds)
				if err != nil {
					return err
				}
				cells[model][ds] = report.TaskCell{
					N: s.N, Accuracy: s.Accuracy,
					Prec: s.Prec, Rec: s.Rec, F1: s.F1, HasPRF: s.HasPRF,
				}
			}
		}
		report.TaskGrid(w, fmt.Sprintf("%s (%s)", task.ID(), task.Name()), datasets, env.Models, cells)
	}
	return nil
}

// runExtFewShot goes beyond the paper's zero-shot protocol: the same
// syntax_error run with two worked examples in the prompt, quantifying the
// mitigation the paper's conclusion anticipates.
func runExtFewShot(env *Env, w io.Writer) error {
	report.Section(w, "Extension: few-shot prompting on syntax_error (SDSS)")
	shots := []promptpkg.Shot{
		{
			SQL:    "SELECT plate , mjd , COUNT(*) FROM SpecObj",
			Answer: "yes; type=aggr-attr; non-aggregated columns appear without GROUP BY",
		},
		{
			SQL:    "SELECT plate , mjd FROM SpecObj WHERE z > 0.5",
			Answer: "no error",
		},
	}
	tpl := promptpkg.Default(promptpkg.SyntaxError)
	// Both variants fan out across models; rendering stays in table order.
	// Few-shot prompting is the generic driver with a shot-bearing renderer.
	type row struct{ zero, few float64 }
	rows, err := runner.Map(env.ctx(), 0, env.Models, func(ctx context.Context, _ int, model string) (row, error) {
		zero, err := env.SyntaxResults(model, core.SDSS)
		if err != nil {
			return row{}, err
		}
		client, err := env.Registry.Get(model)
		if err != nil {
			return row{}, err
		}
		var few []core.SyntaxResult
		err = core.RunWith(ctx, client, core.SyntaxTask,
			func(ex core.SyntaxExample) string { return tpl.RenderFewShot(ex.SQL, shots) },
			env.Bench.Syntax[core.SDSS],
			func(r core.SyntaxResult) error { few = append(few, r); return nil })
		if err != nil {
			return row{}, err
		}
		return row{core.EvalSyntaxBinary(zero).F1(), core.EvalSyntaxBinary(few).F1()}, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %18s %18s\n", "Model", "zero-shot F1", "few-shot F1")
	for i, model := range env.Models {
		fmt.Fprintf(w, "%-12s %18.2f %18.2f\n", model, rows[i].zero, rows[i].few)
	}
	fmt.Fprintln(w)
	return nil
}

func runTable1(env *Env, w io.Writer) error {
	report.Section(w, "Table 1: Skill-to-SQL task mapping")
	fmt.Fprintf(w, "%-14s", "Skill")
	for _, t := range core.TaskCatalog {
		fmt.Fprintf(w, " | %-18s", t.Name)
	}
	fmt.Fprintln(w)
	marks := []string{"", "x", "xx"}
	for _, s := range core.Skills {
		fmt.Fprintf(w, "%-14s", s)
		for _, t := range core.TaskCatalog {
			fmt.Fprintf(w, " | %-18s", marks[t.Skills[s]])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return nil
}

func runTable2(env *Env, w io.Writer) error {
	report.Section(w, "Table 2: Workload statistics overview")
	fmt.Fprintf(w, "%-12s %10s %8s %8s %8s %8s %8s\n",
		"Workload", "Original", "Sampled", "SELECT", "CREATE", "Agg.Yes", "Agg.No")
	for _, ds := range []string{core.SDSS, core.SQLShare, core.JoinOrder, core.Spider} {
		wl := env.Bench.Workloads[ds]
		byType := wl.ByType()
		yes, no := wl.AggregateSplit()
		fmt.Fprintf(w, "%-12s %10d %8d %8d %8d %8d %8d\n",
			ds, wl.OriginalCount, len(wl.Queries), byType["SELECT"]+byType["WITH"], byType["CREATE"], yes, no)
	}
	fmt.Fprintln(w)
	return nil
}

// histExperiment renders the per-workload property histograms of Figs 1-3.
func histExperiment(ds string) func(env *Env, w io.Writer) error {
	return func(env *Env, w io.Writer) error {
		wl := env.Bench.Workloads[ds]
		report.Section(w, fmt.Sprintf("%s statistics (n=%d)", ds, len(wl.Queries)))

		// (a) query_type
		byType := wl.ByType()
		var types []string
		for t := range byType {
			types = append(types, t)
		}
		sort.Slice(types, func(i, j int) bool {
			if byType[types[i]] != byType[types[j]] {
				return byType[types[i]] > byType[types[j]]
			}
			return types[i] < types[j]
		})
		var counts []int
		for _, t := range types {
			counts = append(counts, byType[t])
		}
		report.Histogram(w, "(a) query_type", types, counts)

		// (b) word_count
		wordHist := stats.NewHistogram([]int{1, 30, 60, 90, 120}, []string{"1-30", "30-60", "60-90", "90-120", "120+"})
		for _, q := range wl.Queries {
			wordHist.Add(q.Props.WordCount)
		}
		report.Histogram(w, "(b) word_count", wordHist.Labels, wordHist.Counts)

		// (c) table_count
		tblBounds, tblLabels := countBuckets(9)
		if ds != core.JoinOrder {
			tblBounds, tblLabels = countBuckets(6)
		}
		tblHist := stats.NewHistogram(tblBounds, tblLabels)
		for _, q := range wl.Queries {
			tblHist.Add(q.Props.TableCount)
		}
		report.Histogram(w, "(c) table_count", tblHist.Labels, tblHist.Counts)

		// (d) predicate_count
		var predHist *stats.Histogram
		if ds == core.JoinOrder {
			predHist = stats.NewHistogram([]int{0, 2, 7, 11}, []string{"0-1", "2-6", "7-10", "10+"})
		} else {
			b, l := countBuckets(7)
			predHist = stats.NewHistogram(b, l)
		}
		for _, q := range wl.Queries {
			predHist.Add(q.Props.PredicateCount)
		}
		report.Histogram(w, "(d) predicate_count", predHist.Labels, predHist.Counts)

		// (e) nestedness or function_count
		if ds == core.JoinOrder {
			b, l := countBuckets(4)
			fnHist := stats.NewHistogram(b, l)
			for _, q := range wl.Queries {
				fnHist.Add(q.Props.FunctionCount)
			}
			report.Histogram(w, "(e) function_count", fnHist.Labels, fnHist.Counts)
		} else {
			b, l := countBuckets(6)
			nestHist := stats.NewHistogram(b, l)
			for _, q := range wl.Queries {
				nestHist.Add(q.Props.Nestedness)
			}
			report.Histogram(w, "(e) nestedness", nestHist.Labels, nestHist.Counts)
		}
		return nil
	}
}

// countBuckets builds 0,1,...,n-1,n+ integer buckets.
func countBuckets(n int) ([]int, []string) {
	var bounds []int
	var labels []string
	for i := 0; i <= n; i++ {
		bounds = append(bounds, i)
		if i == n {
			labels = append(labels, fmt.Sprintf("%d+", i))
		} else {
			labels = append(labels, fmt.Sprintf("%d", i))
		}
	}
	return bounds, labels
}

func runFig4(env *Env, w io.Writer) error {
	report.Section(w, "Figure 4: Pairwise Pearson correlations")
	for _, ds := range core.TaskDatasets {
		wl := env.Bench.Workloads[ds]
		names := analyze.CorrelationProperties
		// Join-Order has no nesting; the paper's Fig 4c omits Nested_Level.
		nprops := len(names)
		if ds == core.JoinOrder {
			nprops--
		}
		cols := make([][]float64, nprops)
		for _, q := range wl.Queries {
			v := q.Props.Vector()
			for i := 0; i < nprops; i++ {
				cols[i] = append(cols[i], v[i])
			}
		}
		m := stats.CorrMatrix(cols)
		report.CorrMatrix(w, fmt.Sprintf("(%s)", ds), names[:nprops], m)
	}
	return nil
}

func runFig5(env *Env, w io.Writer) error {
	report.Section(w, "Figure 5: Elapsed time of sampled SDSS queries")
	h := stats.NewHistogram([]int{0, 100, 200, 300, 400, 500},
		[]string{"0-100", "100-200", "200-300", "300-400", "400-500", "500+"})
	for _, q := range env.Bench.Perf {
		h.Add(int(q.ElapsedMS))
	}
	report.Histogram(w, "elapsed ms", h.Labels, h.Counts)
	return nil
}

func runTable3(env *Env, w io.Writer) error {
	report.Section(w, "Table 3: syntax_error (top) and syntax_error_type (bottom)")
	if err := env.warm(core.SyntaxTask.TaskID, env.Models, core.TaskDatasets); err != nil {
		return err
	}
	binary := map[string]map[string]report.PRF{}
	typed := map[string]map[string]report.PRF{}
	for _, model := range env.Models {
		binary[model] = map[string]report.PRF{}
		typed[model] = map[string]report.PRF{}
		for _, ds := range core.TaskDatasets {
			res, err := env.SyntaxResults(model, ds)
			if err != nil {
				return err
			}
			binary[model][ds] = report.FromBinary(core.EvalSyntaxBinary(res))
			mc := core.EvalSyntaxType(res)
			typed[model][ds] = report.PRF{
				Prec: mc.WeightedPrecision(), Rec: mc.WeightedRecall(), F1: mc.WeightedF1(),
			}
		}
	}
	report.MetricTable(w, "syntax_error", core.TaskDatasets, env.Models, binary)
	report.MetricTable(w, "syntax_error_type (weighted)", core.TaskDatasets, env.Models, typed)
	return nil
}

func runFig6(env *Env, w io.Writer) error {
	report.Section(w, "Figure 6: word_count vs outcome, syntax_error on SDSS")
	models := []string{"Llama3", "Gemini"}
	if err := env.warm(core.SyntaxTask.TaskID, models, []string{core.SDSS}); err != nil {
		return err
	}
	for _, model := range models {
		res, err := env.SyntaxResults(model, core.SDSS)
		if err != nil {
			return err
		}
		bd := core.SyntaxBreakdown(res, func(ex core.SyntaxExample) float64 {
			return float64(ex.Props.WordCount)
		})
		report.OutcomePanel(w, fmt.Sprintf("(%s) word_count by outcome", model), bd)
	}
	return nil
}

func runFig7(env *Env, w io.Writer) error {
	report.Section(w, "Figure 7: FN rate by syntax error type")
	if err := env.warm(core.SyntaxTask.TaskID, env.Models, core.TaskDatasets); err != nil {
		return err
	}
	classes := make([]string, 0, len(semcheck.PaperErrorTypes))
	for _, c := range semcheck.PaperErrorTypes {
		classes = append(classes, string(c))
	}
	for _, ds := range core.TaskDatasets {
		fmt.Fprintf(w, "--- %s ---\n", ds)
		for _, model := range env.Models {
			res, err := env.SyntaxResults(model, ds)
			if err != nil {
				return err
			}
			report.RateBars(w, model, classes, core.SyntaxFNRateByType(res))
		}
	}
	return nil
}

func runTable4(env *Env, w io.Writer) error {
	report.Section(w, "Table 4: miss_token (top) and miss_token_type (bottom)")
	if err := env.warm(core.TokensTask.TaskID, env.Models, core.TaskDatasets); err != nil {
		return err
	}
	binary := map[string]map[string]report.PRF{}
	typed := map[string]map[string]report.PRF{}
	for _, model := range env.Models {
		binary[model] = map[string]report.PRF{}
		typed[model] = map[string]report.PRF{}
		for _, ds := range core.TaskDatasets {
			res, err := env.TokenResults(model, ds)
			if err != nil {
				return err
			}
			binary[model][ds] = report.FromBinary(core.EvalTokenBinary(res))
			mc := core.EvalTokenType(res)
			typed[model][ds] = report.PRF{
				Prec: mc.WeightedPrecision(), Rec: mc.WeightedRecall(), F1: mc.WeightedF1(),
			}
		}
	}
	report.MetricTable(w, "miss_token", core.TaskDatasets, env.Models, binary)
	report.MetricTable(w, "miss_token_type (weighted)", core.TaskDatasets, env.Models, typed)
	return nil
}

func runFig8(env *Env, w io.Writer) error {
	report.Section(w, "Figure 8: failures vs properties, miss_token on SQLShare")
	panels := []struct {
		model    string
		name     string
		property func(core.TokenExample) float64
	}{
		{"GPT3.5", "word_count", func(ex core.TokenExample) float64 { return float64(ex.Props.WordCount) }},
		{"Gemini", "predicate_count", func(ex core.TokenExample) float64 { return float64(ex.Props.PredicateCount) }},
		{"Gemini", "nestedness", func(ex core.TokenExample) float64 { return float64(ex.Props.Nestedness) }},
		{"MistralAI", "table_count", func(ex core.TokenExample) float64 { return float64(ex.Props.TableCount) }},
	}
	models := make([]string, 0, len(panels))
	for _, p := range panels {
		models = append(models, p.model)
	}
	if err := env.warm(core.TokensTask.TaskID, models, []string{core.SQLShare}); err != nil {
		return err
	}
	for _, p := range panels {
		res, err := env.TokenResults(p.model, core.SQLShare)
		if err != nil {
			return err
		}
		bd := core.TokenBreakdown(res, p.property)
		report.OutcomePanel(w, fmt.Sprintf("(%s) %s by outcome", p.model, p.name), bd)
	}
	return nil
}

func runFig9(env *Env, w io.Writer) error {
	report.Section(w, "Figure 9: FN rate by missing token type")
	if err := env.warm(core.TokensTask.TaskID, env.Models, core.TaskDatasets); err != nil {
		return err
	}
	classes := make([]string, 0, len(mutate.TokenKinds))
	for _, k := range mutate.TokenKinds {
		classes = append(classes, string(k))
	}
	for _, ds := range core.TaskDatasets {
		fmt.Fprintf(w, "--- %s ---\n", ds)
		for _, model := range env.Models {
			res, err := env.TokenResults(model, ds)
			if err != nil {
				return err
			}
			report.RateBars(w, model, classes, core.TokenFNRateByKind(res))
		}
	}
	return nil
}

func runTable5(env *Env, w io.Writer) error {
	report.Section(w, "Table 5: MAE and Hit Rate for miss_token_loc")
	if err := env.warm(core.TokensTask.TaskID, env.Models, core.TaskDatasets); err != nil {
		return err
	}
	cells := map[string]map[string]report.LocRow{}
	for _, model := range env.Models {
		cells[model] = map[string]report.LocRow{}
		for _, ds := range core.TaskDatasets {
			res, err := env.TokenResults(model, ds)
			if err != nil {
				return err
			}
			loc := core.EvalTokenLocation(res)
			cells[model][ds] = report.LocRow{MAE: loc.MAE(), HR: loc.HitRate()}
		}
	}
	report.LocationTable(w, "miss_token_loc", core.TaskDatasets, env.Models, cells)
	return nil
}

func runTable6(env *Env, w io.Writer) error {
	report.Section(w, "Table 6: performance_pred (SDSS)")
	if err := env.warm(core.PerfTask.TaskID, env.Models, nil); err != nil {
		return err
	}
	cells := map[string]map[string]report.PRF{}
	for _, model := range env.Models {
		res, err := env.PerfResults(model)
		if err != nil {
			return err
		}
		cells[model] = map[string]report.PRF{core.SDSS: report.FromBinary(core.EvalPerf(res))}
	}
	report.MetricTable(w, "performance_pred", []string{core.SDSS}, env.Models, cells)
	return nil
}

func runFig10(env *Env, w io.Writer) error {
	report.Section(w, "Figure 10: MistralAI failures in performance_pred")
	res, err := env.PerfResults("MistralAI")
	if err != nil {
		return err
	}
	bd := core.PerfBreakdown(res, func(ex core.PerfExample) float64 { return float64(ex.Props.WordCount) })
	report.OutcomePanel(w, "(a) word_count by outcome", bd)
	bd = core.PerfBreakdown(res, func(ex core.PerfExample) float64 { return float64(ex.Props.ColumnCount) })
	report.OutcomePanel(w, "(b) column_count by outcome", bd)
	return nil
}

func runTable7(env *Env, w io.Writer) error {
	report.Section(w, "Table 7: query_equiv (top) and query_equiv_type (bottom)")
	if err := env.warm(core.EquivTask.TaskID, env.Models, core.TaskDatasets); err != nil {
		return err
	}
	binary := map[string]map[string]report.PRF{}
	typed := map[string]map[string]report.PRF{}
	for _, model := range env.Models {
		binary[model] = map[string]report.PRF{}
		typed[model] = map[string]report.PRF{}
		for _, ds := range core.TaskDatasets {
			res, err := env.EquivResults(model, ds)
			if err != nil {
				return err
			}
			binary[model][ds] = report.FromBinary(core.EvalEquivBinary(res))
			mc := core.EvalEquivType(res)
			typed[model][ds] = report.PRF{
				Prec: mc.WeightedPrecision(), Rec: mc.WeightedRecall(), F1: mc.WeightedF1(),
			}
		}
	}
	report.MetricTable(w, "query_equiv", core.TaskDatasets, env.Models, binary)
	report.MetricTable(w, "query_equiv_type (weighted)", core.TaskDatasets, env.Models, typed)
	return nil
}

func runFig11(env *Env, w io.Writer) error {
	report.Section(w, "Figure 11: word_count vs outcome in query_equiv")
	panels := []struct{ model, ds string }{
		{"GPT3.5", core.SDSS},
		{"Llama3", core.JoinOrder},
	}
	if err := warmEquivPanels(env, panels); err != nil {
		return err
	}
	for _, p := range panels {
		res, err := env.EquivResults(p.model, p.ds)
		if err != nil {
			return err
		}
		bd := core.EquivBreakdown(res, func(ex core.EquivExample) float64 { return float64(ex.Props.WordCount) })
		report.OutcomePanel(w, fmt.Sprintf("(%s on %s) word_count by outcome", p.model, p.ds), bd)
	}
	return nil
}

func runFig12(env *Env, w io.Writer) error {
	report.Section(w, "Figure 12: predicate_count vs outcome in query_equiv")
	panels := []struct{ model, ds string }{
		{"Gemini", core.SDSS},
		{"MistralAI", core.JoinOrder},
	}
	if err := warmEquivPanels(env, panels); err != nil {
		return err
	}
	for _, p := range panels {
		res, err := env.EquivResults(p.model, p.ds)
		if err != nil {
			return err
		}
		bd := core.EquivBreakdown(res, func(ex core.EquivExample) float64 { return float64(ex.Props.PredicateCount) })
		report.OutcomePanel(w, fmt.Sprintf("(%s on %s) predicate_count by outcome", p.model, p.ds), bd)
	}
	return nil
}

// warmEquivPanels prefetches the query_equiv cells a figure's panels need.
func warmEquivPanels(env *Env, panels []struct{ model, ds string }) error {
	cells := make([]cell, len(panels))
	for i, p := range panels {
		cells[i] = cell{core.EquivTask.TaskID, p.model, p.ds}
	}
	return env.prefetch(cells)
}

func runCaseStudy(env *Env, w io.Writer) error {
	report.Section(w, "Section 4.5 case study: query explanation")
	if err := env.warm(core.ExplainTask.TaskID, env.Models, nil); err != nil {
		return err
	}
	// The four pinned case-study queries lead the Spider workload.
	n := 4
	if len(env.Bench.Explain) < n {
		n = len(env.Bench.Explain)
	}
	for i := 0; i < n; i++ {
		ex := env.Bench.Explain[i]
		fmt.Fprintf(w, "Q%d: %s\n", 15+i, ex.SQL)
		fmt.Fprintf(w, "  reference: %s\n", ex.Description)
		for _, model := range env.Models {
			res, err := env.ExplainResults(model)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %-10s (coverage %.2f): %s\n", model, res[i].Coverage, res[i].Explanation)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "Mean fact coverage over all 200 Spider queries:")
	for _, model := range env.Models {
		res, err := env.ExplainResults(model)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-10s %.3f\n", model, core.MeanCoverage(res))
	}
	// Superlative misreads (the Q18 failure mode) per model.
	fmt.Fprintln(w, "\nSuperlative direction misreads (ORDER BY ... LIMIT 1 queries):")
	for _, model := range env.Models {
		res, err := env.ExplainResults(model)
		if err != nil {
			return err
		}
		var total, wrong int
		for _, r := range res {
			if !r.Example.Facts.Superlative {
				continue
			}
			total++
			want := "lowest"
			if r.Example.Facts.Descending {
				want = "highest"
			}
			if !strings.Contains(strings.ToLower(r.Explanation), want) {
				wrong++
			}
		}
		if total > 0 {
			fmt.Fprintf(w, "  %-10s %d/%d misread\n", model, wrong, total)
		}
	}
	fmt.Fprintln(w)
	return nil
}
