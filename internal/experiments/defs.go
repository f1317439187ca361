package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/mutate"
	promptpkg "repro/internal/prompt"
	"repro/internal/report"
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
	register(Experiment{ID: "table3", Title: "Table 3: syntax_error and syntax_error_type",
		Run: prTable(core.SyntaxTask, "Table 3: syntax_error (top) and syntax_error_type (bottom)", true)})
	register(Experiment{ID: "fig6", Title: "Figure 6: word_count vs outcome in syntax_error (SDSS)",
		Run: panelFigure(core.SyntaxTask, "Figure 6: word_count vs outcome, syntax_error on SDSS", []panel{
			{"(Llama3) word_count by outcome", "Llama3", core.SDSS, wordCount},
			{"(Gemini) word_count by outcome", "Gemini", core.SDSS, wordCount},
		})})
	register(Experiment{ID: "fig7", Title: "Figure 7: FN rate by syntax error type",
		Run: fnRateFigure(core.SyntaxTask, "Figure 7: FN rate by syntax error type", classNames(semcheck.PaperErrorTypes))})
	register(Experiment{ID: "table4", Title: "Table 4: miss_token and miss_token_type",
		Run: prTable(core.TokensTask, "Table 4: miss_token (top) and miss_token_type (bottom)", true)})
	register(Experiment{ID: "fig8", Title: "Figure 8: failure vs properties in miss_token (SQLShare)",
		Run: panelFigure(core.TokensTask, "Figure 8: failures vs properties, miss_token on SQLShare", []panel{
			{"(GPT3.5) word_count by outcome", "GPT3.5", core.SQLShare, wordCount},
			{"(Gemini) predicate_count by outcome", "Gemini", core.SQLShare, predicateCount},
			{"(Gemini) nestedness by outcome", "Gemini", core.SQLShare, nestedness},
			{"(MistralAI) table_count by outcome", "MistralAI", core.SQLShare, tableCount},
		})})
	register(Experiment{ID: "fig9", Title: "Figure 9: FN rate by missing token type",
		Run: fnRateFigure(core.TokensTask, "Figure 9: FN rate by missing token type", classNames(mutate.TokenKinds))})
	register(Experiment{ID: "table5", Title: "Table 5: MAE and Hit Rate for miss_token_loc", Run: runTable5})
	register(Experiment{ID: "table6", Title: "Table 6: performance_pred accuracy",
		Run: prTable(core.PerfTask, "Table 6: performance_pred (SDSS)", false)})
	register(Experiment{ID: "fig10", Title: "Figure 10: MistralAI failure in performance_pred",
		Run: panelFigure(core.PerfTask, "Figure 10: MistralAI failures in performance_pred", []panel{
			{"(a) word_count by outcome", "MistralAI", core.SDSS, wordCount},
			{"(b) column_count by outcome", "MistralAI", core.SDSS, columnCount},
		})})
	register(Experiment{ID: "table7", Title: "Table 7: query_equiv and query_equiv_type",
		Run: prTable(core.EquivTask, "Table 7: query_equiv (top) and query_equiv_type (bottom)", true)})
	register(Experiment{ID: "fig11", Title: "Figure 11: word_count vs outcome in query_equiv",
		Run: panelFigure(core.EquivTask, "Figure 11: word_count vs outcome in query_equiv", []panel{
			{"(GPT3.5 on SDSS) word_count by outcome", "GPT3.5", core.SDSS, wordCount},
			{"(Llama3 on Join-Order) word_count by outcome", "Llama3", core.JoinOrder, wordCount},
		})})
	register(Experiment{ID: "fig12", Title: "Figure 12: predicate_count vs outcome in query_equiv",
		Run: panelFigure(core.EquivTask, "Figure 12: predicate_count vs outcome in query_equiv", []panel{
			{"(Gemini on SDSS) predicate_count by outcome", "Gemini", core.SDSS, predicateCount},
			{"(MistralAI on Join-Order) predicate_count by outcome", "MistralAI", core.JoinOrder, predicateCount},
		})})
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
		if err := env.warm(task.ID(), datasets); err != nil {
			return err
		}
		cells := map[string]map[string]core.Summary{}
		for _, model := range env.Models {
			cells[model] = map[string]core.Summary{}
			for _, ds := range datasets {
				s, err := env.Summary(task.ID(), model, ds)
				if err != nil {
					return err
				}
				cells[model][ds] = s
			}
		}
		report.TaskGrid(w, fmt.Sprintf("%s (%s)", task.ID(), task.Name()), datasets, env.Models, cells)
	}
	return nil
}

// fewShot is the syntax_error prompt with two worked examples: the paper's
// published instruction, one injected error and one clean query.
var fewShot = func() promptpkg.Template {
	tpl := promptpkg.Default(promptpkg.SyntaxError)
	tpl.ID += "+2shot"
	tpl.Shots = []promptpkg.Shot{
		{
			SQL:    "SELECT plate , mjd , COUNT(*) FROM SpecObj",
			Answer: "yes; type=aggr-attr; non-aggregated columns appear without GROUP BY",
		},
		{
			SQL:    "SELECT plate , mjd FROM SpecObj WHERE z > 0.5",
			Answer: "no error",
		},
	}
	return tpl
}()

// runExtFewShot goes beyond the paper's zero-shot protocol: the same
// syntax_error cell under a few-shot prompt, quantifying the mitigation the
// paper's conclusion anticipates. A model row notes the failed examples of
// a partial-failure run.
func runExtFewShot(env *Env, w io.Writer) error {
	report.Section(w, "Extension: few-shot prompting on syntax_error (SDSS)")
	fmt.Fprintf(w, "%-12s %18s %18s\n", "Model", "zero-shot F1", "few-shot F1")
	for _, model := range env.Models {
		c := cell{task: core.SyntaxTask.TaskID, model: model, ds: core.SDSS}
		zero, err := env.summary(c)
		if err != nil {
			return err
		}
		c.tpl = fewShot
		few, err := env.summary(c)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %18.2f %18.2f", model, zero.F1, few.F1)
		if zero.Failed > 0 {
			fmt.Fprintf(w, "  zero-shot failed %d", zero.Failed)
		}
		if few.Failed > 0 {
			fmt.Fprintf(w, "  few-shot failed %d", few.Failed)
		}
		fmt.Fprintln(w)
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

// prTable renders a detection task's paper table (Tables 3, 4, 6 and 7):
// binary P/R/F1 per model × dataset and, when types is set, the
// support-weighted type scores below it.
func prTable[E, R any](t *core.TaskDef[E, R], section string, types bool) func(*Env, io.Writer) error {
	return func(env *Env, w io.Writer) error {
		report.Section(w, section)
		datasets := t.DatasetNames
		if err := env.warm(t.TaskID, datasets); err != nil {
			return err
		}
		binary := map[string]map[string]report.PRF{}
		typed := map[string]map[string]report.PRF{}
		for _, model := range env.Models {
			binary[model] = map[string]report.PRF{}
			typed[model] = map[string]report.PRF{}
			for _, ds := range datasets {
				res, err := typedResults[R](env, cell{task: t.TaskID, model: model, ds: ds})
				if err != nil {
					return err
				}
				binary[model][ds] = report.FromBinary(core.Confusion(res, t.Score))
				if types {
					mc := core.TypeScores(res, t.Score)
					typed[model][ds] = report.PRF{
						Prec: mc.WeightedPrecision(), Rec: mc.WeightedRecall(), F1: mc.WeightedF1(),
					}
				}
			}
		}
		report.MetricTable(w, t.Name, datasets, env.Models, binary)
		if types {
			report.MetricTable(w, t.Name+"_type (weighted)", datasets, env.Models, typed)
		}
		return nil
	}
}

// fnRateFigure renders the FN rate per true class of a detection task, one
// bar group per dataset and model (Figures 7 and 9).
func fnRateFigure[E, R any](t *core.TaskDef[E, R], section string, classes []string) func(*Env, io.Writer) error {
	return func(env *Env, w io.Writer) error {
		report.Section(w, section)
		if err := env.warm(t.TaskID, t.DatasetNames); err != nil {
			return err
		}
		for _, ds := range t.DatasetNames {
			fmt.Fprintf(w, "--- %s ---\n", ds)
			for _, model := range env.Models {
				res, err := typedResults[R](env, cell{task: t.TaskID, model: model, ds: ds})
				if err != nil {
					return err
				}
				report.RateBars(w, model, classes, core.FNRateByClass(res, t.Score))
			}
		}
		return nil
	}
}

// classNames lists a figure's classes in the paper's order.
func classNames[C ~string](cs []C) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = string(c)
	}
	return out
}

// panel is one failure panel: a query property per outcome of one model's
// cell.
type panel struct {
	title     string
	model, ds string
	property  func(analyze.Properties) float64
}

// The query properties the failure panels plot.
func wordCount(p analyze.Properties) float64      { return float64(p.WordCount) }
func predicateCount(p analyze.Properties) float64 { return float64(p.PredicateCount) }
func nestedness(p analyze.Properties) float64     { return float64(p.Nestedness) }
func tableCount(p analyze.Properties) float64     { return float64(p.TableCount) }
func columnCount(p analyze.Properties) float64    { return float64(p.ColumnCount) }

// panelFigure renders a failure-analysis figure: each panel breaks one
// cell's property down by detection outcome (Figures 6, 8 and 10-12). A
// panel's cell runs on first use; its examples fan out across the worker
// budget on their own, and a figure reads at most three cells.
func panelFigure[E, R any](t *core.TaskDef[E, R], section string, panels []panel) func(*Env, io.Writer) error {
	return func(env *Env, w io.Writer) error {
		report.Section(w, section)
		for _, p := range panels {
			res, err := typedResults[R](env, cell{task: t.TaskID, model: p.model, ds: p.ds})
			if err != nil {
				return err
			}
			report.OutcomePanel(w, p.title, core.Breakdown(res, t.Score, p.property))
		}
		return nil
	}
}

func runTable5(env *Env, w io.Writer) error {
	report.Section(w, "Table 5: MAE and Hit Rate for miss_token_loc")
	if err := env.warm(core.TokensTask.TaskID, core.TaskDatasets); err != nil {
		return err
	}
	cells := map[string]map[string]report.LocRow{}
	for _, model := range env.Models {
		cells[model] = map[string]report.LocRow{}
		for _, ds := range core.TaskDatasets {
			res, err := typedResults[core.TokenResult](env, cell{task: core.TokensTask.TaskID, model: model, ds: ds})
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

func runCaseStudy(env *Env, w io.Writer) error {
	report.Section(w, "Section 4.5 case study: query explanation")
	if err := env.warm(core.ExplainTask.TaskID, []string{core.Spider}); err != nil {
		return err
	}
	results := make([][]core.ExplainResult, len(env.Models))
	for m, model := range env.Models {
		res, err := typedResults[core.ExplainResult](env, cell{task: core.ExplainTask.TaskID, model: model, ds: core.Spider})
		if err != nil {
			return err
		}
		results[m] = res
	}
	// The four pinned case-study queries lead the Spider workload. A
	// partial-failure cell lacks its failed examples, so each query finds
	// its result by example ID.
	n := 4
	if len(env.Bench.Explain) < n {
		n = len(env.Bench.Explain)
	}
	for i := 0; i < n; i++ {
		ex := env.Bench.Explain[i]
		fmt.Fprintf(w, "Q%d: %s\n", 15+i, ex.SQL)
		fmt.Fprintf(w, "  reference: %s\n", ex.Description)
		for m, model := range env.Models {
			r, ok := explainResult(results[m], ex.ID)
			if !ok {
				fmt.Fprintf(w, "  %-10s (failed)\n", model)
				continue
			}
			fmt.Fprintf(w, "  %-10s (coverage %.2f): %s\n", model, r.Coverage, r.Explanation)
		}
		fmt.Fprintln(w)
	}
	// A partial-failure mean covers only the graded results, so a model's
	// line says how many queries failed.
	fmt.Fprintf(w, "Mean fact coverage over all %d Spider queries:\n", len(env.Bench.Explain))
	for _, model := range env.Models {
		s, err := env.Summary(core.ExplainTask.TaskID, model, core.Spider)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-10s %.3f", model, s.Accuracy)
		if s.Failed > 0 {
			fmt.Fprintf(w, "  (%d failed)", s.Failed)
		}
		fmt.Fprintln(w)
	}
	// Superlative misreads (the Q18 failure mode) per model.
	fmt.Fprintln(w, "\nSuperlative direction misreads (ORDER BY ... LIMIT 1 queries):")
	for m, model := range env.Models {
		var total, wrong int
		for _, r := range results[m] {
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

// explainResult finds the result of one example in a cell.
func explainResult(res []core.ExplainResult, id string) (core.ExplainResult, bool) {
	for i := range res {
		if res[i].Example.ID == id {
			return res[i], true
		}
	}
	return core.ExplainResult{}, false
}
