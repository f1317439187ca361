package core

import (
	"time"

	"repro/internal/llm"
	"repro/internal/nlgen"
	"repro/internal/prompt"
	"repro/internal/respparse"
	"repro/internal/sqlparse"
)

// ExplainResult is one model explanation with its coverage score.
type ExplainResult struct {
	Example     ExplainExample
	Explanation string
	Coverage    float64 // fraction of reference facts mentioned
	Usage       llm.Usage
	Latency     time.Duration
}

// ExplainTask is the query_exp registry entry (Spider-only, as in the
// paper). Its grading is continuous — fact coverage — so results carry no
// binary correctness verdict.
var ExplainTask = &TaskDef[ExplainExample, ExplainResult]{
	TaskID:      "explain",
	Name:        "query_exp",
	Description: "Explain in one sentence what a query returns; graded by reference-fact coverage.",
	TaskSkills:  explainSkills,
	PromptTask:  prompt.QueryExp,

	DatasetNames:   []string{Spider},
	DefaultDataset: Spider,
	Cell:           func(b *Benchmark, ds string) []ExplainExample { return b.Explain },

	ExampleID:  func(ex ExplainExample) string { return ex.ID },
	ExampleSQL: func(ex ExplainExample) []string { return []string{ex.SQL} },
	AdHoc: func(id string, sql []string) (ExplainExample, error) {
		ex := ExplainExample{ID: id, SQL: sql[0]}
		// Reference facts for ad-hoc queries come from our own parser;
		// unparseable input gets no facts and coverage is then vacuous.
		if sel, err := sqlparse.ParseSelect(sql[0]); err == nil {
			ex.Facts = nlgen.Extract(sel)
		}
		return ex, nil
	},

	Render: func(tpl prompt.Template, ex ExplainExample) string { return tpl.Render(ex.SQL) },
	Grade:  gradeExplain,

	View: func(r ExplainResult, labeled bool) ResultView {
		// The response is the explanation itself, so it rides as a field and
		// the raw-response slot stays empty.
		v := ResultView{
			ID: r.Example.ID, SQL: r.Example.SQL,
			Usage: r.Usage, Latency: r.Latency,
		}
		if r.Explanation != "" {
			v.Fields = append(v.Fields, Field{"explanation", r.Explanation})
		}
		v.Fields = append(v.Fields, Field{"coverage", r.Coverage})
		return v
	},
	Score: func(r *ExplainResult) Score { return Score{Credit: r.Coverage, Props: &r.Example.Props} },
}

// gradeExplain post-processes one response into an ExplainResult.
func gradeExplain(ex ExplainExample, resp llm.Response) ExplainResult {
	expl := respparse.ParseExplanation(resp.Text)
	return ExplainResult{
		Example:     ex,
		Explanation: expl,
		Coverage:    nlgen.Coverage(expl, ex.Facts),
		Usage:       resp.Usage,
		Latency:     resp.Latency,
	}
}
