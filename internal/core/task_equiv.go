package core

import (
	"time"

	"repro/internal/llm"
	"repro/internal/prompt"
	"repro/internal/respparse"
)

// EquivResult is one model prediction on an EquivExample.
type EquivResult struct {
	Example   EquivExample
	PredEquiv bool
	PredType  string
	Response  string
	Usage     llm.Usage
	Latency   time.Duration
}

// EquivTask is the query_equiv / query_equiv_type registry entry.
var EquivTask = &TaskDef[EquivExample, EquivResult]{
	TaskID:      "equiv",
	Name:        "query_equiv",
	Description: "Decide whether two queries always return the same results, and classify the rewrite.",
	TaskSkills:  equivSkills,
	PromptTask:  prompt.QueryEquiv,
	Pair:        true,

	DatasetNames:   TaskDatasets,
	DefaultDataset: SDSS,
	Cell:           func(b *Benchmark, ds string) []EquivExample { return b.Equiv[ds] },

	ExampleID:  func(ex EquivExample) string { return ex.ID },
	ExampleSQL: func(ex EquivExample) []string { return []string{ex.SQL1, ex.SQL2} },
	AdHoc: func(id string, sql []string) (EquivExample, error) {
		return EquivExample{ID: id, SQL1: sql[0], SQL2: sql[1]}, nil
	},

	Render: func(tpl prompt.Template, ex EquivExample) string { return tpl.RenderPair(ex.SQL1, ex.SQL2) },
	Grade:  gradeEquiv,

	View: func(r EquivResult, labeled bool) ResultView {
		v := ResultView{
			ID: r.Example.ID, SQL: r.Example.SQL1, SQL2: r.Example.SQL2,
			Response: r.Response, Usage: r.Usage, Latency: r.Latency,
		}
		v.Fields = append(v.Fields, Field{"pred_equivalent", r.PredEquiv})
		if r.PredType != "" {
			v.Fields = append(v.Fields, Field{"pred_equiv_type", r.PredType})
		}
		if labeled {
			v.Fields = append(v.Fields, Field{"want_equivalent", r.Example.Equivalent})
			if r.Example.Type != "" {
				v.Fields = append(v.Fields, Field{"want_equiv_type", string(r.Example.Type)})
			}
			v.Correct = boolp(r.PredEquiv == r.Example.Equivalent)
		}
		return v
	},
	// Type scores count every pair, equivalent or not.
	Score: func(r *EquivResult) Score {
		return Score{
			Credit: credit(r.PredEquiv == r.Example.Equivalent),
			Detect: true, Truth: r.Example.Equivalent, Pred: r.PredEquiv,
			Typed: true, Class: string(r.Example.Type), PredClass: statedClass(true, r.PredType),
			Props: &r.Example.Props,
		}
	},
}

// gradeEquiv post-processes one response into an EquivResult.
func gradeEquiv(ex EquivExample, resp llm.Response) EquivResult {
	verdict, perr := respparse.ParseEquiv(resp.Text)
	if perr != nil {
		verdict = respparse.EquivVerdict{}
	}
	return EquivResult{
		Example:   ex,
		PredEquiv: verdict.Equivalent,
		PredType:  verdict.Type,
		Response:  resp.Text,
		Usage:     resp.Usage,
		Latency:   resp.Latency,
	}
}
