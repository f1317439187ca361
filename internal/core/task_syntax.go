package core

import (
	"time"

	"repro/internal/llm"
	"repro/internal/prompt"
	"repro/internal/respparse"
)

// SyntaxResult is one model prediction on a SyntaxExample.
type SyntaxResult struct {
	Example  SyntaxExample
	PredHas  bool
	PredType string
	Response string
	Usage    llm.Usage
	Latency  time.Duration
}

// SyntaxTask is the syntax_error / syntax_error_type registry entry.
var SyntaxTask = &TaskDef[SyntaxExample, SyntaxResult]{
	TaskID:      "syntax",
	Name:        "syntax_error",
	Description: "Detect whether a query contains a syntax or semantic error and name the error type.",
	TaskSkills:  syntaxSkills,
	PromptTask:  prompt.SyntaxError,

	DatasetNames:   TaskDatasets,
	DefaultDataset: SDSS,
	Cell:           func(b *Benchmark, ds string) []SyntaxExample { return b.Syntax[ds] },

	ExampleID:  func(ex SyntaxExample) string { return ex.ID },
	ExampleSQL: func(ex SyntaxExample) []string { return []string{ex.SQL} },
	AdHoc: func(id string, sql []string) (SyntaxExample, error) {
		return SyntaxExample{ID: id, SQL: sql[0]}, nil
	},

	Render: func(tpl prompt.Template, ex SyntaxExample) string { return tpl.Render(ex.SQL) },
	Grade:  gradeSyntax,

	View: func(r SyntaxResult, labeled bool) ResultView {
		v := ResultView{
			ID: r.Example.ID, SQL: r.Example.SQL,
			Response: r.Response, Usage: r.Usage, Latency: r.Latency,
		}
		v.Fields = append(v.Fields, Field{"pred_has_error", r.PredHas})
		if r.PredType != "" {
			v.Fields = append(v.Fields, Field{"pred_error_type", r.PredType})
		}
		if labeled {
			v.Fields = append(v.Fields, Field{"want_has_error", r.Example.HasError})
			if r.Example.Type != "" {
				v.Fields = append(v.Fields, Field{"want_error_type", string(r.Example.Type)})
			}
			v.Correct = boolp(r.PredHas == r.Example.HasError)
		}
		return v
	},
	// Type scores count only the injected-error positives: the paper
	// scores type identification on detected errors.
	Score: func(r *SyntaxResult) Score {
		return Score{
			Credit: credit(r.PredHas == r.Example.HasError),
			Detect: true, Truth: r.Example.HasError, Pred: r.PredHas,
			Typed: r.Example.HasError, Class: string(r.Example.Type), PredClass: statedClass(r.PredHas, r.PredType),
			Props: &r.Example.Props,
		}
	},
}

// gradeSyntax post-processes one response into a SyntaxResult.
func gradeSyntax(ex SyntaxExample, resp llm.Response) SyntaxResult {
	verdict, perr := respparse.ParseSyntax(resp.Text)
	if perr != nil {
		// Unparseable output counts as "no error claimed", mirroring the
		// paper's conservative manual post-processing.
		verdict = respparse.SyntaxVerdict{}
	}
	return SyntaxResult{
		Example:  ex,
		PredHas:  verdict.HasError,
		PredType: verdict.ErrorType,
		Response: resp.Text,
		Usage:    resp.Usage,
		Latency:  resp.Latency,
	}
}
