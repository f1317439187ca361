package core

import (
	"strings"
	"time"

	"repro/internal/analyze"
	"repro/internal/llm"
	"repro/internal/mutate"
	"repro/internal/prompt"
	"repro/internal/respparse"
)

// The fill task is the paper's missing-token variant taken one step
// further: instead of only classifying kind and position, the model must
// recover the deleted token text itself. Its labeled cells derive directly
// from the miss_token datasets (same damaged queries, same ground truth),
// so it costs no benchmark-build changes — it is exactly the "registry
// entry + task file" proof the Task API is designed for.

// FillExample is one labeled query for the fill_token task: a possibly
// damaged statement plus the deleted token's ground truth.
type FillExample struct {
	ID       string
	SQL      string // possibly damaged
	Missing  bool
	Removed  string           // the deleted token's text; "" when intact
	Kind     mutate.TokenKind // "" when intact
	Position int              // 0-based word index; -1 when intact
	Props    analyze.Properties
}

// FillResult is one model token-recovery attempt on a FillExample.
type FillResult struct {
	Example   FillExample
	PredMiss  bool
	PredToken string
	Response  string
	Usage     llm.Usage
	Latency   time.Duration
}

// fillCorrect is the task's correctness criterion: the miss verdict must
// match, and on damaged queries the recovered token must equal the deleted
// one (case-insensitively, ignoring surrounding quotes).
func fillCorrect(r FillResult) bool {
	if r.PredMiss != r.Example.Missing {
		return false
	}
	if !r.Example.Missing {
		return true
	}
	return strings.EqualFold(strings.Trim(r.PredToken, `'"`), strings.Trim(r.Example.Removed, `'"`))
}

// FillTask is the fill_token registry entry — the sixth task, registered
// without any serve/experiments/report dispatch changes.
var FillTask = &TaskDef[FillExample, FillResult]{
	TaskID:      "fill",
	Name:        "fill_token",
	Description: "Recover the exact token deleted from a damaged query, or report the query complete.",
	TaskSkills:  fillSkills,
	PromptTask:  prompt.FillToken,

	DatasetNames:   TaskDatasets,
	DefaultDataset: SDSS,
	Cell: func(b *Benchmark, ds string) []FillExample {
		toks := b.Tokens[ds]
		out := make([]FillExample, len(toks))
		for i, t := range toks {
			out[i] = FillExample{
				ID:       strings.TrimSuffix(t.ID, "/tok") + "/fill",
				SQL:      t.SQL,
				Missing:  t.Missing,
				Removed:  t.Removed,
				Kind:     t.Kind,
				Position: t.Position,
				Props:    t.Props,
			}
		}
		return out
	},

	ExampleID:  func(ex FillExample) string { return ex.ID },
	ExampleSQL: func(ex FillExample) []string { return []string{ex.SQL} },
	AdHoc: func(id string, sql []string) (FillExample, error) {
		return FillExample{ID: id, SQL: sql[0], Position: -1}, nil
	},

	Render: func(tpl prompt.Template, ex FillExample) string { return tpl.Render(ex.SQL) },
	Grade:  gradeFill,

	View: func(r FillResult, labeled bool) ResultView {
		v := ResultView{
			ID: r.Example.ID, SQL: r.Example.SQL,
			Response: r.Response, Usage: r.Usage, Latency: r.Latency,
		}
		v.Fields = append(v.Fields, Field{"pred_missing", r.PredMiss})
		if r.PredToken != "" {
			v.Fields = append(v.Fields, Field{"pred_token", r.PredToken})
		}
		if labeled {
			v.Fields = append(v.Fields, Field{"want_missing", r.Example.Missing})
			if r.Example.Removed != "" {
				v.Fields = append(v.Fields, Field{"want_token", r.Example.Removed})
			}
			v.Correct = boolp(fillCorrect(r))
		}
		return v
	},
	// Credit is exact token recovery; the detection is the underlying
	// missing-token verdict.
	Score: func(r *FillResult) Score {
		return Score{
			Credit: credit(fillCorrect(*r)),
			Detect: true, Truth: r.Example.Missing, Pred: r.PredMiss,
			Props: &r.Example.Props,
		}
	},
}

// gradeFill post-processes one response into a FillResult.
func gradeFill(ex FillExample, resp llm.Response) FillResult {
	verdict, perr := respparse.ParseFill(resp.Text)
	if perr != nil {
		verdict = respparse.FillVerdict{}
	}
	return FillResult{
		Example:   ex,
		PredMiss:  verdict.Missing,
		PredToken: verdict.Token,
		Response:  resp.Text,
		Usage:     resp.Usage,
		Latency:   resp.Latency,
	}
}
