package core

import (
	"time"

	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/prompt"
	"repro/internal/respparse"
)

// TokenResult is one model prediction on a TokenExample.
type TokenResult struct {
	Example  TokenExample
	PredMiss bool
	PredKind string
	PredPos  int // 0-based; -1 when absent
	Response string
	Usage    llm.Usage
	Latency  time.Duration
}

// TokensTask is the miss_token / miss_token_type / miss_token_loc registry
// entry.
var TokensTask = &TaskDef[TokenExample, TokenResult]{
	TaskID:      "tokens",
	Name:        "miss_token",
	Description: "Decide whether a token was deleted from a query, and report its kind and word position.",
	TaskSkills:  tokenSkills,
	PromptTask:  prompt.MissToken,

	DatasetNames:   TaskDatasets,
	DefaultDataset: SDSS,
	Cell:           func(b *Benchmark, ds string) []TokenExample { return b.Tokens[ds] },

	ExampleID:  func(ex TokenExample) string { return ex.ID },
	ExampleSQL: func(ex TokenExample) []string { return []string{ex.SQL} },
	AdHoc: func(id string, sql []string) (TokenExample, error) {
		return TokenExample{ID: id, SQL: sql[0], Position: -1}, nil
	},

	Render: func(tpl prompt.Template, ex TokenExample) string { return tpl.Render(ex.SQL) },
	Grade:  gradeTokens,

	View: func(r TokenResult, labeled bool) ResultView {
		v := ResultView{
			ID: r.Example.ID, SQL: r.Example.SQL,
			Response: r.Response, Usage: r.Usage, Latency: r.Latency,
		}
		v.Fields = append(v.Fields, Field{"pred_missing", r.PredMiss})
		if r.PredKind != "" {
			v.Fields = append(v.Fields, Field{"pred_kind", r.PredKind})
		}
		v.Fields = append(v.Fields, Field{"pred_position", r.PredPos})
		if labeled {
			v.Fields = append(v.Fields, Field{"want_missing", r.Example.Missing})
			if r.Example.Kind != "" {
				v.Fields = append(v.Fields, Field{"want_kind", string(r.Example.Kind)})
			}
			v.Fields = append(v.Fields, Field{"want_position", r.Example.Position})
			v.Correct = boolp(r.PredMiss == r.Example.Missing)
		}
		return v
	},
	// Type scores count only the damaged queries.
	Score: func(r *TokenResult) Score {
		return Score{
			Credit: credit(r.PredMiss == r.Example.Missing),
			Detect: true, Truth: r.Example.Missing, Pred: r.PredMiss,
			Typed: r.Example.Missing, Class: string(r.Example.Kind), PredClass: statedClass(r.PredMiss, r.PredKind),
			Props: &r.Example.Props,
		}
	},
}

// gradeTokens post-processes one response into a TokenResult.
func gradeTokens(ex TokenExample, resp llm.Response) TokenResult {
	verdict, perr := respparse.ParseMissToken(resp.Text)
	if perr != nil {
		verdict = respparse.MissTokenVerdict{Position: -1}
	}
	return TokenResult{
		Example:  ex,
		PredMiss: verdict.Missing,
		PredKind: verdict.Kind,
		PredPos:  verdict.Position,
		Response: resp.Text,
		Usage:    resp.Usage,
		Latency:  resp.Latency,
	}
}

// EvalTokenLocation computes MAE and hit rate over detected positives
// (Table 5) — the one measurement the generic scores do not carry.
func EvalTokenLocation(results []TokenResult) metrics.Location {
	var loc metrics.Location
	for _, r := range results {
		if !r.Example.Missing || !r.PredMiss || r.PredPos < 0 {
			continue
		}
		loc.Add(r.Example.Position, r.PredPos)
	}
	return loc
}
