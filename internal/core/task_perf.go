package core

import (
	"time"

	"repro/internal/llm"
	"repro/internal/prompt"
	"repro/internal/respparse"
)

// PerfResult is one model prediction on a PerfExample.
type PerfResult struct {
	Example    PerfExample
	PredCostly bool
	Response   string
	Usage      llm.Usage
	Latency    time.Duration
}

// PerfTask is the performance_pred registry entry (SDSS-only, as in the
// paper).
var PerfTask = &TaskDef[PerfExample, PerfResult]{
	TaskID:      "perf",
	Name:        "performance_pred",
	Description: "Predict whether a query takes longer than usual to run.",
	TaskSkills:  perfSkills,
	PromptTask:  prompt.PerfPred,

	DatasetNames:   []string{SDSS},
	DefaultDataset: SDSS,
	Cell:           func(b *Benchmark, ds string) []PerfExample { return b.Perf },

	ExampleID:  func(ex PerfExample) string { return ex.ID },
	ExampleSQL: func(ex PerfExample) []string { return []string{ex.SQL} },
	AdHoc: func(id string, sql []string) (PerfExample, error) {
		return PerfExample{ID: id, SQL: sql[0]}, nil
	},

	Render: func(tpl prompt.Template, ex PerfExample) string { return tpl.Render(ex.SQL) },
	Grade:  gradePerf,

	View: func(r PerfResult, labeled bool) ResultView {
		v := ResultView{
			ID: r.Example.ID, SQL: r.Example.SQL,
			Response: r.Response, Usage: r.Usage, Latency: r.Latency,
		}
		v.Fields = append(v.Fields, Field{"pred_costly", r.PredCostly})
		if labeled {
			v.Fields = append(v.Fields, Field{"want_costly", r.Example.Costly})
			v.Correct = boolp(r.PredCostly == r.Example.Costly)
		}
		return v
	},
	Score: func(r *PerfResult) Score {
		return Score{
			Credit: credit(r.PredCostly == r.Example.Costly),
			Detect: true, Truth: r.Example.Costly, Pred: r.PredCostly,
			Props: &r.Example.Props,
		}
	},
}

// gradePerf post-processes one response into a PerfResult.
func gradePerf(ex PerfExample, resp llm.Response) PerfResult {
	costly, perr := respparse.ParsePerf(resp.Text)
	if perr != nil {
		costly = false
	}
	return PerfResult{
		Example: ex, PredCostly: costly, Response: resp.Text,
		Usage: resp.Usage, Latency: resp.Latency,
	}
}
