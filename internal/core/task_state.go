package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/llm"
	"repro/internal/prompt"
	"repro/internal/respparse"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
)

// The state task is the DML/transaction-understanding family: given a
// self-contained script (CREATE, INSERTs, then UPDATE/DELETE/INSERT
// statements, some inside BEGIN..COMMIT or BEGIN..ROLLBACK blocks), the model
// must state the table's final contents. Ground truth comes from executing
// the script with engine.RunScript at benchmark build time, so grading is
// a pure row-set comparison here.

// StateResult is one model state-tracking attempt on a StateExample.
type StateResult struct {
	Example   StateExample
	Pred      []string // predicted rows, canonical form, response order
	PredEmpty bool     // the response claimed an empty table
	Parsed    bool     // false when no verdict could be extracted
	Response  string
	Usage     llm.Usage
	Latency   time.Duration
}

// stateCorrect is the task's correctness criterion: the predicted row
// multiset must equal the labeled final contents exactly (order-free), and
// an empty table must be claimed as empty.
func stateCorrect(r StateResult) bool {
	if !r.Parsed {
		return false
	}
	if len(r.Example.Want) == 0 {
		return r.PredEmpty && len(r.Pred) == 0
	}
	if r.PredEmpty || len(r.Pred) != len(r.Example.Want) {
		return false
	}
	pred := append([]string{}, r.Pred...)
	sort.Strings(pred)
	for i, w := range r.Example.Want {
		if pred[i] != w {
			return false
		}
	}
	return true
}

// scriptTable recovers the target table of an ad-hoc script: the table its
// last CREATE TABLE names, the one engine.RunScript reports.
func scriptTable(script string) (string, error) {
	stmts, err := sqlparse.ParseAll(script)
	if err != nil {
		return "", fmt.Errorf("parsing script: %w", err)
	}
	table := ""
	for _, s := range stmts {
		if ct, ok := s.(*sqlast.CreateTableStmt); ok {
			table = ct.Name
		}
	}
	if table == "" {
		return "", fmt.Errorf("script contains no CREATE TABLE statement")
	}
	return table, nil
}

// StateTask is the table_state registry entry — the seventh task, registered
// without any serve/experiments/report dispatch changes.
var StateTask = &TaskDef[StateExample, StateResult]{
	TaskID:      "state",
	Name:        "table_state",
	Description: "Given a DML/transaction script, state the final contents of the table.",
	TaskSkills:  stateSkills,
	PromptTask:  prompt.TableState,

	DatasetNames:   TaskDatasets,
	DefaultDataset: SDSS,
	Cell: func(b *Benchmark, ds string) []StateExample {
		return append([]StateExample{}, b.State[ds]...)
	},

	ExampleID:  func(ex StateExample) string { return ex.ID },
	ExampleSQL: func(ex StateExample) []string { return []string{ex.Script} },
	AdHoc: func(id string, sql []string) (StateExample, error) {
		table, err := scriptTable(sql[0])
		if err != nil {
			return StateExample{}, err
		}
		return StateExample{ID: id, Script: sql[0], Table: table}, nil
	},

	Render: func(tpl prompt.Template, ex StateExample) string { return tpl.Render(ex.Script) },
	Grade:  gradeState,

	View: func(r StateResult, labeled bool) ResultView {
		v := ResultView{
			ID: r.Example.ID, SQL: r.Example.Script,
			Response: r.Response, Usage: r.Usage, Latency: r.Latency,
		}
		v.Fields = append(v.Fields, Field{"pred_empty", r.PredEmpty})
		if len(r.Pred) > 0 {
			v.Fields = append(v.Fields, Field{"pred_rows", strings.Join(r.Pred, " ")})
		}
		if labeled {
			v.Fields = append(v.Fields, Field{"want_rows", strings.Join(r.Example.Want, " ")})
			v.Correct = boolp(stateCorrect(r))
		}
		return v
	},
	// Exact final-contents match; no meaningful binary PRF.
	Score: func(r *StateResult) Score { return Score{Credit: credit(stateCorrect(*r))} },
}

// gradeState post-processes one response into a StateResult.
func gradeState(ex StateExample, resp llm.Response) StateResult {
	r := StateResult{
		Example:  ex,
		Response: resp.Text,
		Usage:    resp.Usage,
		Latency:  resp.Latency,
	}
	verdict, err := respparse.ParseState(resp.Text)
	if err == nil {
		r.Parsed = true
		r.Pred = verdict.Rows
		r.PredEmpty = verdict.Empty
	}
	return r
}
