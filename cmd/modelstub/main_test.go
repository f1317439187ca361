package main

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/prompt"
	"repro/internal/sqlparse"
)

// TestAnswerFollowsTask renders every template of every task and requires
// the stub's reply for that task.
func TestAnswerFollowsTask(t *testing.T) {
	const script = "CREATE TABLE t ( a INT ) ; INSERT INTO t VALUES ( 7 )"
	for _, task := range prompt.Tasks {
		for _, tpl := range prompt.Variants(task) {
			var got string
			switch task {
			case prompt.QueryEquiv:
				got = answer(tpl.RenderPair("SELECT 1", "SELECT 2"))
			case prompt.TableState:
				got = answer(tpl.Render(script))
			default:
				got = answer(tpl.Render("SELECT plate FROM SpecObj"))
			}
			want := replies[task]
			if task == prompt.TableState {
				want = "Final contents: ( 7 )"
			}
			if got != want {
				t.Errorf("%s: answer = %q, want %q", tpl.ID, got, want)
			}
		}
	}
}

// TestAnswerIgnoresQueryText: cue words inside the query do not change the
// task the stub answers.
func TestAnswerIgnoresQueryText(t *testing.T) {
	p := prompt.Default(prompt.SyntaxError).Render("SELECT 'equivalent' , 'be slow' FROM SpecObj")
	if got, want := answer(p), replies[prompt.SyntaxError]; got != want {
		t.Errorf("answer = %q, want the syntax reply %q", got, want)
	}
	if got := answer("What is the capital of France?"); got != replies[prompt.SyntaxError] {
		t.Errorf("unknown prompt: answer = %q, want the syntax reply", got)
	}
}

// TestStateAnswersShareOneTable: for a script that creates two tables, the
// oracle, the ad-hoc example, every simulated model and the stub all take
// the table the last CREATE TABLE names.
func TestStateAnswersShareOneTable(t *testing.T) {
	const script = "CREATE TABLE t ( a INT ) ; INSERT INTO t VALUES ( 1 ) ; " +
		"CREATE TABLE u ( b INT ) ; INSERT INTO u VALUES ( 5 ) ; INSERT INTO u VALUES ( 6 )"
	rowsOf := func(script string) string {
		stmts, err := sqlparse.ParseAll(script)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := engine.RunScript(stmts)
		if err != nil {
			t.Fatalf("RunScript(%q): %v", script, err)
		}
		out := make([]string, len(rows))
		for i, row := range rows {
			out[i] = engine.FormatRow(row)
		}
		return strings.Join(out, " ")
	}
	want := rowsOf(script)
	if want != "( 5 ) ( 6 )" {
		t.Fatalf("RunScript rows = %q, want table u's ( 5 ) ( 6 )", want)
	}
	// A simulated model that slips drops the script's last DML statement.
	slipped := rowsOf(script[:strings.LastIndex(script, " ; ")])

	ex, err := core.StateTask.AdHoc("adhoc", []string{script})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Table != "u" {
		t.Errorf("ad-hoc example table = %q, want u", ex.Table)
	}
	predicted := func(text string) string {
		return strings.Join(core.StateTask.Grade(ex, llm.Response{Text: text}).Pred, " ")
	}
	p := prompt.Default(prompt.TableState).Render(script)
	if got := predicted(answer(p)); got != want {
		t.Errorf("stub answer rows = %q, want %q", got, want)
	}
	for _, name := range llm.ModelNames {
		m, err := sim.New(name, sim.NewKnowledge(nil))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := m.Do(context.Background(), llm.NewRequest(p))
		if err != nil {
			t.Fatal(err)
		}
		if got := predicted(resp.Text); got != want && got != slipped {
			t.Errorf("%s answer rows = %q, want %q (or %q after a slip)", name, got, want, slipped)
		}
	}
}
