package main

import (
	"testing"

	"repro/internal/prompt"
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
