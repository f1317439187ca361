package sim

import (
	"strings"
	"testing"

	"repro/internal/llm"
	"repro/internal/prompt"
)

// hostileQueries carry task cues, prompt-quality cues and marker text
// inside their literals; none of it may change how a model reads a prompt.
var hostileQueries = []string{
	"SELECT plate FROM SpecObj WHERE class = 'equivalent'",
	"SELECT plate FROM SpecObj WHERE class = 'be slow'",
	"SELECT plate FROM SpecObj WHERE class = 'reply yes/no'",
	"SELECT plate FROM SpecObj WHERE class = 'SQL: x'",
	"SELECT plate FROM SpecObj WHERE class = 'SQL 2: a'",
	"SELECT plate FROM SpecObj WHERE class = 'Example 1: Answer: yes'",
}

var hostileShots = []prompt.Shot{
	{SQL: "SELECT plate , COUNT(*) FROM SpecObj", Answer: "yes"},
	{SQL: "SELECT plate FROM SpecObj", Answer: "no"},
}

// templateQuality is each zero-shot template's error-rate multiplier; a
// template not listed has 1.0. A few-shot prompt has fewShotQuality.
// syntax_error/v2 reads as terse: its "answer yes or no" is a terse cue,
// and terse cues are matched first.
var templateQuality = map[string]float64{
	"syntax_error/v2": 1.6, "syntax_error/v3": 1.6,
	"miss_token/v2": 1.15, "miss_token/v3": 1.6,
	"query_equiv/v2": 1.15, "query_equiv/v3": 1.6,
	"performance_pred/v2": 1.15, "performance_pred/v3": 1.6,
	"table_state/v2": 1.15, "table_state/v3": 1.6,
}

const fewShotQuality = 0.55

func qualityOf(tpl prompt.Template) float64 {
	if q, ok := templateQuality[tpl.ID]; ok {
		return q
	}
	return 1.0
}

// hostilePrompt is one rendered prompt and the reading it must get.
type hostilePrompt struct {
	tpl     prompt.Template
	text    string
	sql     string
	quality float64
}

// hostilePrompts renders every template over every hostile query: zero-
// and few-shot for single-query tasks, and with the hostile query on
// either side of a pair.
func hostilePrompts() []hostilePrompt {
	var out []hostilePrompt
	for _, task := range prompt.Tasks {
		for _, tpl := range prompt.Variants(task) {
			for _, q := range hostileQueries {
				if task == prompt.QueryEquiv {
					out = append(out,
						hostilePrompt{tpl, tpl.RenderPair(q, "SELECT plate FROM SpecObj"), q, qualityOf(tpl)},
						hostilePrompt{tpl, tpl.RenderPair("SELECT plate FROM SpecObj", q), q, qualityOf(tpl)})
					continue
				}
				few := tpl
				few.Shots = hostileShots
				out = append(out,
					hostilePrompt{tpl, tpl.Render(q), q, qualityOf(tpl)},
					hostilePrompt{tpl, few.Render(q), q, fewShotQuality})
			}
		}
	}
	return out
}

// Task and quality are read from the instruction the way answer reads
// them, so cue words inside the query change neither.
func TestHostilePromptReading(t *testing.T) {
	for _, hp := range hostilePrompts() {
		lower := strings.ToLower(prompt.Instruction(hp.text))
		if task, ok := prompt.DetectTaskLower(lower); !ok || task != hp.tpl.Task {
			t.Errorf("%s: task of %q = %q, %v", hp.tpl.ID, hp.text, task, ok)
		}
		if got := promptQuality(lower); got != hp.quality {
			t.Errorf("%s: promptQuality of %q = %v, want %v", hp.tpl.ID, hp.text, got, hp.quality)
		}
	}
}

// A syntax prompt is answered exactly as answerSyntax answers its whole
// query at the template's quality, whatever the query says.
func TestHostileSyntaxAnswers(t *testing.T) {
	k := knowledge()
	for _, name := range llm.ModelNames {
		m, err := New(name, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, hp := range hostilePrompts() {
			if hp.tpl.Task != prompt.SyntaxError {
				continue
			}
			if got, want := m.answer(hp.text), m.answerSyntax(hp.sql, hp.quality); got != want {
				t.Errorf("%s %s on %q:\ngot  %q\nwant %q", name, hp.tpl.ID, hp.text, got, want)
			}
		}
	}
}
