package prompt

import (
	"strings"
	"testing"
)

func TestRenderAndExtract(t *testing.T) {
	tpl := Default(SyntaxError)
	q := "SELECT plate FROM SpecObj WHERE z > 0.5"
	p := tpl.Render(q)
	got, ok := ExtractQuery(p)
	if !ok || got != q {
		t.Errorf("ExtractQuery = %q, %v", got, ok)
	}
}

func TestRenderPairAndExtract(t *testing.T) {
	tpl := Default(QueryEquiv)
	q1 := "SELECT a FROM t"
	q2 := "SELECT a FROM t WHERE 1 = 1"
	p := tpl.RenderPair(q1, q2)
	g1, g2, ok := ExtractQueryPair(p)
	if !ok || g1 != q1 || g2 != q2 {
		t.Errorf("ExtractQueryPair = %q, %q, %v", g1, g2, ok)
	}
}

func TestDetectTaskAllVariants(t *testing.T) {
	for _, task := range Tasks {
		for _, tpl := range Variants(task) {
			var rendered string
			if task == QueryEquiv {
				rendered = tpl.RenderPair("SELECT 1", "SELECT 2")
			} else {
				rendered = tpl.Render("SELECT 1")
			}
			got, ok := detectTask(rendered)
			if !ok || got != task {
				t.Errorf("detectTask(%s) = %q, %v", tpl.ID, got, ok)
			}
		}
	}
}

func TestDetectTaskUnknown(t *testing.T) {
	if _, ok := detectTask("What is the capital of France?"); ok {
		t.Error("detected a task in unrelated text")
	}
}

func TestVariantsPerTask(t *testing.T) {
	for _, task := range Tasks {
		vs := Variants(task)
		if len(vs) < 3 {
			t.Errorf("task %s has %d variants, want >= 3", task, len(vs))
		}
		if vs[0].ID != Default(task).ID {
			t.Errorf("Default(%s) is not the first variant", task)
		}
		seen := map[string]bool{}
		for _, v := range vs {
			if seen[v.ID] {
				t.Errorf("duplicate variant id %s", v.ID)
			}
			seen[v.ID] = true
			if v.Task != task {
				t.Errorf("variant %s has task %s", v.ID, v.Task)
			}
		}
	}
}

func TestExtractQueryMissingMarker(t *testing.T) {
	if _, ok := ExtractQuery("no marker here"); ok {
		t.Error("extracted query without marker")
	}
	if _, _, ok := ExtractQueryPair("no markers"); ok {
		t.Error("extracted pair without markers")
	}
}

// A template with shots renders a few-shot prompt: the instruction, the
// worked examples, then the target query.
func TestRenderFewShot(t *testing.T) {
	tpl := Default(SyntaxError)
	tpl.Shots = []Shot{
		{SQL: "SELECT a , COUNT(*) FROM t", Answer: "yes; aggr-attr"},
		{SQL: "SELECT a FROM t", Answer: "no error"},
	}
	target := "SELECT b FROM u WHERE c > 1"
	p := tpl.Render(target)
	want := tpl.Text + "\n" +
		"\nExample 1:\nSQL: SELECT a , COUNT(*) FROM t\nAnswer: yes; aggr-attr\n" +
		"\nExample 2:\nSQL: SELECT a FROM t\nAnswer: no error\n" +
		"\nNow the real query.\n\nSQL: " + target
	if p != want {
		t.Errorf("few-shot prompt =\n%q\nwant\n%q", p, want)
	}
	// The target query must be the one extracted (examples come first).
	got, ok := ExtractQuery(p)
	if !ok || got != target {
		t.Errorf("ExtractQuery = %q, %v", got, ok)
	}
	if !strings.Contains(p, "Example 1:") || !strings.Contains(p, "Example 2:") {
		t.Errorf("examples missing from %q", p)
	}
	if task, ok := detectTask(p); !ok || task != SyntaxError {
		t.Errorf("detectTask = %v, %v", task, ok)
	}
}

func TestPaperPromptWording(t *testing.T) {
	// The default prompts must carry the paper's published wording.
	if !strings.Contains(Default(PerfPred).Text, "longer than usual") {
		t.Error("performance prompt diverged from the paper")
	}
	if !strings.Contains(Default(MissToken).Text, "word count position") {
		t.Error("miss_token prompt diverged from the paper")
	}
	if !strings.Contains(Default(QueryExp).Text, "single statement describing") {
		t.Error("query_exp prompt diverged from the paper")
	}
}

// hostileQueries carry task cues, prompt-quality cues and marker text
// inside their literals. None of it may change how a prompt is read.
var hostileQueries = []string{
	"SELECT plate FROM SpecObj WHERE class = 'equivalent'",
	"SELECT plate FROM SpecObj WHERE class = 'be slow'",
	"SELECT plate FROM SpecObj WHERE class = 'reply yes/no'",
	"SELECT plate FROM SpecObj WHERE note = 'SQL: x'",
	"SELECT plate FROM SpecObj WHERE note = 'SQL 2: a'",
	"SELECT plate FROM SpecObj WHERE note = 'Example 1: Answer: yes'",
}

// fewShots are benign worked examples for the few-shot renders.
var fewShots = []Shot{
	{SQL: "SELECT a , COUNT(*) FROM t", Answer: "yes"},
	{SQL: "SELECT a FROM t", Answer: "no"},
}

func TestHostileQueriesSingle(t *testing.T) {
	for _, task := range Tasks {
		if task == QueryEquiv {
			continue
		}
		for _, tpl := range Variants(task) {
			few := tpl
			few.Shots = fewShots
			for _, q := range hostileQueries {
				for _, p := range []string{tpl.Render(q), few.Render(q)} {
					if got, ok := detectTask(p); !ok || got != task {
						t.Errorf("%s: detectTask(%q) = %q, %v", tpl.ID, p, got, ok)
					}
					if got, ok := ExtractQuery(p); !ok || got != q {
						t.Errorf("%s: ExtractQuery(%q) = %q, %v", tpl.ID, p, got, ok)
					}
					if _, _, ok := ExtractQueryPair(p); ok {
						t.Errorf("%s: ExtractQueryPair(%q) found a pair", tpl.ID, p)
					}
				}
			}
		}
	}
}

func TestHostileQueriesPair(t *testing.T) {
	benign := "SELECT plate FROM SpecObj"
	for _, tpl := range Variants(QueryEquiv) {
		for _, q := range hostileQueries {
			for _, pair := range [][2]string{{q, benign}, {benign, q}, {q, q}} {
				p := tpl.RenderPair(pair[0], pair[1])
				if got, ok := detectTask(p); !ok || got != QueryEquiv {
					t.Errorf("%s: detectTask(%q) = %q, %v", tpl.ID, p, got, ok)
				}
				q1, q2, ok := ExtractQueryPair(p)
				if !ok || q1 != pair[0] || q2 != pair[1] {
					t.Errorf("%s: ExtractQueryPair(%q) = %q, %q, %v", tpl.ID, p, q1, q2, ok)
				}
				if _, ok := ExtractQuery(p); ok {
					t.Errorf("%s: ExtractQuery(%q) found a single query", tpl.ID, p)
				}
			}
		}
	}
}

func TestInstruction(t *testing.T) {
	tpl := Default(SyntaxError)
	q := "SELECT plate FROM SpecObj WHERE note = 'x\n\nSQL: y'"
	if got := Instruction(tpl.Render(q)); got != tpl.Text {
		t.Errorf("Instruction(Render) = %q, want %q", got, tpl.Text)
	}
	few := tpl
	few.Shots = fewShots
	p := few.Render(q)
	if got, want := Instruction(p), strings.TrimSuffix(p, "\n\nSQL: "+q); got != want || got == p {
		t.Errorf("Instruction(few-shot Render) = %q, want %q", got, want)
	}
	eq := Default(QueryEquiv)
	if got := Instruction(eq.RenderPair(q, q)); got != eq.Text {
		t.Errorf("Instruction(RenderPair) = %q, want %q", got, eq.Text)
	}
	if got := Instruction("no marker here"); got != "no marker here" {
		t.Errorf("Instruction(no marker) = %q", got)
	}
}

// A first query holding a line that starts "SQL 2: " is the one input the
// pair markers cannot tell apart from the second query.
func TestExtractQueryPairAmbiguousLine(t *testing.T) {
	p := Default(QueryEquiv).RenderPair("SELECT 'a\nSQL 2: b'", "SELECT 1")
	if q1, _, ok := ExtractQueryPair(p); !ok || q1 != "SELECT 'a" {
		t.Errorf("ExtractQueryPair = %q, %v; want the split at the embedded line", q1, ok)
	}
}

// detectTask is DetectTaskLower over a whole rendered prompt, as the
// simulated models call it.
func detectTask(promptText string) (Task, bool) {
	return DetectTaskLower(strings.ToLower(Instruction(promptText)))
}
