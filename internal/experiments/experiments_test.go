package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

// One environment for the whole package (verification off for speed).
var testEnv *Env

func env(t *testing.T) *Env {
	t.Helper()
	if testEnv == nil {
		e, err := NewEnvConfig(Config{Seed: 1})
		if err != nil {
			t.Fatalf("NewEnvConfig: %v", err)
		}
		testEnv = e
	}
	return testEnv
}

func TestRegistryComplete(t *testing.T) {
	wantIDs := []string{
		"table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5",
		"table3", "fig6", "fig7", "table4", "fig8", "fig9", "table5",
		"table6", "fig10", "table7", "fig11", "fig12", "casestudy",
		"ext-fewshot", "ext-tasks",
	}
	for _, id := range wantIDs {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s missing", id)
		}
	}
	if len(All()) != len(wantIDs) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(wantIDs))
	}
	if _, ok := ByID("nosuch"); ok {
		t.Error("ByID(nosuch) should fail")
	}
}

// Every registered experiment must run cleanly and produce output.
func TestAllExperimentsRun(t *testing.T) {
	e := env(t)
	for _, exp := range All() {
		var buf bytes.Buffer
		if err := exp.Run(e, &buf); err != nil {
			t.Fatalf("%s: %v", exp.ID, err)
		}
		if buf.Len() < 40 {
			t.Errorf("%s produced only %d bytes", exp.ID, buf.Len())
		}
	}
}

// A warm render reads memoized cells only: after one pass over every
// artifact, a second pass issues no model request and renders the same
// bytes.
func TestWarmRendersCallNoModel(t *testing.T) {
	e := env(t)
	requests := func() int64 {
		var n int64
		for _, m := range e.Models {
			n += e.Stats.Model(m).Requests.Load()
		}
		return n
	}
	render := func() []string {
		out := make([]string, 0, len(All()))
		for _, exp := range All() {
			var buf bytes.Buffer
			if err := exp.Run(e, &buf); err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			out = append(out, buf.String())
		}
		return out
	}
	cold := render()
	before := requests()
	warm := render()
	if added := requests() - before; added != 0 {
		t.Errorf("warm pass issued %d model requests, want 0", added)
	}
	for i, exp := range All() {
		if warm[i] != cold[i] {
			t.Errorf("%s: warm render differs from the first", exp.ID)
		}
	}
}

// Determinism: running the same experiment twice yields identical bytes.
func TestExperimentsDeterministic(t *testing.T) {
	e := env(t)
	for _, id := range []string{"table3", "table6", "table7", "fig5", "fig7"} {
		exp, _ := ByID(id)
		var a, b bytes.Buffer
		if err := exp.Run(e, &a); err != nil {
			t.Fatal(err)
		}
		if err := exp.Run(e, &b); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("%s output differs across runs", id)
		}
	}
}

// The headline finding must reproduce: GPT4's F1 tops every dataset column
// of table 3, and Gemini ranks last.
func TestTable3HeadlineShape(t *testing.T) {
	e := env(t)
	for _, ds := range []string{"SDSS", "SQLShare", "Join-Order"} {
		f1 := map[string]float64{}
		for _, model := range e.Models {
			res, err := typedResults[core.SyntaxResult](e, cell{task: core.SyntaxTask.TaskID, model: model, ds: ds})
			if err != nil {
				t.Fatal(err)
			}
			f1[model] = core.Confusion(res, core.SyntaxTask.Score).F1()
		}
		for model, v := range f1 {
			if model == "GPT4" {
				continue
			}
			if v > f1["GPT4"]+1e-9 {
				t.Errorf("%s: %s F1 %.3f beats GPT4's %.3f", ds, model, v, f1["GPT4"])
			}
		}
		if f1["Gemini"] > f1["GPT3.5"] || f1["Gemini"] > f1["MistralAI"] {
			t.Errorf("%s: Gemini F1 %.3f is not last (gpt3.5 %.3f, mistral %.3f)",
				ds, f1["Gemini"], f1["GPT3.5"], f1["MistralAI"])
		}
	}
}

// Figure 5's output must show the bimodal split with an empty mid-band.
func TestFig5Bimodal(t *testing.T) {
	e := env(t)
	exp, _ := ByID("fig5")
	var buf bytes.Buffer
	if err := exp.Run(e, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, band := range []string{"100-200", "200-300", "300-400", "400-500"} {
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, band) && !strings.Contains(line, "   0  ") {
				t.Errorf("mid band %s not empty: %s", band, line)
			}
		}
	}
}

// Recall exceeds precision in performance_pred for every model except
// possibly Gemini — the paper's positive-bias takeaway.
func TestPerfPositiveBias(t *testing.T) {
	e := env(t)
	biased := 0
	for _, model := range e.Models {
		res, err := typedResults[core.PerfResult](e, cell{task: core.PerfTask.TaskID, model: model, ds: core.SDSS})
		if err != nil {
			t.Fatal(err)
		}
		var tp, fp, fn int
		for _, r := range res {
			switch {
			case r.Example.Costly && r.PredCostly:
				tp++
			case !r.Example.Costly && r.PredCostly:
				fp++
			case r.Example.Costly && !r.PredCostly:
				fn++
			}
		}
		prec := float64(tp) / float64(tp+fp)
		rec := float64(tp) / float64(tp+fn)
		if rec > prec {
			biased++
		}
	}
	if biased < 3 {
		t.Errorf("only %d/5 models show positive bias; paper reports it as general", biased)
	}
}
