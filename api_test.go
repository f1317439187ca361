package repro_test

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"repro"
)

func TestFacadeLists(t *testing.T) {
	if got := repro.Models(); len(got) != 5 || got[0] != "GPT4" {
		t.Errorf("Models = %v", got)
	}
	if got := repro.Datasets(); len(got) != 3 {
		t.Errorf("Datasets = %v", got)
	}
	exps := repro.Experiments()
	if len(exps) < 20 {
		t.Errorf("Experiments = %d, want >= 20", len(exps))
	}
	title, ok := repro.ExperimentTitle("table3")
	if !ok || !strings.Contains(title, "syntax_error") {
		t.Errorf("ExperimentTitle(table3) = %q, %v", title, ok)
	}
	if _, ok := repro.ExperimentTitle("nosuch"); ok {
		t.Error("ExperimentTitle(nosuch) should fail")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	bench, err := repro.BuildBenchmark(1, false)
	if err != nil {
		t.Fatal(err)
	}
	reg := repro.NewSimRegistry(bench)
	client, err := reg.Get("MistralAI")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	syn, err := repro.RunSyntaxTask(ctx, client, bench, "SQLShare")
	if err != nil {
		t.Fatal(err)
	}
	if len(syn) != len(bench.Syntax["SQLShare"]) {
		t.Errorf("syntax results = %d", len(syn))
	}
	if _, err := repro.RunSyntaxTask(ctx, client, bench, "NoSuch"); err == nil {
		t.Error("unknown dataset should fail")
	}
	pf, err := repro.RunPerfTask(ctx, client, bench)
	if err != nil || len(pf) != 285 {
		t.Fatalf("perf task: %v (%d)", err, len(pf))
	}
	for _, c := range []struct {
		task, dataset string
		want          int
	}{
		{"tokens", "SDSS", len(bench.Tokens["SDSS"])},
		{"equiv", "Join-Order", len(bench.Equiv["Join-Order"])},
		{"explain", "", 200},
		{"fill", "SQLShare", len(bench.Tokens["SQLShare"])},
	} {
		views, err := repro.RunTask(ctx, client, bench, c.task, c.dataset)
		if err != nil || len(views) == 0 || len(views) != c.want {
			t.Fatalf("%s task: %v (%d results, want %d)", c.task, err, len(views), c.want)
		}
	}
	if _, err := repro.RunTask(ctx, client, bench, "fill", "NoSuch"); err == nil {
		t.Error("unknown fill dataset should fail")
	}
}

func TestFacadeRunExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := repro.RunExperiment("table1", &buf, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Recognition") {
		t.Errorf("table1 output = %q", buf.String())
	}
	// An unknown id fails before any benchmark is built.
	allocs := testing.AllocsPerRun(1, func() {
		if err := repro.RunExperiment("nosuch", io.Discard, 1); err == nil {
			t.Error("unknown experiment should fail")
		}
	})
	if allocs > 1000 {
		t.Errorf("RunExperiment(nosuch) allocated %.0f times, want <= 1000: it built the benchmark before checking the id", allocs)
	}
}
