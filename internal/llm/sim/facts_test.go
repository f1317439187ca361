package sim

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/runner"
)

// promptCollector records every prompt a task run sends and answers with
// an empty response.
type promptCollector struct {
	mu      sync.Mutex
	prompts []string
}

func (c *promptCollector) Name() string { return "collector" }

func (c *promptCollector) Do(_ context.Context, req llm.Request) (llm.Response, error) {
	c.mu.Lock()
	c.prompts = append(c.prompts, req.UserPrompt())
	c.mu.Unlock()
	return llm.Response{}, nil
}

// cellPrompts renders the first perCell examples of every registered task
// cell of a seed-1 benchmark, plus the knowledge its simulators resolve
// against.
func cellPrompts(t testing.TB, perCell int) (*core.Benchmark, []string) {
	t.Helper()
	b, err := core.Build(core.BuildConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := runner.WithParallelism(context.Background(), 1)
	c := &promptCollector{}
	for _, task := range core.Tasks() {
		for _, ds := range task.Datasets() {
			examples, _ := task.Cell(b, ds)
			if len(examples) > perCell {
				examples = examples[:perCell]
			}
			if err := task.RunStreamOpts(ctx, c, examples, core.RunOpts{}, func(int, any, error) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b, c.prompts
}

// answerAll answers every prompt with each of the five models over k, in
// model-major order.
func answerAll(t *testing.T, k *Knowledge, prompts []string) [][]string {
	t.Helper()
	out := make([][]string, len(llm.ModelNames))
	for i, name := range llm.ModelNames {
		m, err := New(name, k)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = make([]string, len(prompts))
		for j, p := range prompts {
			out[i][j] = m.answer(p)
		}
	}
	return out
}

func compareAnswers(t *testing.T, what string, got, want [][]string, prompts []string) {
	t.Helper()
	bad := 0
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] && bad < 5 {
				bad++
				t.Errorf("%s: %s on %q:\ngot  %q\nwant %q", what, llm.ModelNames[i], prompts[j], got[i][j], want[i][j])
			}
		}
	}
}

// Facts served from the cache answer exactly as freshly derived ones.
func TestFactCachesColdWarm(t *testing.T) {
	b, prompts := cellPrompts(t, 60)
	k := NewKnowledge(b.SchemasByDataset())
	cold := answerAll(t, k, prompts)
	if k.facts.syntax.Len() == 0 || k.facts.missing.Len() == 0 || k.facts.perf.Len() == 0 ||
		k.facts.explain.Len() == 0 || k.facts.equiv.Len() == 0 {
		t.Fatal("a fact cache stayed empty: the prompts do not reach every fact kind")
	}
	warm := answerAll(t, k, prompts)
	compareAnswers(t, "warm vs cold", warm, cold, prompts)
}

// With a 2-entry cap nearly every lookup misses; evicted facts must
// recompute to the same answers.
func TestFactCachesEvictionRecomputes(t *testing.T) {
	b, prompts := cellPrompts(t, 20)
	want := answerAll(t, NewKnowledge(b.SchemasByDataset()), prompts)
	k := NewKnowledge(b.SchemasByDataset())
	k.facts.setLimit(2)
	got := answerAll(t, k, prompts)
	compareAnswers(t, "2-entry cap", got, want, prompts)
	for name, ev := range map[string]int64{
		"syntax": k.facts.syntax.Evictions(), "missing": k.facts.missing.Evictions(),
		"perf": k.facts.perf.Evictions(), "explain": k.facts.explain.Evictions(),
		"equiv": k.facts.equiv.Evictions(),
	} {
		if ev == 0 {
			t.Errorf("%s cache never evicted under a 2-entry cap", name)
		}
	}
}

// Eight goroutines each driving all five models over one shared Knowledge
// answer exactly as a serial run does (run under -race to check the caches).
func TestFactCachesConcurrent(t *testing.T) {
	b, prompts := cellPrompts(t, 20)
	want := answerAll(t, NewKnowledge(b.SchemasByDataset()), prompts)
	k := NewKnowledge(b.SchemasByDataset())
	const goroutines = 8
	got := make([][][]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([][]string, len(llm.ModelNames))
			for i := range llm.ModelNames {
				// Start each goroutine on a different model and prompt so
				// misses on one key race with hits on others.
				mi := (i + g) % len(llm.ModelNames)
				m, err := New(llm.ModelNames[mi], k)
				if err != nil {
					t.Error(err)
					return
				}
				out[mi] = make([]string, len(prompts))
				for j := range prompts {
					pj := (j + g*len(prompts)/goroutines) % len(prompts)
					out[mi][pj] = m.answer(prompts[pj])
				}
			}
			got[g] = out
		}(g)
	}
	wg.Wait()
	for g := range got {
		if got[g] != nil {
			compareAnswers(t, "concurrent", got[g], want, prompts)
		}
	}
}
