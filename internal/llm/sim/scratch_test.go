package sim

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
)

// derivedFacts is every fact Knowledge derives from one text.
type derivedFacts struct {
	syntax  syntaxFacts
	missing missingFacts
	perf    perfFacts
	explain explainFacts
}

func deriveAll(k *Knowledge, sql string) derivedFacts {
	return derivedFacts{k.syntaxFacts(sql), k.missingFacts(sql), k.perfFacts(sql), k.explainFacts(sql)}
}

// TestConcurrentFactsMatchSequential derives the facts of seed-1 cell
// texts on four goroutines at once, each over a fresh Knowledge and its own
// rotation of the texts, and requires every fact to equal the one a
// sequential derivation gives. The goroutines share the lexer's token
// buffers and the repair search's scratch through their free lists, so a
// buffer held by two derivations at once, or one still holding an earlier
// text's tokens or memo, shows as a differing fact or, under -race, a race.
func TestConcurrentFactsMatchSequential(t *testing.T) {
	b, err := core.Build(core.BuildConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const perCell = 40
	var texts []string
	var pairs [][2]string
	for _, ds := range core.TaskDatasets {
		for i, ex := range b.Syntax[ds] {
			if i < perCell {
				texts = append(texts, ex.SQL)
			}
		}
		for i, ex := range b.Tokens[ds] {
			if i < perCell {
				texts = append(texts, ex.SQL)
			}
		}
		for i, ex := range b.Equiv[ds] {
			if i < perCell {
				pairs = append(pairs, [2]string{ex.SQL1, ex.SQL2})
			}
		}
	}
	for i, ex := range b.Perf {
		if i < perCell {
			texts = append(texts, ex.SQL)
		}
	}
	schemas := b.SchemasByDataset()

	seq := NewKnowledge(schemas)
	want := make([]derivedFacts, len(texts))
	for i, sql := range texts {
		want[i] = deriveAll(seq, sql)
	}
	wantEquiv := make([]equivFacts, len(pairs))
	for i, p := range pairs {
		wantEquiv[i] = seq.equivFacts(p[0], p[1])
	}

	const workers = 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := NewKnowledge(schemas)
			for j := range texts {
				i := (j + g*len(texts)/workers) % len(texts)
				if got := deriveAll(k, texts[i]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("worker %d, %q: facts %+v, want %+v", g, texts[i], got, want[i])
					return
				}
			}
			for j := range pairs {
				i := (j + g*len(pairs)/workers) % len(pairs)
				if got := k.equivFacts(pairs[i][0], pairs[i][1]); got != wantEquiv[i] {
					t.Errorf("worker %d, pair %d: facts %+v, want %+v", g, i, got, wantEquiv[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
