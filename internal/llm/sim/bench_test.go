package sim

import (
	"math"
	"testing"

	"repro/internal/llm"
)

// answerSink keeps the benchmarked answers observable.
var answerSink string

// BenchmarkSimAnswer answers every seed-1 cell prompt with all five models
// over a fresh Knowledge per iteration, so each fact is derived cold once
// and then shared, as in a cold paper regeneration.
func BenchmarkSimAnswer(b *testing.B) {
	bench, prompts := cellPrompts(b, math.MaxInt)
	schemas := bench.SchemasByDataset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := NewKnowledge(schemas)
		for _, name := range llm.ModelNames {
			m, err := New(name, k)
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range prompts {
				answerSink = m.answer(p)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(prompts)*len(llm.ModelNames)), "us/answer")
}

// BenchmarkSimAnswerCached times the per-call path alone: every seed-1
// cell prompt answered by all five models over a Knowledge one untimed
// pass has warmed, so no fact is derived inside the timed loop.
func BenchmarkSimAnswerCached(b *testing.B) {
	bench, prompts := cellPrompts(b, math.MaxInt)
	k := NewKnowledge(bench.SchemasByDataset())
	models := make([]*Model, len(llm.ModelNames))
	for i, name := range llm.ModelNames {
		m, err := New(name, k)
		if err != nil {
			b.Fatal(err)
		}
		models[i] = m
		for _, p := range prompts {
			answerSink = m.answer(p)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range models {
			for _, p := range prompts {
				answerSink = m.answer(p)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(prompts)*len(models)), "us/answer")
}
