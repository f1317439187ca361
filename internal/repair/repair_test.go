package repair

import (
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/mutate"
	"repro/internal/sqllex"
	"repro/internal/sqlparse"
	"repro/internal/workload/sdss"
)

func TestDetectCleanQuery(t *testing.T) {
	schema := catalog.SDSS()
	res := Detect("SELECT plate FROM SpecObj WHERE z > 0.5", schema)
	if res.Found {
		t.Errorf("clean query flagged: %+v", res)
	}
}

func TestDetectMissingKeyword(t *testing.T) {
	schema := catalog.SDSS()
	// "FROM" removed.
	res := Detect("SELECT plate SpecObj WHERE z > 0.5", schema)
	if !res.Found {
		t.Fatal("missing FROM not found")
	}
	if res.Kind != mutate.TokKeyword {
		t.Errorf("kind = %s, want keyword (inserted %q)", res.Kind, res.Inserted)
	}
}

func TestDetectMissingComparison(t *testing.T) {
	schema := catalog.SDSS()
	res := Detect("SELECT plate FROM SpecObj WHERE z 0.5", schema)
	if !res.Found {
		t.Fatal("missing comparison not found")
	}
	if res.Kind != mutate.TokComparison {
		t.Errorf("kind = %s, want comparison", res.Kind)
	}
	if res.WordIndex < 4 || res.WordIndex > 6 {
		t.Errorf("word index = %d, want near 5-6", res.WordIndex)
	}
}

func TestDetectMissingValue(t *testing.T) {
	schema := catalog.SDSS()
	res := Detect("SELECT plate FROM SpecObj WHERE z >", schema)
	if !res.Found {
		t.Fatal("missing value not found")
	}
	// The repair inserts an identifier or value at the end; either reading
	// is plausible, but it must be found near the tail.
	if res.WordIndex < 4 {
		t.Errorf("word index = %d, want near tail", res.WordIndex)
	}
}

func TestDetectGarbage(t *testing.T) {
	schema := catalog.SDSS()
	res := Detect("'unterminated", schema)
	if !res.Found {
		t.Error("lex-level damage should report found")
	}
}

// Property: across the SDSS workload, the detector finds the vast majority
// of parse-breaking removals and never flags intact queries.
func TestDetectorAccuracyOverWorkload(t *testing.T) {
	w := sdss.Generate(1)
	r := rand.New(rand.NewSource(21))
	var removals, found, kindRight int
	var falseAlarms int
	for _, q := range w.Queries[:120] {
		if res := Detect(q.SQL, w.Schema); res.Found {
			falseAlarms++
		}
		for _, kind := range mutate.TokenKinds {
			rem, ok := mutate.RemoveToken(q.SQL, q.Stmt, kind, r)
			if !ok {
				continue
			}
			removals++
			res := Detect(rem.SQL, w.Schema)
			if res.Found {
				found++
				if res.Kind == kind {
					kindRight++
				}
			}
		}
	}
	if falseAlarms != 0 {
		t.Errorf("false alarms on intact queries: %d", falseAlarms)
	}
	if removals == 0 {
		t.Fatal("no removals")
	}
	foundRate := float64(found) / float64(removals)
	if foundRate < 0.80 {
		t.Errorf("detector found %.2f of removals, want >= 0.80", foundRate)
	}
	kindRate := float64(kindRight) / float64(found)
	if kindRate < 0.5 {
		t.Errorf("kind accuracy %.2f, want >= 0.5", kindRate)
	}
	t.Logf("detector: found %.3f, kind accuracy %.3f over %d removals", foundRate, kindRate, removals)
}

// BenchmarkRepairDetect runs Detect over the seed-1 miss_token inputs, one
// query per iteration: lexing, the parse, and the candidate search around
// the failure point.
func BenchmarkRepairDetect(b *testing.B) {
	bench, err := core.Build(core.BuildConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	schema := mergedSchema(bench)
	var inputs []string
	for _, ds := range core.TaskDatasets {
		for _, ex := range bench.Tokens[ds] {
			inputs = append(inputs, ex.SQL)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Detect(inputs[i%len(inputs)], schema)
	}
}

// BenchmarkRepairSearch runs the candidate search alone over the seed-1
// miss_token inputs that fail to parse, one query per iteration, lexed and
// located beforehand: the number isolates repairAt from lexing, the first
// parse and the semantic-gap path that BenchmarkRepairDetect also covers.
func BenchmarkRepairSearch(b *testing.B) {
	bench, err := core.Build(core.BuildConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	type failing struct {
		sql  string
		toks []sqllex.Token
		fail int
	}
	var inputs []failing
	for _, ds := range core.TaskDatasets {
		for _, ex := range bench.Tokens[ds] {
			toks, err := sqllex.LexWords(ex.SQL)
			if err != nil || len(toks) == 0 {
				continue
			}
			if _, perr := sqlparse.ParseStatementTokens(toks); perr != nil {
				inputs = append(inputs, failing{ex.SQL, toks, failureIndex(perr, toks)})
			}
		}
	}
	if len(inputs) == 0 {
		b.Fatal("no failing inputs")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := inputs[i%len(inputs)]
		searchSink = repairAt(in.sql, in.toks, in.fail)
	}
}

// searchSink keeps the benchmarked repairs observable.
var searchSink Result
