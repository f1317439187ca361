package sim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/repair"
	"repro/internal/semcheck"
	"repro/internal/sqllex"
	"repro/internal/sqlparse"
)

// lexFailing are inputs sqllex rejects, so each fact kind takes its string
// form for them.
var lexFailing = []string{
	"SELECT 'unterminated",
	"SELECT plate FROM [SpecObj",
	`SELECT "plate FROM SpecObj`,
	"SELECT plate FROM SpecObj /* open comment",
	"SELECT plate FROM SpecObj WHERE z ~ 1",
}

func TestLexFailingInputsFailToLex(t *testing.T) {
	for _, sql := range lexFailing {
		if _, err := sqllex.LexWords(sql); err == nil {
			t.Errorf("LexWords(%q) succeeded", sql)
		}
	}
}

// seedInputs returns the distinct inputs of the syntax, tokens, fill, perf
// and equiv cells of b (each side of a pair also as a single input), the
// pairs, and every other text the benchmark holds: workload queries and
// state scripts.
func seedInputs(b *core.Benchmark) (singles []string, pairs [][2]string, others []string) {
	seen := map[string]bool{}
	add := func(sql string) {
		if !seen[sql] {
			seen[sql] = true
			singles = append(singles, sql)
		}
	}
	seenPair := map[[2]string]bool{}
	for _, task := range core.Tasks() {
		for _, ds := range task.Datasets() {
			examples, _ := task.Cell(b, ds)
			for _, ex := range examples {
				switch task.ID() {
				case "syntax", "tokens", "fill", "perf":
					add(ex.SQL[0])
				case "equiv":
					add(ex.SQL[0])
					add(ex.SQL[1])
					if p := [2]string{ex.SQL[0], ex.SQL[1]}; !seenPair[p] {
						seenPair[p] = true
						pairs = append(pairs, p)
					}
				default:
					others = append(others, ex.SQL...)
				}
			}
		}
	}
	for _, w := range b.Workloads {
		for _, q := range w.Queries {
			others = append(others, q.SQL)
		}
	}
	return singles, pairs, others
}

// The string forms of each fact kind, the reference the one-lex facts are
// compared with: every helper lexes the text again.

func stringSyntaxFacts(k *Knowledge, sql string) syntaxFacts {
	f := syntaxFacts{dataset: k.detectDatasetTokens(sqllex.LexWords(sql)), words: len(sqllex.Words(sql))}
	if diags := k.checker.CheckSQL(sql); len(diags) > 0 {
		f.hasError, f.primary, f.detail = true, semcheck.Primary(diags), diags[0].Msg
	}
	return f
}

func stringMissingFacts(k *Knowledge, sql string) missingFacts {
	return missingFacts{dataset: k.detectDatasetTokens(sqllex.LexWords(sql)), words: len(sqllex.Words(sql)), det: repair.Detect(sql, k.Merged)}
}

func stringPerfFacts(k *Knowledge, sql string) perfFacts {
	props := analyze.Compute(sql)
	f := perfFacts{dataset: k.detectDatasetTokens(sqllex.LexWords(sql)), words: props.WordCount, columns: props.ColumnCount}
	if toks, err := sqllex.LexWords(sql); err == nil {
		f.big = countBigTables(toks)
	}
	return f
}

func stringEquivFacts(k *Knowledge, sql1, sql2 string) equivFacts {
	f := equivFacts{dataset: k.detectDatasetTokens(sqllex.LexWords(sql1))}
	sel1, err1 := sqlparse.ParseSelect(sql1)
	sel2, err2 := sqlparse.ParseSelect(sql2)
	if err1 != nil || err2 != nil {
		return f
	}
	f.ok = true
	f.words = len(sqllex.Words(sql1))
	f.guess = equiv.ClassifyPair(sel1, sel2)
	f.added, f.removed = equiv.DiffStats(sql1, sql2)
	f.rule = equiv.RuleEquivalent(sel1, sel2)
	return f
}

// Facts derived from one lex per text equal the facts the string forms
// derive, over every cell input of seeds 1-3 and over inputs that do not
// lex: the syntax diagnostics equal CheckSQL (including the CodeParse
// message), DetectTokens equals Detect, and DiffTokens equals DiffStats.
func TestFactsMatchStringForms(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		b, err := core.Build(core.BuildConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		k := NewKnowledge(b.SchemasByDataset())
		singles, pairs, _ := seedInputs(b)
		if len(singles) == 0 || len(pairs) == 0 {
			t.Fatalf("seed %d: %d single inputs, %d pairs", seed, len(singles), len(pairs))
		}
		good := singles[0]
		singles = append(singles, lexFailing...)
		for _, bad := range lexFailing {
			pairs = append(pairs, [2]string{bad, good}, [2]string{good, bad}, [2]string{bad, bad})
		}
		bad := 0
		fail := func(format string, args ...any) {
			if bad++; bad <= 10 {
				t.Errorf("seed %d: "+format, append([]any{seed}, args...)...)
			}
		}
		for _, sql := range singles {
			toks, lexErr := sqllex.LexWords(sql)
			if got, want := k.diagnostics(sql, toks, lexErr), k.checker.CheckSQL(sql); !reflect.DeepEqual(got, want) {
				fail("diagnostics(%q) = %v, want %v", sql, got, want)
			}
			if got, want := repair.DetectTokens(sql, toks, lexErr, k.Merged), repair.Detect(sql, k.Merged); got != want {
				fail("DetectTokens(%q) = %+v, want %+v", sql, got, want)
			}
			if got, want := k.syntaxFacts(sql), stringSyntaxFacts(k, sql); got != want {
				fail("syntaxFacts(%q) = %+v, want %+v", sql, got, want)
			}
			if got, want := k.missingFacts(sql), stringMissingFacts(k, sql); got != want {
				fail("missingFacts(%q) = %+v, want %+v", sql, got, want)
			}
			if got, want := k.perfFacts(sql), stringPerfFacts(k, sql); got != want {
				fail("perfFacts(%q) = %+v, want %+v", sql, got, want)
			}
		}
		for _, p := range pairs {
			t1, err1 := sqllex.LexWords(p[0])
			t2, err2 := sqllex.LexWords(p[1])
			if err1 == nil && err2 == nil {
				a1, r1 := equiv.DiffTokens(t1, t2)
				a2, r2 := equiv.DiffStats(p[0], p[1])
				if a1 != a2 || r1 != r2 {
					fail("DiffTokens(%q, %q) = %d, %d, want %d, %d", p[0], p[1], a1, r1, a2, r2)
				}
			}
			if got, want := k.equivFacts(p[0], p[1]), stringEquivFacts(k, p[0], p[1]); got != want {
				fail("equivFacts(%q, %q) = %+v, want %+v", p[0], p[1], got, want)
			}
		}
	}
}

// WordCount equals the length of strings.Fields on every text of seeds
// 1-3: cell inputs, workload queries and state scripts.
func TestWordCountMatchesFieldsOnSeeds(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		b, err := core.Build(core.BuildConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		singles, _, others := seedInputs(b)
		for _, s := range append(append(singles, others...), lexFailing...) {
			if got, want := sqllex.WordCount(s), len(strings.Fields(s)); got != want {
				t.Errorf("seed %d: WordCount(%q) = %d, want %d", seed, s, got, want)
			}
		}
	}
}
