package repair

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/mutate"
	"repro/internal/sqlast"
	"repro/internal/sqllex"
	"repro/internal/sqlparse"
)

// detectOracle is Detect as it was before token splicing: every candidate
// insertion is re-joined into text and parsed from scratch.
func detectOracle(sql string, schema *catalog.Schema) Result {
	toks, err := sqllex.LexWords(sql)
	if err != nil || len(toks) == 0 {
		return Result{Found: true, Kind: mutate.TokValue, WordIndex: 0, Inserted: "?"}
	}
	stmt, perr := sqlparse.ParseStatement(sql)
	if perr != nil {
		return repairAtOracle(sql, toks, failureIndex(perr, toks))
	}
	return detectSemanticGap(sql, toks, stmt, schema)
}

// repairAtOracle is the string-rebuild repairAt.
func repairAtOracle(sql string, toks []sqllex.Token, fail int) Result {
	texts := make([]string, len(toks))
	for i, t := range toks {
		texts[i] = t.Text
	}
	lo := fail - 3
	if lo < 0 {
		lo = 0
	}
	hi := fail + 2
	if hi > len(toks) {
		hi = len(toks)
	}
	type cand struct {
		text string
		kind mutate.TokenKind
	}
	baseCands := func(gap int) []cand {
		var out []cand
		if valueLike(toks, gap-1) && valueLike(toks, gap) {
			out = append(out, cand{"=", mutate.TokComparison})
		}
		if gap > 0 && toks[gap-1].Kind == sqllex.Op && comparisonOp(toks[gap-1].Text) {
			out = append(out, cand{"0", mutate.TokValue})
		}
		for _, kw := range keywordCandidates {
			out = append(out, cand{kw, mutate.TokKeyword})
		}
		return append(out,
			cand{"x0", mutate.TokColumn},
			cand{"0", mutate.TokValue},
			cand{"'v'", mutate.TokValue},
			cand{"=", mutate.TokComparison},
		)
	}
	for gap := lo; gap <= hi; gap++ {
		for _, c := range baseCands(gap) {
			rebuilt := insertAt(texts, gap, c.text)
			if _, err := sqlparse.ParseStatement(rebuilt); err == nil {
				kind := c.kind
				if c.kind == mutate.TokColumn {
					kind = classifyIdentGap(toks, gap)
				}
				return Result{
					Found:     true,
					Kind:      kind,
					WordIndex: wordIndexOfToken(sql, toks, gap),
					Inserted:  c.text,
				}
			}
		}
	}
	return Result{Found: true, Kind: mutate.TokKeyword, WordIndex: wordIndexOfToken(sql, toks, fail), Inserted: ""}
}

func insertAt(texts []string, gap int, tok string) string {
	parts := make([]string, 0, len(texts)+1)
	parts = append(parts, texts[:gap]...)
	parts = append(parts, tok)
	parts = append(parts, texts[gap:]...)
	return strings.Join(parts, " ")
}

// mergedSchema is the union of a benchmark's workload schemas, the schema
// the simulated models resolve against.
func mergedSchema(b *core.Benchmark) *catalog.Schema {
	byDS := b.SchemasByDataset()
	names := make([]string, 0, len(byDS))
	for ds := range byDS {
		names = append(names, ds)
	}
	sort.Strings(names)
	all := make([]*catalog.Schema, len(names))
	for i, ds := range names {
		all[i] = byDS[ds]
	}
	return catalog.Merged("knowledge", all...)
}

// input is one query the repair tests feed to Detect, with where it came
// from.
type input struct{ where, sql string }

// cellInputs returns the distinct syntax, tokens and fill inputs of b.
func cellInputs(t *testing.T, b *core.Benchmark) []input {
	var out []input
	seen := map[string]bool{}
	for _, id := range []string{"syntax", "tokens", "fill"} {
		task, ok := core.TaskByID(id)
		if !ok {
			t.Fatalf("task %s not registered", id)
		}
		for _, ds := range task.Datasets() {
			examples, _ := task.Cell(b, ds)
			for _, ex := range examples {
				sql := ex.SQL[0]
				if seen[sql] {
					continue
				}
				seen[sql] = true
				out = append(out, input{id + " " + ex.ID, sql})
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no cell inputs")
	}
	return out
}

// deletionStride thins the deletion sweep over the three workloads with long
// statements: the oracle re-lexes the query for every candidate, so all
// 57.6k deletions of seed 1 take minutes. Spider's short queries are swept
// in full.
var deletionStride = map[string]int{core.SDSS: 32, core.SQLShare: 32, core.JoinOrder: 32, core.Spider: 1}

// deletionInputs returns every single-token deletion of the workload
// SELECTs of b (every deletionStride-th SELECT per workload).
func deletionInputs(t *testing.T, b *core.Benchmark) []input {
	var out []input
	for _, ds := range []string{core.SDSS, core.SQLShare, core.JoinOrder, core.Spider} {
		for i, q := range b.Workloads[ds].Queries {
			if i%deletionStride[ds] != 0 {
				continue
			}
			if _, ok := q.Stmt.(*sqlast.SelectStmt); !ok {
				continue
			}
			toks, err := sqllex.LexWords(q.SQL)
			if err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			for _, tok := range toks {
				sql := q.SQL[:tok.Pos.Offset] + q.SQL[tok.Pos.Offset+len(tok.Text):]
				out = append(out, input{fmt.Sprintf("%s without %q", q.ID, tok.Text), sql})
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no deletions")
	}
	return out
}

// TestDetectMatchesOracleOnCells compares Detect with the string-rebuild
// oracle on every syntax, tokens and fill input of seeds 1-3.
func TestDetectMatchesOracleOnCells(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three benchmarks")
	}
	for _, seed := range []int64{1, 2, 3} {
		b, err := core.Build(core.BuildConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		schema := mergedSchema(b)
		for _, in := range cellInputs(t, b) {
			if got, want := Detect(in.sql, schema), detectOracle(in.sql, schema); got != want {
				t.Errorf("seed %d %s: Detect = %+v, oracle %+v\n%s", seed, in.where, got, want, in.sql)
			}
		}
	}
}

// TestDetectMatchesOracleOnDeletions compares Detect with the oracle on
// every single-token deletion of the workload SELECTs of seed 1 (every
// deletionStride-th SELECT per workload).
func TestDetectMatchesOracleOnDeletions(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the oracle over every deletion of workload queries")
	}
	b, err := core.Build(core.BuildConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	schema := mergedSchema(b)
	for _, in := range deletionInputs(t, b) {
		if got, want := Detect(in.sql, schema), detectOracle(in.sql, schema); got != want {
			t.Errorf("%s: Detect = %+v, oracle %+v\n%s", in.where, got, want, in.sql)
		}
	}
}
