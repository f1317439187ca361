package engine_test

// The optimizer's byte-identity contract over the benchmark's own SQL: every
// workload SELECT of the task datasets, plus one rewrite per equivalence and
// non-equivalence transform type, runs on the equivalence checker's
// verification instances through the optimized engine and the unoptimized
// oracle, which must agree on error text, columns, rows and row order. A
// second set of queries runs the same comparison over a large instance.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/equiv"
	"repro/internal/sqlast"
)

const corpusMaxRows = 5000

func TestOptimizerDifferentialCorpus(t *testing.T) {
	bench, err := core.Build(core.BuildConfig{Seed: 1})
	if err != nil {
		t.Fatalf("building the benchmark: %v", err)
	}
	r := rand.New(rand.NewSource(1))
	types := append(equiv.EquivTypes(), equiv.NonEquivTypes()...)
	var optOps, rawOps int64
	var compared, capped int
	for _, ds := range core.TaskDatasets {
		w := bench.Workloads[ds]
		var stmts []*sqlast.SelectStmt
		for _, q := range w.Queries {
			sel, ok := q.Stmt.(*sqlast.SelectStmt)
			if !ok {
				continue
			}
			stmts = append(stmts, sel)
			for _, typ := range types {
				if out, ok := equiv.Transform(sel, typ, r); ok {
					stmts = append(stmts, out)
				}
			}
		}
		// The instance seeds and size the verified build checks pairs on.
		for _, seed := range []int64{11, 29} {
			db := datagen.Instance(w.Schema, datagen.Config{Seed: seed, Rows: 24})
			opt, raw := engine.New(db), engine.NewUnoptimized(db)
			// Rewrites that drop a join condition leave comma joins of up to
			// a dozen 24-row tables disconnected; a cap far below the default
			// million rows stops their cross products early. Pushdown can keep
			// the optimized run under a cap the oracle exceeds, so only an
			// oracle that finished, or a run both engines failed, is compared.
			opt.MaxRows, raw.MaxRows = corpusMaxRows, corpusMaxRows
			for _, sel := range stmts {
				got, gotErr := opt.Query(sel)
				want, wantErr := raw.Query(sel)
				if gotErr == nil && wantErr != nil && strings.Contains(wantErr.Error(), "row cap") {
					capped++
					continue
				}
				compared++
				if diff := resultDiff(got, want, gotErr, wantErr); diff != "" {
					t.Fatalf("%s, instance seed %d: %s\n%s", ds, seed, diff, sqlast.Print(sel))
				}
			}
			optOps += opt.Ops()
			rawOps += raw.Ops()
		}
	}
	t.Logf("%d statement runs compared, %d skipped: the oracle alone hit the row cap", compared, capped)
	if optOps >= rawOps {
		t.Errorf("optimizer did not reduce engine ops: %d optimized >= %d unoptimized", optOps, rawOps)
	}
}

// largeInputQueries cover grouped aggregation with few and many groups,
// HAVING, DISTINCT aggregates, expression group keys, DISTINCT,
// UNION/INTERSECT/EXCEPT with and without ALL, and ORDER BY before and after
// set operations, over inputs of thousands of rows.
var largeInputQueries = []string{
	"SELECT kind_id , COUNT(*) , AVG( production_year ) , MIN( title ) , MAX( production_year ) FROM title GROUP BY kind_id ORDER BY kind_id ASC",
	"SELECT production_year , COUNT(*) , SUM( kind_id ) FROM title GROUP BY production_year ORDER BY production_year ASC",
	"SELECT production_year , COUNT(*) FROM title GROUP BY production_year HAVING COUNT(*) > 3 ORDER BY COUNT(*) DESC , production_year ASC",
	"SELECT COUNT( DISTINCT production_year ) , STDEV( production_year ) , VAR( kind_id ) FROM title",
	"SELECT production_year > 1980 , COUNT(*) FROM title GROUP BY production_year > 1980 ORDER BY COUNT(*) ASC",
	"SELECT DISTINCT production_year FROM title ORDER BY production_year DESC",
	"SELECT movie_id FROM movie_companies UNION SELECT movie_id FROM movie_keyword ORDER BY movie_id ASC",
	"SELECT movie_id FROM movie_companies UNION ALL SELECT movie_id FROM movie_keyword",
	"SELECT movie_id FROM movie_companies INTERSECT SELECT movie_id FROM movie_keyword ORDER BY movie_id DESC",
	"SELECT movie_id FROM movie_companies EXCEPT SELECT movie_id FROM movie_keyword ORDER BY movie_id ASC",
	"SELECT t.kind_id , COUNT(*) FROM title AS t JOIN movie_companies AS mc ON t.id = mc.movie_id WHERE t.production_year > 1950 GROUP BY t.kind_id ORDER BY t.kind_id ASC",
}

func TestOptimizerDifferentialLargeInputs(t *testing.T) {
	db := datagen.Instance(catalog.IMDB(), datagen.Config{Seed: 21, Rows: 2500})
	opt, raw := engine.New(db), engine.NewUnoptimized(db)
	for _, sql := range largeInputQueries {
		got, gotErr := opt.QuerySQL(sql)
		want, wantErr := raw.QuerySQL(sql)
		if gotErr != nil || wantErr != nil {
			t.Fatalf("%q: optimized error %v, unoptimized error %v", sql, gotErr, wantErr)
		}
		if diff := resultDiff(got, want, nil, nil); diff != "" {
			t.Errorf("%q: %s", sql, diff)
		}
	}
}

// resultDiff describes how an optimized result differs from the oracle's,
// or returns "" when they agree exactly.
func resultDiff(got, want *engine.Relation, gotErr, wantErr error) string {
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("errors differ: optimized %v, unoptimized %v", gotErr, wantErr)
		}
		return ""
	}
	if relFingerprint(got) != relFingerprint(want) {
		return fmt.Sprintf("results differ: optimized %d rows, unoptimized %d rows", len(got.Rows), len(want.Rows))
	}
	return ""
}

func relFingerprint(rel *engine.Relation) string {
	var b strings.Builder
	for _, c := range rel.Cols {
		b.WriteString(c.Qualifier)
		b.WriteByte('.')
		b.WriteString(c.Name)
		b.WriteByte('|')
	}
	b.WriteByte('\n')
	for _, row := range rel.Rows {
		b.WriteString(engine.FormatRow(row))
		b.WriteByte('\n')
	}
	return b.String()
}
