package engine_test

// A golden guard over grouped evaluation: every workload SELECT of seeds 1
// and 2 that groups or aggregates anywhere (subqueries included), plus the
// rewrite its equivalence pair was built from, runs on the equivalence
// checker's two verification instances, and one SHA-256 per seed pins each
// result's rows or error text. The metamorphic checks relate a query's
// results to its variants' on one evaluator, so a change that moves every
// variant alike, as a change in how grouped expressions evaluate can, passes
// them; this digest does not.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
)

// corpusMaxRows caps intermediate results on the verification instances:
// rewrites that drop a join condition leave comma joins of up to a dozen
// 24-row tables disconnected, and a cap far below the default million rows
// stops their cross products early.
const corpusMaxRows = 5000

func TestGroupedCorpusGolden(t *testing.T) {
	for _, c := range []struct {
		seed int64
		want string
	}{
		{1, "fb141ac14fd9ba0e681ea3b727ec7566a0cb7c97e87cf8cc58738982c8f8b4ec"},
		{2, "8a58532c43c54bf1903c425ed5e33fee3979117d4eab2f54b6d8c45861c32588"},
	} {
		runs, digest := groupedCorpusDigest(t, c.seed)
		t.Logf("seed %d: %d grouped statement runs, digest %s", c.seed, runs, digest)
		if digest != c.want {
			t.Errorf("seed %d: grouped corpus digest %s, want %s", c.seed, digest, c.want)
		}
	}
}

// groupedCorpusDigest hashes the results of the seed's grouped statements
// and reports how many statement runs went into the hash.
func groupedCorpusDigest(t *testing.T, seed int64) (int, string) {
	t.Helper()
	bench, err := core.Build(core.BuildConfig{Seed: seed, VerifyEquivalences: true})
	if err != nil {
		t.Fatalf("building the seed-%d benchmark: %v", seed, err)
	}
	names := make([]string, 0, len(bench.Workloads))
	for ds := range bench.Workloads {
		names = append(names, ds)
	}
	sort.Strings(names)
	h := sha256.New()
	runs := 0
	for _, ds := range names {
		w := bench.Workloads[ds]
		rewrites := make(map[string]string, len(bench.Equiv[ds]))
		for _, ex := range bench.Equiv[ds] {
			rewrites[ex.SQL1] = ex.SQL2
		}
		var stmts []*sqlast.SelectStmt
		for _, q := range w.Queries {
			sel, ok := q.Stmt.(*sqlast.SelectStmt)
			if !ok || !groups(sel) {
				continue
			}
			stmts = append(stmts, sel)
			if sql2, ok := rewrites[q.SQL]; ok {
				rw, err := sqlparse.ParseSelect(sql2)
				if err != nil {
					t.Fatalf("%s: rewrite of %s does not parse: %v", ds, q.ID, err)
				}
				stmts = append(stmts, rw)
			}
		}
		for _, inst := range []int64{11, 29} {
			e := engine.New(datagen.Instance(w.Schema, datagen.Config{Seed: inst, Rows: 24}))
			e.MaxRows = corpusMaxRows
			for i, sel := range stmts {
				fmt.Fprintf(h, "%s %d #%d\n", ds, inst, i)
				rel, err := e.Query(sel)
				runs++
				if err != nil {
					fmt.Fprintf(h, "error: %v\n", err)
					continue
				}
				for _, row := range rel.Rows {
					h.Write([]byte(engine.FormatRow(row)))
					h.Write([]byte{'\n'})
				}
			}
		}
	}
	return runs, hex.EncodeToString(h.Sum(nil))
}

// groups reports whether a statement has a GROUP BY or an aggregate call in
// any of its query blocks.
func groups(sel *sqlast.SelectStmt) bool {
	found := false
	sqlast.Walk(sel, func(n sqlast.Node) bool {
		switch t := n.(type) {
		case *sqlast.SelectStmt:
			found = found || len(t.GroupBy) > 0
		case *sqlast.FuncCall:
			found = found || sqlast.IsAggregate(t.Name)
		}
		return !found
	})
	return found
}
