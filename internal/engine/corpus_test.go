package engine_test

// The optimizer's byte-identity contract over the benchmark's own SQL: every
// workload SELECT of the task datasets, plus one rewrite per equivalence and
// non-equivalence transform type, runs on the equivalence checker's
// verification instances through the optimized engine and the unoptimized
// oracle, which must agree on error text, columns, rows and row order.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

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
