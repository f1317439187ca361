package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/analyze"
	"repro/internal/equiv"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/workload"
	"repro/internal/workload/joborder"
	"repro/internal/workload/sdss"
	"repro/internal/workload/spider"
	"repro/internal/workload/sqlshare"
)

// TestKeptTreesMatchText checks what lets the build work from the trees the
// generators keep instead of re-parsing their text: over seeds 1-3, every
// workload query's properties are the same computed from its kept tree as
// from its text, and every equivalence transform of every workload SELECT
// prints SQL that parses to a tree that prints the same.
func TestKeptTreesMatchText(t *testing.T) {
	gens := map[string]func(int64) *workload.Workload{
		SDSS: sdss.Generate, SQLShare: sqlshare.Generate,
		JoinOrder: joborder.Generate, Spider: spider.Generate,
	}
	types := append(equiv.EquivTypes(), equiv.NonEquivTypes()...)
	for seed := int64(1); seed <= 3; seed++ {
		for name, gen := range gens {
			w := gen(seed)
			r := rand.New(rand.NewSource(seed))
			transforms := 0
			for _, q := range w.Queries {
				if q.Stmt == nil {
					t.Fatalf("seed %d: %s kept no tree", seed, q.ID)
				}
				if got, want := analyze.ComputeStmt(q.Stmt, q.SQL), analyze.Compute(q.SQL); !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d: %s: ComputeStmt = %+v, Compute = %+v", seed, q.ID, got, want)
				}
				sel, ok := q.Stmt.(*sqlast.SelectStmt)
				if !ok {
					continue
				}
				for _, typ := range types {
					out, ok := equiv.Transform(sel, typ, r)
					if !ok {
						continue
					}
					transforms++
					printed := sqlast.Print(out)
					back, err := sqlparse.ParseSelect(printed)
					if err != nil {
						t.Errorf("seed %d: %s %s: %q does not parse: %v", seed, q.ID, typ, printed, err)
						continue
					}
					if again := sqlast.Print(back); again != printed {
						t.Errorf("seed %d: %s %s: printed\n  %s\nparses to a tree that prints\n  %s", seed, q.ID, typ, printed, again)
					}
				}
			}
			if transforms == 0 {
				t.Errorf("seed %d: %s: no transform applied", seed, name)
			}
		}
	}
}
