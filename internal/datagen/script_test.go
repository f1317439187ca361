package datagen

import (
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
)

func TestGenScriptRoundTripsAndExecutes(t *testing.T) {
	schema := catalog.SDSS()
	r := rand.New(rand.NewSource(42))
	tables := schema.Tables()
	for i := 0; i < 200; i++ {
		donor := tables[i%len(tables)]
		sc := GenScript(donor, r)
		// The canonical SQL must reparse to the same statements.
		stmts, err := sqlparse.ParseAll(sc.SQL)
		if err != nil {
			t.Fatalf("script %d does not reparse: %v\n%s", i, err, sc.SQL)
		}
		if got := scriptSQL(stmts); got != sc.SQL {
			t.Fatalf("script %d not canonical:\n%s\n%s", i, sc.SQL, got)
		}
		// Exactly one CREATE TABLE, naming the script's table, and every
		// transaction block it opens is closed: BEGIN and COMMIT/ROLLBACK
		// alternate, starting with BEGIN and ending closed.
		creates, open := 0, false
		for _, st := range stmts {
			switch st := st.(type) {
			case *sqlast.CreateTableStmt:
				creates++
				if st.Name != sc.Table {
					t.Fatalf("script %d creates %q, want %q\n%s", i, st.Name, sc.Table, sc.SQL)
				}
			case *sqlast.TxnStmt:
				if opens := st.Kind == "BEGIN"; opens == open {
					t.Fatalf("script %d: unpaired %s\n%s", i, st.Kind, sc.SQL)
				}
				open = !open
			}
		}
		if creates != 1 || open {
			t.Fatalf("script %d: %d CREATE TABLEs, block left open %v\n%s", i, creates, open, sc.SQL)
		}
		// And it executes cleanly.
		if _, err := engine.RunScript(stmts); err != nil {
			t.Fatalf("script %d does not execute: %v\n%s", i, err, sc.SQL)
		}
	}
}

func TestGenScriptDeterministic(t *testing.T) {
	schema := catalog.SDSS()
	donor := schema.Tables()[0]
	a := GenScript(donor, rand.New(rand.NewSource(7)))
	b := GenScript(donor, rand.New(rand.NewSource(7)))
	if a.SQL != b.SQL {
		t.Fatal("same seed produced different scripts")
	}
}
