package datagen

import (
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
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
		if got := ScriptSQL(stmts); got != sc.SQL {
			t.Fatalf("script %d not canonical:\n%s\n%s", i, sc.SQL, got)
		}
		// And execute cleanly against the in-memory store, closing every
		// transaction block it opens.
		db := engine.NewDB(nil)
		ms := engine.NewMemStore(db)
		if err := engine.New(db).ApplyScript(ms, stmts); err != nil {
			t.Fatalf("script %d does not execute: %v\n%s", i, err, sc.SQL)
		}
		if ms.InTxn() {
			t.Fatalf("script %d left a transaction open\n%s", i, sc.SQL)
		}
		if _, ok := db.Table(sc.Table); !ok {
			t.Fatalf("script %d left no table %q", i, sc.Table)
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
