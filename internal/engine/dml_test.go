package engine

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
)

// TestMemStoreTransactions pins MemStore's transaction semantics — the
// behaviour the state task's labels depend on. Every case starts from table
// t ( a INT , b TEXT ) holding ( 1 , 'x' ) and ( 2 , 'y' ) in a Rows slice
// with spare capacity, so an INSERT inside a transaction writes into the
// backing array the Begin snapshot shares.
func TestMemStoreTransactions(t *testing.T) {
	base := []string{"( 1 , 'x' )", "( 2 , 'y' )"}
	cases := []struct {
		name    string
		script  string                // applied with ApplyScript
		direct  func(*MemStore) error // applied instead of script when set
		wantErr string                // error substring; "" means success
		table   string                // table to inspect (default t)
		want    []string              // its final rows, sorted; nil: table absent
		inTxn   bool                  // whether a transaction is left open
	}{
		{name: "nested BEGIN errors", script: "BEGIN ; BEGIN", wantErr: "transaction already open", want: base, inTxn: true},
		{name: "COMMIT without BEGIN errors", script: "COMMIT", wantErr: "no open transaction", want: base},
		{name: "ROLLBACK without BEGIN errors", script: "ROLLBACK", wantErr: "no open transaction", want: base},
		{name: "ROLLBACK after COMMIT errors", script: "BEGIN ; COMMIT ; ROLLBACK", wantErr: "no open transaction", want: base},
		{name: "ROLLBACK undoes INSERT into spare capacity",
			script: "BEGIN ; INSERT INTO t VALUES ( 3 , 'z' ) ; ROLLBACK", want: base},
		{name: "INSERT after ROLLBACK reuses the slot",
			script: "BEGIN ; INSERT INTO t VALUES ( 3 , 'z' ) ; ROLLBACK ; INSERT INTO t VALUES ( 4 , 'w' )",
			want:   []string{"( 1 , 'x' )", "( 2 , 'y' )", "( 4 , 'w' )"}},
		{name: "ROLLBACK undoes UPDATE",
			script: "BEGIN ; UPDATE t SET b = 'q' WHERE a = 1 ; ROLLBACK", want: base},
		{name: "ROLLBACK undoes DELETE",
			script: "BEGIN ; DELETE FROM t WHERE a = 2 ; ROLLBACK", want: base},
		{name: "ROLLBACK undoes CREATE TABLE",
			script: "BEGIN ; CREATE TABLE u ( c INT ) ; INSERT INTO u VALUES ( 7 ) ; ROLLBACK", table: "u"},
		{name: "ROLLBACK undoes DROP TABLE",
			script: "BEGIN ; DROP TABLE t ; ROLLBACK", want: base},
		{name: "ROLLBACK undoes a mixed block",
			script: "BEGIN ; INSERT INTO t VALUES ( 3 , 'z' ) ; UPDATE t SET a = a + 10 ; DELETE FROM t WHERE a = 12 ; ROLLBACK",
			want:   base},
		{name: "COMMIT keeps INSERT, UPDATE and DELETE",
			script: "BEGIN ; INSERT INTO t VALUES ( 3 , 'z' ) ; UPDATE t SET b = 'q' WHERE a = 1 ; DELETE FROM t WHERE a = 2 ; COMMIT",
			want:   []string{"( 1 , 'q' )", "( 3 , 'z' )"}},
		{name: "COMMIT keeps CREATE TABLE",
			script: "BEGIN ; CREATE TABLE u ( c INT ) ; INSERT INTO u VALUES ( 7 ) ; COMMIT", table: "u",
			want: []string{"( 7 )"}},
		{name: "COMMIT keeps DROP TABLE", script: "BEGIN ; DROP TABLE t ; COMMIT"},
		{name: "auto-commit outside a block", script: "DELETE FROM t WHERE a = 1",
			want: []string{"( 2 , 'y' )"}},
		{name: "open block stays visible", script: "BEGIN ; DELETE FROM t",
			want: []string{}, inTxn: true},
		{name: "Append with too few values errors",
			direct: func(m *MemStore) error {
				return m.Append("t", [][]Value{{IntVal(3)}})
			},
			wantErr: "row arity 1", want: base},
		{name: "Append with too many values errors",
			direct: func(m *MemStore) error {
				return m.Append("t", [][]Value{{IntVal(3), TextVal("z"), IntVal(0)}})
			},
			wantErr: "row arity 3", want: base},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := NewDB(nil)
			rows := make([][]Value, 0, 8)
			rows = append(rows, []Value{IntVal(1), TextVal("x")}, []Value{IntVal(2), TextVal("y")})
			db.Put("t", &Relation{
				Cols: []Col{{Name: "a", Type: catalog.TypeInt}, {Name: "b", Type: catalog.TypeText}},
				Rows: rows,
			})
			ms := NewMemStore(db)
			var err error
			if tc.direct != nil {
				err = tc.direct(ms)
			} else {
				stmts, perr := sqlparse.ParseAll(tc.script)
				if perr != nil {
					t.Fatalf("parse %q: %v", tc.script, perr)
				}
				err = New(db).ApplyScript(ms, stmts)
			}
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error = %v, want one containing %q", err, tc.wantErr)
			}
			if ms.InTxn() != tc.inTxn {
				t.Errorf("InTxn = %v, want %v", ms.InTxn(), tc.inTxn)
			}
			table := tc.table
			if table == "" {
				table = "t"
			}
			rel, ok := db.Table(table)
			if tc.want == nil {
				if ok {
					t.Fatalf("table %s exists with %d rows, want it absent", table, len(rel.Rows))
				}
				return
			}
			if !ok {
				t.Fatalf("table %s missing", table)
			}
			got := make([]string, len(rel.Rows))
			for i, row := range rel.Rows {
				got[i] = FormatRow(row)
			}
			sort.Strings(got)
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("rows = %q, want %q", got, tc.want)
			}
		})
	}
}

// RunScript keeps only committed and auto-committed changes: a block the
// script leaves open is rolled back, and a failing statement is an error.
func TestRunScript(t *testing.T) {
	stmts, err := sqlparse.ParseAll("CREATE TABLE t ( a INT ) ; INSERT INTO t VALUES ( 1 ) ; BEGIN ; INSERT INTO t VALUES ( 2 )")
	if err != nil {
		t.Fatal(err)
	}
	db, err := RunScript(stmts)
	if err != nil {
		t.Fatal(err)
	}
	rel, ok := db.Table("t")
	if !ok || len(rel.Rows) != 1 || FormatRow(rel.Rows[0]) != "( 1 )" {
		t.Fatalf("table t = %v (present %v), want only ( 1 )", rel, ok)
	}
	stmts, err = sqlparse.ParseAll("CREATE TABLE t ( a INT ) ; INSERT INTO u VALUES ( 1 )")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunScript(stmts); err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("error = %v, want a missing-table error", err)
	}
}
