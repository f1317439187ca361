package engine

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
)

// seededRun returns a script runner over table t ( a INT , b TEXT ) holding
// ( 1 , 'x' ) and ( 2 , 'y' ) in a Rows slice with spare capacity, so an
// INSERT inside a transaction writes into the backing array the BEGIN
// snapshot shares.
func seededRun() *scriptRun {
	db := NewDB()
	rows := make([][]Value, 0, 8)
	rows = append(rows, []Value{IntVal(1), TextVal("x")}, []Value{IntVal(2), TextVal("y")})
	db.Put("t", &Relation{
		Cols: []Col{{Name: "a", Type: catalog.TypeInt}, {Name: "b", Type: catalog.TypeText}},
		Rows: rows,
	})
	return &scriptRun{e: New(db)}
}

// sortedRows renders a table's rows in FormatRow's form, sorted; ok is false
// when the table does not exist.
func sortedRows(db *DB, table string) (rows []string, ok bool) {
	rel, ok := db.Table(table)
	if !ok {
		return nil, false
	}
	rows = make([]string, len(rel.Rows))
	for i, row := range rel.Rows {
		rows[i] = FormatRow(row)
	}
	sort.Strings(rows)
	return rows, true
}

// TestMemStoreTransactions pins the script runner's transaction semantics —
// the behaviour the state task's labels depend on. Every case runs a script
// over seededRun's table, statement by statement up to the first error.
func TestMemStoreTransactions(t *testing.T) {
	base := []string{"( 1 , 'x' )", "( 2 , 'y' )"}
	cases := []struct {
		name    string
		script  string
		wantErr string   // error substring; "" means success
		table   string   // table to inspect (default t)
		want    []string // its final rows, sorted; nil: table absent
		inTxn   bool     // whether a transaction is left open
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
		{name: "open block stays visible", script: "BEGIN ; DELETE FROM t WHERE a = 1 ; UPDATE t SET b = 'q'",
			want: []string{"( 2 , 'q' )"}, inTxn: true},
		{name: "INSERT with too few values errors", script: "INSERT INTO t VALUES ( 3 , 'z' ) , ( 4 )",
			wantErr: "supplies 1 values for 2 columns", want: base},
		{name: "INSERT with too many values errors", script: "INSERT INTO t ( a ) VALUES ( 3 , 'z' )",
			wantErr: "supplies 2 values for 1 columns", want: base},
		{name: "failing UPDATE changes no row",
			script:  "UPDATE t SET b = 'q' , a = CASE WHEN a = 2 THEN 'bad' ELSE a END",
			wantErr: "cannot store", want: base},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stmts, err := sqlparse.ParseAll(tc.script)
			if err != nil {
				t.Fatalf("parse %q: %v", tc.script, err)
			}
			s := seededRun()
			for _, st := range stmts {
				if err = s.exec(st); err != nil {
					break
				}
			}
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error = %v, want one containing %q", err, tc.wantErr)
			}
			if inTxn := s.snap != nil; inTxn != tc.inTxn {
				t.Errorf("block open = %v, want %v", inTxn, tc.inTxn)
			}
			table := tc.table
			if table == "" {
				table = "t"
			}
			got, ok := sortedRows(s.e.DB, table)
			switch {
			case tc.want == nil && ok:
				t.Fatalf("table %s exists with rows %q, want it absent", table, got)
			case tc.want != nil && !ok:
				t.Fatalf("table %s missing", table)
			case strings.Join(got, "\n") != strings.Join(tc.want, "\n"):
				t.Errorf("rows = %q, want %q", got, tc.want)
			}
			// Every block these cases leave open began on the seeded rows,
			// so rolling it back, as RunScript does at the end of a script,
			// restores them.
			if tc.inTxn {
				s.rollback()
				if got, _ := sortedRows(s.e.DB, "t"); strings.Join(got, "\n") != strings.Join(base, "\n") {
					t.Errorf("rows after closing the block = %q, want %q", got, base)
				}
			}
		})
	}
}

// RunScript returns the final rows of the table the script's last CREATE
// TABLE names, keeping only committed and auto-committed changes: a block
// the script leaves open is rolled back. A failing statement, a script that
// creates no table, and a table dropped by the end are errors.
func TestRunScript(t *testing.T) {
	cases := []struct {
		script  string
		want    []string
		wantErr string
	}{
		{script: "CREATE TABLE t ( a INT ) ; INSERT INTO t VALUES ( 1 ) ; BEGIN ; INSERT INTO t VALUES ( 2 )",
			want: []string{"( 1 )"}},
		{script: "CREATE TABLE t ( a INT ) ; INSERT INTO t VALUES ( 1 ) ; CREATE TABLE u ( b INT ) ; INSERT INTO u VALUES ( 5 )",
			want: []string{"( 5 )"}},
		{script: "CREATE TABLE t ( a INT ) ; INSERT INTO u VALUES ( 1 )", wantErr: `table "u" does not exist`},
		{script: "CREATE TABLE t ( a INT ) ; DROP TABLE t", wantErr: `table "t" does not exist`},
		{script: "BEGIN ; COMMIT", wantErr: "no CREATE TABLE"},
	}
	for _, tc := range cases {
		stmts, err := sqlparse.ParseAll(tc.script)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := RunScript(stmts)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error = %v, want one containing %q", tc.script, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.script, err)
		}
		got := make([]string, len(rows))
		for i, row := range rows {
			got[i] = FormatRow(row)
		}
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%s: rows = %q, want %q", tc.script, got, tc.want)
		}
	}
}
