package engine

// Tests for the plan optimizer (optimize.go): golden plan shapes for each
// rewrite, exact-output parity between optimized and unoptimized execution
// (the byte-identity contract), a randomized differential check over joins
// and predicates including error cases, and a memory benchmark for the
// streaming hash join.

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
)

// explain parses sql and returns the before/after plan strings over testDB.
func explain(t *testing.T, sql string) (string, string) {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return New(testDB()).Explain(sel)
}

// TestExplainGolden pins the plan before and after optimization for each
// push site, and for a filter the optimizer leaves where it is.
func TestExplainGolden(t *testing.T) {
	cases := []struct {
		name, sql             string
		wantBefore, wantAfter []string
	}{{
		name: "join",
		sql:  "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name WHERE e.salary > 75 AND d.budget >= 500",
		wantBefore: []string{
			"Project (1 items, 0 order keys)",
			"  Filter e.salary > 75 AND d.budget >= 500",
			"    INNER Join ON e.dept = d.name",
			"      Scan emp AS e",
			"      Scan dept AS d",
			"",
		},
		wantAfter: []string{
			"Project (1 items, 0 order keys)",
			"  INNER Join ON e.dept = d.name",
			"    Filter e.salary > 75",
			"      Scan emp AS e",
			"    Filter d.budget >= 500",
			"      Scan dept AS d",
			"",
		},
	}, {
		name: "comma join",
		sql:  "SELECT e.name FROM emp e, dept d WHERE e.dept = d.name AND e.salary > 75",
		wantBefore: []string{
			"Project (1 items, 0 order keys)",
			"  ImplicitJoin (2 inputs) WHERE e.dept = d.name AND e.salary > 75",
			"    Scan emp AS e",
			"    Scan dept AS d",
			"",
		},
		wantAfter: []string{
			"Project (1 items, 0 order keys)",
			"  ImplicitJoin (2 inputs) WHERE e.dept = d.name",
			"    Filter e.salary > 75",
			"      Scan emp AS e",
			"    Scan dept AS d",
			"",
		},
	}, {
		// A conjunct over two qualifiers of one comma-join input moves onto
		// that input, and stays above the explicit join inside it.
		name: "comma join over a join",
		sql:  "SELECT e.name, f.name FROM emp e JOIN dept d ON e.dept = d.name, emp f WHERE e.id = f.id AND e.salary < d.budget",
		wantBefore: []string{
			"Project (2 items, 0 order keys)",
			"  ImplicitJoin (2 inputs) WHERE e.id = f.id AND e.salary < d.budget",
			"    INNER Join ON e.dept = d.name",
			"      Scan emp AS e",
			"      Scan dept AS d",
			"    Scan emp AS f",
			"",
		},
		wantAfter: []string{
			"Project (2 items, 0 order keys)",
			"  ImplicitJoin (2 inputs) WHERE e.id = f.id",
			"    Filter e.salary < d.budget",
			"      INNER Join ON e.dept = d.name",
			"        Scan emp AS e",
			"        Scan dept AS d",
			"    Scan emp AS f",
			"",
		},
	}, {
		// A comma join without WHERE is the same node with no conjuncts.
		name: "comma join without where",
		sql:  "SELECT e.name FROM emp e, dept d",
		wantBefore: []string{
			"Project (1 items, 0 order keys)",
			"  ImplicitJoin (2 inputs)",
			"    Scan emp AS e",
			"    Scan dept AS d",
			"",
		},
		wantAfter: []string{
			"Project (1 items, 0 order keys)",
			"  ImplicitJoin (2 inputs)",
			"    Scan emp AS e",
			"    Scan dept AS d",
			"",
		},
	}, {
		// Nothing pushes into a derived table: the filter stays above it.
		name: "derived table",
		sql:  "SELECT t.name FROM (SELECT name, salary FROM emp) AS t WHERE t.salary > 75",
		wantBefore: []string{
			"Project (1 items, 0 order keys)",
			"  Filter t.salary > 75",
			"    SubqueryScan AS t",
			"      Project (2 items, 0 order keys)",
			"        Scan emp",
			"",
		},
		wantAfter: []string{
			"Project (1 items, 0 order keys)",
			"  Filter t.salary > 75",
			"    SubqueryScan AS t",
			"      Project (2 items, 0 order keys)",
			"        Scan emp",
			"",
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before, after := explain(t, tc.sql)
			if want := strings.Join(tc.wantBefore, "\n"); before != want {
				t.Errorf("before plan:\n%s\nwant:\n%s", before, want)
			}
			if want := strings.Join(tc.wantAfter, "\n"); after != want {
				t.Errorf("after plan:\n%s\nwant:\n%s", after, want)
			}
		})
	}
}

func TestOptimizerSkipsUnresolvableRefs(t *testing.T) {
	// "e.nosuch" matches emp's qualifier but no emp column: pushing it below
	// the join could raise "unknown column" on a query whose unoptimized
	// residual never evaluates it, so the optimizer must leave it in place.
	// A pushable conjunct BEFORE it still moves; one AFTER it must stay too
	// (pushing past a fallible conjunct could drop the rows that would have
	// triggered its error).
	_, after := explain(t,
		"SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name WHERE d.budget > 100 AND e.nosuch = 1 AND e.salary > 75")
	if !strings.Contains(after, "Filter e.nosuch = 1 AND e.salary > 75") {
		t.Errorf("conjuncts at or after the fallible one were not kept above the join:\n%s", after)
	}
	if !strings.Contains(after, "Filter d.budget > 100") {
		t.Errorf("resolvable conjunct before the fallible one was not pushed:\n%s", after)
	}
}

// queryBoth runs sql over the same DB on the optimized engine and on the
// unoptimized oracle, and returns both results.
func queryBoth(sql string) (on, off *Relation, onErr, offErr error) {
	db := testDB()
	on, onErr = New(db).QuerySQL(sql)
	off, offErr = NewUnoptimized(db).QuerySQL(sql)
	return
}

// assertSame fails unless the optimized and unoptimized runs agreed exactly:
// same error presence and message, same columns, same rows in the same order.
func assertSame(t *testing.T, sql string, on, off *Relation, onErr, offErr error) {
	t.Helper()
	if (onErr == nil) != (offErr == nil) {
		t.Fatalf("%q: error divergence: optimized=%v unoptimized=%v", sql, onErr, offErr)
	}
	if onErr != nil {
		if onErr.Error() != offErr.Error() {
			t.Fatalf("%q: error message divergence:\n  optimized:   %v\n  unoptimized: %v", sql, onErr, offErr)
		}
		return
	}
	if len(on.Cols) != len(off.Cols) {
		t.Fatalf("%q: column count %d != %d", sql, len(on.Cols), len(off.Cols))
	}
	for i := range on.Cols {
		if !strings.EqualFold(on.Cols[i].Name, off.Cols[i].Name) {
			t.Fatalf("%q: column %d name %q != %q", sql, i, on.Cols[i].Name, off.Cols[i].Name)
		}
	}
	gotOn, gotOff := rowStrings(on), rowStrings(off)
	if len(gotOn) != len(gotOff) {
		t.Fatalf("%q: row count %d != %d", sql, len(gotOn), len(gotOff))
	}
	for i := range gotOn {
		if gotOn[i] != gotOff[i] {
			t.Fatalf("%q: row %d: %q != %q", sql, i, gotOn[i], gotOff[i])
		}
	}
}

func TestStreamJoinParity(t *testing.T) {
	queries := []string{
		// All four outer-join flavors through the hash probe, with and
		// without pushable predicates.
		"SELECT e.name, d.budget FROM emp e JOIN dept d ON e.dept = d.name",
		"SELECT e.name, d.budget FROM emp e JOIN dept d ON e.dept = d.name WHERE e.salary > 75",
		"SELECT e.name, d.budget FROM emp e LEFT JOIN dept d ON e.dept = d.name",
		"SELECT e.name, d.budget FROM emp e LEFT JOIN dept d ON e.dept = d.name WHERE e.salary > 75",
		"SELECT e.name, d.budget FROM emp e RIGHT JOIN dept d ON e.dept = d.name",
		"SELECT e.name, d.budget FROM emp e RIGHT JOIN dept d ON e.dept = d.name WHERE d.budget >= 500",
		"SELECT e.name, d.budget FROM emp e FULL JOIN dept d ON e.dept = d.name",
		"SELECT d.budget, e.name FROM dept d JOIN emp e ON d.name = e.dept",
		"SELECT d.budget, e.name FROM dept d JOIN emp e ON d.name = e.dept WHERE e.salary > 75 AND d.budget > 100",
		"SELECT e.name FROM emp e CROSS JOIN dept d WHERE e.salary > 90",
		// Any other ON clause runs the nested loop.
		"SELECT e.name, d.budget FROM emp e JOIN dept d ON e.salary > d.budget",
		// Chained joins: the upper join streams over a streamed lower join.
		"SELECT e.name, d.budget, f.id FROM emp e JOIN dept d ON e.dept = d.name JOIN emp f ON d.name = f.dept",
		// Derived-table inputs: their filters stay above them.
		"SELECT x.n, d.budget FROM (SELECT name AS n, dept AS dp, salary AS s FROM emp) x JOIN dept d ON x.dp = d.name WHERE x.s > 75",
		"SELECT x.n FROM (SELECT name AS n, salary AS s FROM emp ORDER BY s DESC) x WHERE x.s > 75",
		// Implicit joins, with pushdown below the comma join.
		"SELECT e.name, d.budget FROM emp e, dept d WHERE e.dept = d.name AND e.salary > 75",
		"SELECT e.name, f.name FROM emp e, dept d, emp f WHERE e.dept = d.name AND f.id = e.id",
		// A comma join over an explicit join: conjuncts over that input move
		// onto it, and only past the join when one side may drop rows.
		"SELECT e.name, f.name FROM emp e JOIN dept d ON e.dept = d.name, emp f WHERE e.id = f.id AND e.salary < d.budget",
		"SELECT e.name, f.name FROM emp e LEFT JOIN dept d ON e.dept = d.name, emp f WHERE f.id = e.id AND d.budget IS NULL AND e.salary > 75",
		// ORDER BY and aggregation above optimized joins.
		"SELECT e.name, d.budget FROM emp e JOIN dept d ON e.dept = d.name ORDER BY d.budget DESC, e.name",
		"SELECT d.name, COUNT(*) AS c FROM dept d JOIN emp e ON d.name = e.dept GROUP BY d.name ORDER BY d.name",
	}
	for _, sql := range queries {
		on, off, onErr, offErr := queryBoth(sql)
		assertSame(t, sql, on, off, onErr, offErr)
	}
}

func TestStreamJoinErrorParity(t *testing.T) {
	queries := []string{
		// Unknown and ambiguous columns in every clause position; the
		// optimizer must not change which error (if any) surfaces.
		"SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name WHERE e.nosuch = 1",
		"SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name WHERE d.nosuch = 1 AND e.salary > 75",
		"SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name WHERE name = 'eng'",
		"SELECT nosuch FROM emp e JOIN dept d ON e.dept = d.name",
		"SELECT e.name FROM emp e JOIN dept d ON e.nosuch = d.name",
		"SELECT e.name FROM emp e, dept d WHERE e.dept = d.name AND e.nosuch = 1",
		"SELECT e.name FROM emp e, dept d WHERE e.dept = d.name AND name = 'x'",
		"SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name, emp f WHERE e.nosuch = d.name AND f.id = e.id",
		// An ambiguous conjunct bars later pushes; inputs that share a
		// qualifier take none.
		"SELECT * FROM emp e, dept d WHERE name = 'x' AND e.salary > 1000",
		"SELECT * FROM emp, emp WHERE emp.salary > 75",
		"SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name, emp f WHERE f.id = e.id AND e.salary + d.budget > 0 AND e.salary < d.budget",
		// A filter that never matches leaves zero rows; a pushed unknown-ref
		// conjunct must not error where the baseline evaluates nothing.
		"SELECT x.n FROM (SELECT name AS n, nosuch AS m FROM emp) x WHERE x.n = 'zzz'",
		"SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name WHERE e.salary > 1e999",
	}
	for _, sql := range queries {
		on, off, onErr, offErr := queryBoth(sql)
		assertSame(t, sql, on, off, onErr, offErr)
	}
}

func TestForceNestedLoopFallbackParity(t *testing.T) {
	// "AND 1 = 1" keeps the ON clause from being a plain column equality, so
	// the join takes the nested loop — outer padding included — instead of
	// the hash probe, with and without a filter pushed below it.
	for _, sql := range []string{
		"SELECT e.name, d.budget FROM emp e JOIN dept d ON e.dept = d.name AND 1 = 1 WHERE e.salary > 75",
		"SELECT e.name, d.budget FROM emp e FULL JOIN dept d ON e.dept = d.name AND 1 = 1",
	} {
		on, off, onErr, offErr := queryBoth(sql)
		assertSame(t, sql, on, off, onErr, offErr)
	}
}

// TestInWithNullsParity runs IN and NOT IN over lists and subqueries that
// hold NULL, where a row with no match is NULL rather than FALSE, through
// every join flavor with and without a pushable conjunct beside them.
func TestInWithNullsParity(t *testing.T) {
	froms := []string{
		"emp e, dept d",
		"emp e JOIN dept d ON e.dept = d.name",
		"emp e LEFT JOIN dept d ON e.dept = d.name",
		"emp e RIGHT JOIN dept d ON e.dept = d.name",
		"emp e FULL JOIN dept d ON e.dept = d.name",
		"(SELECT id AS i, name AS n, dept AS dp, salary AS s FROM emp) e, dept d",
	}
	preds := []string{
		"e.salary NOT IN (80, NULL)",
		"e.salary IN (80, NULL)",
		"e.id IN (1, NULL) OR d.budget > 600",
		"NOT (d.budget IN (200, NULL))",
		"d.budget NOT IN (1000, 500, 200)",
		"e.salary NOT IN (SELECT x.salary FROM emp x WHERE x.id > 3)",
		"e.salary IN (SELECT x.salary FROM emp x WHERE x.id > 3)",
		"d.budget IN (SELECT x.salary * 10 FROM emp x)",
		"d.budget NOT IN (SELECT x.salary * 10 FROM emp x WHERE x.salary IS NOT NULL)",
		"e.s NOT IN (80, NULL)",
	}
	for _, from := range froms {
		for _, pred := range preds {
			for _, where := range []string{pred, "d.budget >= 500 AND " + pred, pred + " AND d.budget >= 500"} {
				sql := "SELECT * FROM " + from + " WHERE " + where
				on, off, onErr, offErr := queryBoth(sql)
				assertSame(t, sql, on, off, onErr, offErr)
			}
		}
	}
}

// TestOptimizerDifferentialQuick fuzzes SELECTs over emp/dept — every join
// flavor, predicates drawn from a pool that includes non-total expressions,
// unknown and ambiguous columns — and requires the optimized and unoptimized
// runs to agree exactly on errors, columns, rows, and row order.
func TestOptimizerDifferentialQuick(t *testing.T) {
	froms := []string{
		"emp e, dept d",
		"emp e JOIN dept d ON e.dept = d.name",
		"emp e LEFT JOIN dept d ON e.dept = d.name",
		"emp e RIGHT JOIN dept d ON e.dept = d.name",
		"emp e FULL JOIN dept d ON e.dept = d.name",
		"dept d JOIN emp e ON d.name = e.dept",
		"emp e CROSS JOIN dept d",
		"emp e, dept d, emp f",
		"(SELECT id AS i, name AS n, dept AS dp, salary AS s FROM emp) e, dept d",
	}
	preds := []string{
		"e.salary > 75",
		"d.budget >= 500",
		"e.dept = d.name",
		"e.name LIKE 'a%'",
		"e.salary IS NULL",
		"e.id IN (1, 3, 5)",
		"d.budget BETWEEN 100 AND 600",
		"NOT (e.salary < 80)",
		"e.salary + d.budget > 500", // non-total: never pushed
		"e.nosuch = 1",              // unknown column
		"name = 'eng'",              // ambiguous across emp and dept
		"e.salary > 1e999",          // bad numeric literal
		"f.id = e.id",               // resolves only in the three-input FROM
		"e.s > 75",                  // resolves only under the derived table
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		var b strings.Builder
		b.WriteString("SELECT * FROM ")
		b.WriteString(froms[r.Intn(len(froms))])
		if n := r.Intn(4); n > 0 {
			b.WriteString(" WHERE ")
			for j := 0; j < n; j++ {
				if j > 0 {
					if r.Intn(4) == 0 {
						b.WriteString(" OR ")
					} else {
						b.WriteString(" AND ")
					}
				}
				b.WriteString(preds[r.Intn(len(preds))])
			}
		}
		sql := b.String()
		on, off, onErr, offErr := queryBoth(sql)
		assertSame(t, sql, on, off, onErr, offErr)
	}
}

// benchJoinDB builds a two-table instance sized so the join intermediates
// dominate allocation: a 20k-row probe table and a 64-row build table.
func benchJoinDB() *DB {
	schema := catalog.NewSchema("bench")
	schema.Add(catalog.T("big", "id", catalog.TypeInt, "v", catalog.TypeInt))
	schema.Add(catalog.T("small", "id", catalog.TypeInt, "w", catalog.TypeInt))
	db := NewDB()
	big := &Relation{Cols: []Col{{Name: "id", Type: catalog.TypeInt}, {Name: "v", Type: catalog.TypeInt}}}
	for i := 0; i < 20_000; i++ {
		big.Rows = append(big.Rows, []Value{IntVal(int64(i % 64)), IntVal(int64(i % 100))})
	}
	small := &Relation{Cols: []Col{{Name: "id", Type: catalog.TypeInt}, {Name: "w", Type: catalog.TypeInt}}}
	for i := 0; i < 64; i++ {
		small.Rows = append(small.Rows, []Value{IntVal(int64(i)), IntVal(int64(i * 10))})
	}
	db.Put("big", big)
	db.Put("small", small)
	return db
}

// BenchmarkStreamJoinMemory measures the optimized plan against the
// unoptimized oracle on a filtered join: the optimized plan pushes the
// filters below the join, so the hash join builds on and probes with only
// the surviving rows; the unoptimized plan joins every row and filters after.
func BenchmarkStreamJoinMemory(b *testing.B) {
	const sql = "SELECT b.v, s.w FROM big b JOIN small s ON b.id = s.id WHERE b.v > 50 AND s.w < 300"
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		b.Fatal(err)
	}
	db := benchJoinDB()
	for _, mode := range []struct {
		name   string
		engine func(*DB) *Engine
	}{{"optimized", New}, {"unoptimized", NewUnoptimized}} {
		b.Run(mode.name, func(b *testing.B) {
			e := mode.engine(db)
			e.MaxRows = 10_000_000
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rel, err := e.Query(sel)
				if err != nil {
					b.Fatal(err)
				}
				if len(rel.Rows) == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

// sanity check for benchJoinDB row counts used in the memory benchmark
// (guards against the fixture silently degenerating).
func TestBenchJoinDBParity(t *testing.T) {
	db := benchJoinDB()
	eOn := New(db)
	eOn.MaxRows = 10_000_000
	eOff := NewUnoptimized(db)
	eOff.MaxRows = 10_000_000
	sql := "SELECT b.v, s.w FROM big b JOIN small s ON b.id = s.id WHERE b.v > 50 AND s.w < 300"
	on, onErr := eOn.QuerySQL(sql)
	off, offErr := eOff.QuerySQL(sql)
	assertSame(t, sql, on, off, onErr, offErr)
	if len(on.Rows) == 0 {
		t.Fatal("benchmark query returns no rows")
	}
}
