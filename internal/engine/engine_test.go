package engine

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
)

// testDB builds a small, hand-written database for deterministic assertions.
func testDB() *DB {
	schema := catalog.NewSchema("test")
	schema.Add(catalog.T("emp",
		"id", catalog.TypeInt, "name", catalog.TypeText,
		"dept", catalog.TypeText, "salary", catalog.TypeFloat,
	))
	schema.Add(catalog.T("dept",
		"name", catalog.TypeText, "budget", catalog.TypeFloat,
	))
	db := NewDB()
	db.Put("emp", &Relation{
		Cols: []Col{
			{Name: "id", Type: catalog.TypeInt},
			{Name: "name", Type: catalog.TypeText},
			{Name: "dept", Type: catalog.TypeText},
			{Name: "salary", Type: catalog.TypeFloat},
		},
		Rows: [][]Value{
			{IntVal(1), TextVal("ann"), TextVal("eng"), FloatVal(100)},
			{IntVal(2), TextVal("bob"), TextVal("eng"), FloatVal(80)},
			{IntVal(3), TextVal("cat"), TextVal("ops"), FloatVal(90)},
			{IntVal(4), TextVal("dan"), TextVal("ops"), FloatVal(70)},
			{IntVal(5), TextVal("eve"), TextVal("hr"), NullValue},
		},
	})
	db.Put("dept", &Relation{
		Cols: []Col{
			{Name: "name", Type: catalog.TypeText},
			{Name: "budget", Type: catalog.TypeFloat},
		},
		Rows: [][]Value{
			{TextVal("eng"), FloatVal(1000)},
			{TextVal("ops"), FloatVal(500)},
			{TextVal("sales"), FloatVal(200)},
		},
	})
	return db
}

func mustQuery(t *testing.T, sql string) *Relation {
	t.Helper()
	rel, err := New(testDB()).QuerySQL(sql)
	if err != nil {
		t.Fatalf("QuerySQL(%q): %v", sql, err)
	}
	return rel
}

func rowStrings(rel *Relation) []string {
	out := make([]string, len(rel.Rows))
	for i, row := range rel.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func TestSimpleProjectionAndFilter(t *testing.T) {
	rel := mustQuery(t, "SELECT name FROM emp WHERE salary > 75")
	got := rowStrings(rel)
	want := []string{"ann", "bob", "cat"}
	if len(got) != len(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestSelectStar(t *testing.T) {
	rel := mustQuery(t, "SELECT * FROM emp")
	if rel.Width() != 4 || len(rel.Rows) != 5 {
		t.Errorf("star shape = %dx%d, want 4x5", rel.Width(), len(rel.Rows))
	}
	rel = mustQuery(t, "SELECT e.* FROM emp AS e WHERE e.dept = 'eng'")
	if rel.Width() != 4 || len(rel.Rows) != 2 {
		t.Errorf("qualified star shape = %dx%d", rel.Width(), len(rel.Rows))
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	rel := mustQuery(t, "SELECT 1 + 2 , 'x'")
	if len(rel.Rows) != 1 || rel.Rows[0][0].I != 3 || rel.Rows[0][1].S != "x" {
		t.Errorf("rows = %v", rowStrings(rel))
	}
}

func TestArithmeticAndNullPropagation(t *testing.T) {
	rel := mustQuery(t, "SELECT salary * 2 FROM emp WHERE name = 'eve'")
	if !rel.Rows[0][0].Null {
		t.Error("NULL * 2 should be NULL")
	}
	rel = mustQuery(t, "SELECT 7 % 3 , 10 / 4 , 10.0 / 4")
	if rel.Rows[0][0].I != 1 {
		t.Errorf("7%%3 = %v", rel.Rows[0][0])
	}
	if rel.Rows[0][1].AsFloat() != 2.5 {
		t.Errorf("10/4 = %v (division always yields float)", rel.Rows[0][1])
	}
	rel = mustQuery(t, "SELECT 1 / 0")
	if !rel.Rows[0][0].Null {
		t.Error("division by zero should be NULL")
	}
}

func TestWhereNullIsNotTruthy(t *testing.T) {
	// eve has NULL salary: the comparison is unknown, row filtered out.
	rel := mustQuery(t, "SELECT name FROM emp WHERE salary > 0")
	for _, row := range rel.Rows {
		if row[0].S == "eve" {
			t.Error("NULL comparison admitted a row")
		}
	}
	rel = mustQuery(t, "SELECT name FROM emp WHERE salary IS NULL")
	if len(rel.Rows) != 1 || rel.Rows[0][0].S != "eve" {
		t.Errorf("IS NULL rows = %v", rowStrings(rel))
	}
}

func TestInnerJoin(t *testing.T) {
	rel := mustQuery(t, "SELECT e.name , d.budget FROM emp AS e JOIN dept AS d ON e.dept = d.name")
	if len(rel.Rows) != 4 {
		t.Fatalf("join rows = %d, want 4 (hr has no dept row)", len(rel.Rows))
	}
}

func TestLeftJoinPadsNulls(t *testing.T) {
	rel := mustQuery(t, "SELECT e.name , d.budget FROM emp AS e LEFT JOIN dept AS d ON e.dept = d.name")
	if len(rel.Rows) != 5 {
		t.Fatalf("left join rows = %d, want 5", len(rel.Rows))
	}
	var evePadded bool
	for _, row := range rel.Rows {
		if row[0].S == "eve" && row[1].Null {
			evePadded = true
		}
	}
	if !evePadded {
		t.Error("eve should appear with NULL budget")
	}
}

func TestRightAndFullJoin(t *testing.T) {
	rel := mustQuery(t, "SELECT e.name , d.name FROM emp AS e RIGHT JOIN dept AS d ON e.dept = d.name")
	if len(rel.Rows) != 5 { // 4 matches + unmatched sales
		t.Fatalf("right join rows = %d, want 5", len(rel.Rows))
	}
	rel = mustQuery(t, "SELECT e.name , d.name FROM emp AS e FULL JOIN dept AS d ON e.dept = d.name")
	if len(rel.Rows) != 6 { // 4 matches + eve + sales
		t.Fatalf("full join rows = %d, want 6", len(rel.Rows))
	}
}

func TestCrossJoinAndImplicitJoin(t *testing.T) {
	rel := mustQuery(t, "SELECT e.name FROM emp AS e CROSS JOIN dept AS d")
	if len(rel.Rows) != 15 {
		t.Fatalf("cross rows = %d, want 15", len(rel.Rows))
	}
	rel = mustQuery(t, "SELECT e.name FROM emp AS e , dept AS d WHERE e.dept = d.name")
	if len(rel.Rows) != 4 {
		t.Fatalf("implicit join rows = %d, want 4", len(rel.Rows))
	}
}

func TestHashAndNestedLoopJoinAgree(t *testing.T) {
	// AND 1 = 1 keeps the ON clause from being a plain column equality, so
	// the second query runs the nested loop.
	hashed := mustQuery(t, "SELECT e.name , d.budget FROM emp AS e JOIN dept AS d ON e.dept = d.name")
	looped := mustQuery(t, "SELECT e.name , d.budget FROM emp AS e JOIN dept AS d ON e.dept = d.name AND 1 = 1")
	if !EqualRelations(hashed, looped, true) {
		t.Errorf("hash join %v != nested loop %v", rowStrings(hashed), rowStrings(looped))
	}
}

// numKeysDB holds the integers 1000000 and 0 in a.i and the floats 1e6, 0
// and -0 in b.f: values Equal treats as the same, of different Kinds or
// signs.
func numKeysDB() *DB {
	schema := catalog.NewSchema("numkeys")
	schema.Add(catalog.T("a", "i", catalog.TypeInt))
	schema.Add(catalog.T("b", "f", catalog.TypeFloat))
	db := NewDB()
	db.Put("a", &Relation{
		Cols: []Col{{Name: "i", Type: catalog.TypeInt}},
		Rows: [][]Value{{IntVal(1000000)}, {IntVal(0)}},
	})
	db.Put("b", &Relation{
		Cols: []Col{{Name: "f", Type: catalog.TypeFloat}},
		Rows: [][]Value{{FloatVal(1e6)}, {FloatVal(0)}, {FloatVal(math.Copysign(0, -1))}},
	})
	return db
}

// Equal compares int and float numerically, so every hash path must find
// each match the nested loop finds, whether the two keys share a Kind or
// not.
func TestHashJoinKeysCompareAcrossNumericKinds(t *testing.T) {
	db := numKeysDB()
	for _, tc := range []struct {
		sql  string
		want int
	}{
		{"SELECT a.i , b.f FROM a JOIN b ON a.i = b.f AND 1 = 1", 3}, // nested loop
		{"SELECT a.i , b.f FROM a JOIN b ON a.i = b.f", 3},
		{"SELECT a.i , b.f FROM b JOIN a ON b.f = a.i", 3},
		{"SELECT a.i , b.f FROM a FULL JOIN b ON a.i = b.f", 3},
		{"SELECT a.i , b.f FROM a , b WHERE a.i = b.f", 3},
		{"SELECT x.f , y.f FROM b AS x JOIN b AS y ON x.f = y.f", 5},
	} {
		rel, err := New(db).QuerySQL(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if len(rel.Rows) != tc.want {
			t.Errorf("%s: %d rows %v, want %d", tc.sql, len(rel.Rows), rowStrings(rel), tc.want)
		}
	}
}

// Row keys (DISTINCT, set operations, GROUP BY, EqualRelations) treat as
// one value what Equal does: an integral float and the same integer, and -0
// and 0.
func TestRowKeysFollowEqual(t *testing.T) {
	const both = "(SELECT i AS x FROM a UNION ALL SELECT f FROM b) t"
	for _, tc := range []struct {
		sql  string
		want []string
	}{
		{"SELECT DISTINCT x FROM " + both, []string{"1000000", "0"}},
		{"SELECT DISTINCT f FROM b", []string{"1e+06", "0"}},
		{"SELECT i FROM a UNION SELECT f FROM b", []string{"1000000", "0"}},
		{"SELECT i FROM a INTERSECT SELECT f FROM b", []string{"1000000", "0"}},
		{"SELECT i FROM a EXCEPT SELECT f FROM b", nil},
		{"SELECT COUNT(*) FROM " + both + " GROUP BY x", []string{"2", "3"}},
		{"SELECT COUNT(*) FROM b GROUP BY f", []string{"1", "2"}},
	} {
		rel, err := New(numKeysDB()).QuerySQL(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		var got []string
		for _, row := range rel.Rows {
			got = append(got, row[0].String())
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: rows %v, want %v", tc.sql, rowStrings(rel), tc.want)
		}
	}
	ints := &Relation{Cols: []Col{{Name: "x"}}, Rows: [][]Value{{IntVal(1000000)}, {IntVal(0)}}}
	floats := &Relation{Cols: []Col{{Name: "x"}}, Rows: [][]Value{{FloatVal(1e6)}, {FloatVal(math.Copysign(0, -1))}}}
	for _, ordered := range []bool{true, false} {
		if !EqualRelations(ints, floats, ordered) {
			t.Errorf("EqualRelations(%v, %v, ordered=%v) = false", rowStrings(ints), rowStrings(floats), ordered)
		}
	}
}

func TestNonEquiJoin(t *testing.T) {
	rel := mustQuery(t, "SELECT e.name FROM emp AS e JOIN dept AS d ON e.salary > d.budget")
	// salaries 100,80,90,70 vs budgets 1000,500,200: none bigger.
	if len(rel.Rows) != 0 {
		t.Errorf("non-equi rows = %v", rowStrings(rel))
	}
}

func TestGroupByAggregates(t *testing.T) {
	rel := mustQuery(t, "SELECT dept , COUNT(*) , AVG( salary ) FROM emp GROUP BY dept ORDER BY dept ASC")
	got := rowStrings(rel)
	want := []string{"eng|2|90", "hr|1|NULL", "ops|2|80"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("groups = %v, want %v", got, want)
	}
}

func TestGlobalAggregates(t *testing.T) {
	rel := mustQuery(t, "SELECT COUNT(*) , SUM( salary ) , MIN( salary ) , MAX( salary ) FROM emp")
	row := rel.Rows[0]
	if row[0].I != 5 || row[1].AsFloat() != 340 || row[2].AsFloat() != 70 || row[3].AsFloat() != 100 {
		t.Errorf("aggregates = %v", rowStrings(rel))
	}
	// COUNT(col) skips NULLs.
	rel = mustQuery(t, "SELECT COUNT( salary ) FROM emp")
	if rel.Rows[0][0].I != 4 {
		t.Errorf("COUNT(salary) = %v, want 4", rel.Rows[0][0])
	}
}

func TestCountDistinct(t *testing.T) {
	rel := mustQuery(t, "SELECT COUNT(DISTINCT dept) FROM emp")
	if rel.Rows[0][0].I != 3 {
		t.Errorf("COUNT(DISTINCT dept) = %v, want 3", rel.Rows[0][0])
	}
}

func TestHaving(t *testing.T) {
	rel := mustQuery(t, "SELECT dept , COUNT(*) FROM emp GROUP BY dept HAVING COUNT(*) > 1 ORDER BY dept ASC")
	got := rowStrings(rel)
	if len(got) != 2 || got[0] != "eng|2" || got[1] != "ops|2" {
		t.Errorf("having rows = %v", got)
	}
}

func TestOrderByDirectionsAndAlias(t *testing.T) {
	rel := mustQuery(t, "SELECT name , salary FROM emp WHERE salary IS NOT NULL ORDER BY salary DESC")
	got := rowStrings(rel)
	if got[0] != "ann|100" || got[3] != "dan|70" {
		t.Errorf("order desc = %v", got)
	}
	rel = mustQuery(t, "SELECT name , salary * 2 AS pay FROM emp WHERE salary IS NOT NULL ORDER BY pay ASC")
	if rel.Rows[0][0].S != "dan" {
		t.Errorf("alias order = %v", rowStrings(rel))
	}
	// ORDER BY a column that is not projected.
	rel = mustQuery(t, "SELECT name FROM emp WHERE salary IS NOT NULL ORDER BY salary ASC")
	if rel.Rows[0][0].S != "dan" {
		t.Errorf("unprojected order = %v", rowStrings(rel))
	}
}

func TestDistinct(t *testing.T) {
	rel := mustQuery(t, "SELECT DISTINCT dept FROM emp ORDER BY dept ASC")
	got := rowStrings(rel)
	if len(got) != 3 || got[0] != "eng" {
		t.Errorf("distinct = %v", got)
	}
}

func TestLimitOffsetTop(t *testing.T) {
	rel := mustQuery(t, "SELECT id FROM emp ORDER BY id ASC LIMIT 2")
	if len(rel.Rows) != 2 || rel.Rows[0][0].I != 1 {
		t.Errorf("limit = %v", rowStrings(rel))
	}
	rel = mustQuery(t, "SELECT id FROM emp ORDER BY id ASC LIMIT 2 OFFSET 2")
	if len(rel.Rows) != 2 || rel.Rows[0][0].I != 3 {
		t.Errorf("offset = %v", rowStrings(rel))
	}
	rel = mustQuery(t, "SELECT TOP 3 id FROM emp ORDER BY id DESC")
	if len(rel.Rows) != 3 || rel.Rows[0][0].I != 5 {
		t.Errorf("top = %v", rowStrings(rel))
	}
	rel = mustQuery(t, "SELECT id FROM emp LIMIT 0")
	if len(rel.Rows) != 0 {
		t.Errorf("limit 0 = %v", rowStrings(rel))
	}
}

func TestScalarSubquery(t *testing.T) {
	rel := mustQuery(t, "SELECT name FROM emp WHERE salary = ( SELECT MAX( salary ) FROM emp )")
	if len(rel.Rows) != 1 || rel.Rows[0][0].S != "ann" {
		t.Errorf("scalar sub = %v", rowStrings(rel))
	}
	// Multi-row scalar subquery is a runtime error.
	_, err := New(testDB()).QuerySQL("SELECT name FROM emp WHERE salary = ( SELECT salary FROM emp )")
	if err == nil {
		t.Error("multi-row scalar subquery should fail")
	}
}

func TestInSubqueryAndList(t *testing.T) {
	rel := mustQuery(t, "SELECT name FROM emp WHERE dept IN ( SELECT name FROM dept WHERE budget > 400 )")
	if len(rel.Rows) != 4 {
		t.Errorf("in-sub rows = %v", rowStrings(rel))
	}
	rel = mustQuery(t, "SELECT name FROM emp WHERE id IN ( 1 , 3 )")
	if len(rel.Rows) != 2 {
		t.Errorf("in-list rows = %v", rowStrings(rel))
	}
	rel = mustQuery(t, "SELECT name FROM emp WHERE id NOT IN ( 1 , 2 , 3 , 4 )")
	if len(rel.Rows) != 1 || rel.Rows[0][0].S != "eve" {
		t.Errorf("not-in rows = %v", rowStrings(rel))
	}
}

// TestInWithNulls pins SQL's three-valued IN: with no match, a NULL in the
// list or subquery makes x IN (...) and x NOT IN (...) both NULL, which a
// WHERE clause treats as false.
func TestInWithNulls(t *testing.T) {
	for _, tc := range []struct {
		sql  string
		want []string
	}{
		{"SELECT name FROM emp WHERE salary NOT IN ( 80 , NULL )", nil},
		{"SELECT name FROM emp WHERE salary IN ( 80 , NULL )", []string{"bob"}},
		{"SELECT name FROM emp WHERE NOT ( salary IN ( 80 , NULL ) )", nil},
		{"SELECT name FROM emp WHERE salary NOT IN ( 80 , 90 )", []string{"ann", "dan"}},
		{"SELECT name FROM emp WHERE salary NOT IN ( SELECT salary FROM emp WHERE id > 3 )", nil},
		{"SELECT name FROM emp WHERE salary IN ( SELECT salary FROM emp WHERE id > 3 )", []string{"dan"}},
		{"SELECT name FROM emp WHERE salary NOT IN ( SELECT salary FROM emp WHERE id < 3 )", []string{"cat", "dan"}},
		{"SELECT name FROM emp WHERE id NOT IN ( SELECT budget FROM dept WHERE budget < 0 )", []string{"ann", "bob", "cat", "dan", "eve"}},
	} {
		got := rowStrings(mustQuery(t, tc.sql))
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("%s = %v, want %v", tc.sql, got, tc.want)
		}
	}
	rel := mustQuery(t, "SELECT 1 IN ( 2 , NULL ) , 1 NOT IN ( 2 , NULL ) , 1 IN ( 1 , NULL ) , 1 NOT IN ( 1 , NULL )")
	if got := strings.Join(rowStrings(rel), ","); got != "NULL|NULL|true|false" {
		t.Errorf("IN values = %s, want NULL|NULL|true|false", got)
	}
}

func TestExistsCorrelated(t *testing.T) {
	rel := mustQuery(t, "SELECT d.name FROM dept AS d WHERE EXISTS ( SELECT 1 FROM emp AS e WHERE e.dept = d.name )")
	if len(rel.Rows) != 2 {
		t.Errorf("exists rows = %v", rowStrings(rel))
	}
	rel = mustQuery(t, "SELECT d.name FROM dept AS d WHERE NOT EXISTS ( SELECT 1 FROM emp AS e WHERE e.dept = d.name )")
	if len(rel.Rows) != 1 || rel.Rows[0][0].S != "sales" {
		t.Errorf("not-exists rows = %v", rowStrings(rel))
	}
}

func TestDerivedTable(t *testing.T) {
	rel := mustQuery(t, "SELECT s.name FROM ( SELECT name , salary FROM emp WHERE salary > 75 ) AS s WHERE s.salary < 95")
	got := rowStrings(rel)
	if len(got) != 2 { // bob 80, cat 90
		t.Errorf("derived rows = %v", got)
	}
}

func TestCTE(t *testing.T) {
	rel := mustQuery(t, "WITH rich AS ( SELECT name , salary FROM emp WHERE salary > 75 ) SELECT name FROM rich ORDER BY name ASC")
	got := rowStrings(rel)
	if len(got) != 3 || got[0] != "ann" {
		t.Errorf("cte rows = %v", got)
	}
	// CTE with explicit column list.
	rel = mustQuery(t, "WITH r ( who , pay ) AS ( SELECT name , salary FROM emp WHERE salary > 85 ) SELECT who FROM r ORDER BY pay DESC")
	if len(rel.Rows) != 2 || rel.Rows[0][0].S != "ann" {
		t.Errorf("cte cols = %v", rowStrings(rel))
	}
	// Chained CTEs.
	rel = mustQuery(t, "WITH a AS ( SELECT salary FROM emp ) , b AS ( SELECT salary FROM a WHERE salary > 85 ) SELECT COUNT(*) FROM b")
	if rel.Rows[0][0].I != 2 {
		t.Errorf("chained cte = %v", rowStrings(rel))
	}
}

func TestSetOperations(t *testing.T) {
	rel := mustQuery(t, "SELECT dept FROM emp UNION SELECT name FROM dept ORDER BY dept ASC")
	if len(rel.Rows) != 4 { // eng, hr, ops, sales
		t.Errorf("union rows = %v", rowStrings(rel))
	}
	rel = mustQuery(t, "SELECT dept FROM emp UNION ALL SELECT name FROM dept")
	if len(rel.Rows) != 8 {
		t.Errorf("union all rows = %v", rowStrings(rel))
	}
	rel = mustQuery(t, "SELECT dept FROM emp INTERSECT SELECT name FROM dept")
	if len(rel.Rows) != 2 { // eng, ops
		t.Errorf("intersect rows = %v", rowStrings(rel))
	}
	rel = mustQuery(t, "SELECT name FROM dept EXCEPT SELECT dept FROM emp")
	if len(rel.Rows) != 1 || rel.Rows[0][0].S != "sales" {
		t.Errorf("except rows = %v", rowStrings(rel))
	}
}

func TestCaseExpression(t *testing.T) {
	rel := mustQuery(t, "SELECT name , CASE WHEN salary >= 90 THEN 'high' WHEN salary >= 75 THEN 'mid' ELSE 'low' END FROM emp WHERE salary IS NOT NULL ORDER BY id ASC")
	got := rowStrings(rel)
	want := []string{"ann|high", "bob|mid", "cat|high", "dan|low"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("case = %v", got)
	}
	rel = mustQuery(t, "SELECT CASE dept WHEN 'eng' THEN 1 ELSE 0 END FROM emp ORDER BY id ASC")
	if rel.Rows[0][0].I != 1 || rel.Rows[2][0].I != 0 {
		t.Errorf("simple case = %v", rowStrings(rel))
	}
}

func TestLikeOperator(t *testing.T) {
	rel := mustQuery(t, "SELECT name FROM emp WHERE name LIKE 'a%'")
	if len(rel.Rows) != 1 || rel.Rows[0][0].S != "ann" {
		t.Errorf("like = %v", rowStrings(rel))
	}
	rel = mustQuery(t, "SELECT name FROM emp WHERE name LIKE '_a_'")
	if len(rel.Rows) != 2 { // cat, dan
		t.Errorf("underscore like = %v", rowStrings(rel))
	}
	rel = mustQuery(t, "SELECT name FROM emp WHERE name NOT LIKE '%a%'")
	if len(rel.Rows) != 2 { // bob, eve
		t.Errorf("not like = %v", rowStrings(rel))
	}
}

func TestBetween(t *testing.T) {
	rel := mustQuery(t, "SELECT name FROM emp WHERE salary BETWEEN 75 AND 95")
	if len(rel.Rows) != 2 { // bob, cat
		t.Errorf("between = %v", rowStrings(rel))
	}
}

func TestScalarFunctions(t *testing.T) {
	rel := mustQuery(t, "SELECT ABS( -5 ) , UPPER( 'ab' ) , LOWER( 'AB' ) , LEN( 'abc' ) , SQRT( 16 ) , COALESCE( NULL , 7 )")
	row := rel.Rows[0]
	if row[0].I != 5 || row[1].S != "AB" || row[2].S != "ab" || row[3].I != 3 || row[4].F != 4 || row[5].I != 7 {
		t.Errorf("functions = %v", rowStrings(rel))
	}
	// Unknown functions are deterministic.
	a := mustQuery(t, "SELECT fMagic( 1 , 2 )")
	b := mustQuery(t, "SELECT fMagic( 1 , 2 )")
	if a.Rows[0][0] != b.Rows[0][0] {
		t.Error("unknown function not deterministic")
	}
}

func TestRoundPlaces(t *testing.T) {
	for _, tc := range []struct {
		sql  string
		want float64
	}{
		{"SELECT ROUND( 1.2345 , 2 )", 1.23},
		{"SELECT ROUND( 1.2355 , 3 )", 1.236},
		{"SELECT ROUND( 2.5 )", 3},
		{"SELECT ROUND( 2.5 , 0 )", 3},
		{"SELECT ROUND( 1234 , -1 )", 1230},
		{"SELECT ROUND( 1250 , -2 )", 1300},
		{"SELECT ROUND( -1234.5 , -2 )", -1200},
		{"SELECT ROUND( 1.5 , 400 )", 1.5},
		{"SELECT ROUND( 1.5 , -400 )", 0},
	} {
		v := mustQuery(t, tc.sql).Rows[0][0]
		if v.Null || v.AsFloat() != tc.want {
			t.Errorf("%s = %v, want %v", tc.sql, v, tc.want)
		}
	}
	if v := mustQuery(t, "SELECT ROUND( 1.5 , NULL )").Rows[0][0]; !v.Null {
		t.Errorf("ROUND( 1.5 , NULL ) = %v, want NULL", v)
	}
}

func TestCast(t *testing.T) {
	rel := mustQuery(t, "SELECT CAST( '12' AS INT ) , CAST( 3.9 AS INT ) , CAST( 5 AS FLOAT ) , CAST( 7 AS VARCHAR(10) )")
	row := rel.Rows[0]
	if row[0].I != 12 || row[1].I != 3 || row[2].F != 5 || row[3].S != "7" {
		t.Errorf("cast = %v", rowStrings(rel))
	}
}

func TestErrors(t *testing.T) {
	e := New(testDB())
	for _, sql := range []string{
		"SELECT x FROM nosuch",
		"SELECT nosuchcol FROM emp",
		"SELECT name FROM emp UNION SELECT name , budget FROM dept",
		"SELECT q.* FROM emp AS e",
	} {
		if _, err := e.QuerySQL(sql); err == nil {
			t.Errorf("QuerySQL(%q) should fail", sql)
		}
	}
}

func TestRowCapEnforced(t *testing.T) {
	e := New(testDB())
	e.MaxRows = 10
	_, err := e.QuerySQL("SELECT * FROM emp AS a CROSS JOIN emp AS b CROSS JOIN emp AS c")
	if err == nil {
		t.Error("row cap not enforced")
	}
}

func TestOpsCounterAdvances(t *testing.T) {
	e := New(testDB())
	if _, err := e.QuerySQL("SELECT * FROM emp AS a JOIN dept AS d ON a.dept = d.name"); err != nil {
		t.Fatal(err)
	}
	if e.Ops() == 0 {
		t.Error("ops counter did not advance")
	}
}

func TestEqualRelations(t *testing.T) {
	a := &Relation{Cols: []Col{{Name: "x"}}, Rows: [][]Value{{IntVal(1)}, {IntVal(2)}}}
	b := &Relation{Cols: []Col{{Name: "y"}}, Rows: [][]Value{{IntVal(2)}, {IntVal(1)}}}
	if !EqualRelations(a, b, false) {
		t.Error("multiset equality failed")
	}
	if EqualRelations(a, b, true) {
		t.Error("ordered equality should fail")
	}
	c := &Relation{Cols: []Col{{Name: "x"}}, Rows: [][]Value{{IntVal(1)}, {IntVal(1)}}}
	if EqualRelations(a, c, false) {
		t.Error("different multisets compared equal")
	}
}

func TestValueCompare(t *testing.T) {
	if Compare(IntVal(1), FloatVal(1.0)) != 0 {
		t.Error("int/float equality failed")
	}
	if Compare(NullValue, IntVal(0)) != -1 {
		t.Error("null should sort first")
	}
	if Equal(NullValue, NullValue) {
		t.Error("NULL must not equal NULL")
	}
	if Compare(TextVal("a"), TextVal("b")) != -1 {
		t.Error("text compare failed")
	}
	if Compare(BoolVal(false), BoolVal(true)) != -1 {
		t.Error("bool compare failed")
	}
}

func TestAggregateOnEmptyInput(t *testing.T) {
	rel := mustQuery(t, "SELECT COUNT(*) , SUM( salary ) FROM emp WHERE id > 100")
	if rel.Rows[0][0].I != 0 || !rel.Rows[0][1].Null {
		t.Errorf("empty aggregates = %v", rowStrings(rel))
	}
}

func TestGroupByExpressionKey(t *testing.T) {
	rel := mustQuery(t, "SELECT salary > 85 , COUNT(*) FROM emp WHERE salary IS NOT NULL GROUP BY salary > 85 ORDER BY COUNT(*) ASC")
	if len(rel.Rows) != 2 {
		t.Errorf("expr group = %v", rowStrings(rel))
	}
}

func BenchmarkHashJoin(b *testing.B) {
	db := testDB()
	e := New(db)
	sql := "SELECT e.name , d.budget FROM emp AS e JOIN dept AS d ON e.dept = d.name"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.QuerySQL(sql); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupBy(b *testing.B) {
	e := New(testDB())
	sql := "SELECT dept , COUNT(*) , AVG( salary ) FROM emp GROUP BY dept"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.QuerySQL(sql); err != nil {
			b.Fatal(err)
		}
	}
}
