package sqlparse

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sqlast"
)

// roundTrip parses sql, prints it, reparses, and reprints, asserting the
// printed form is a fixpoint.
func roundTrip(t *testing.T, sql string) string {
	t.Helper()
	stmt, err := ParseStatement(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	printed := sqlast.Print(stmt)
	stmt2, err := ParseStatement(printed)
	if err != nil {
		t.Fatalf("reparse %q: %v", printed, err)
	}
	printed2 := sqlast.Print(stmt2)
	if printed != printed2 {
		t.Fatalf("print not a fixpoint:\n first: %s\nsecond: %s", printed, printed2)
	}
	return printed
}

func TestParseSimpleSelect(t *testing.T) {
	sel, err := ParseSelect("SELECT plate, mjd FROM SpecObj WHERE z > 0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Items) != 2 {
		t.Errorf("items = %d, want 2", len(sel.Items))
	}
	if len(sel.From) != 1 {
		t.Errorf("from = %d, want 1", len(sel.From))
	}
	bin, ok := sel.Where.(*sqlast.Binary)
	if !ok || bin.Op != ">" {
		t.Errorf("where = %#v, want > comparison", sel.Where)
	}
}

// The paper's example queries (Listings 1-3) must all parse.
func TestParsePaperListings(t *testing.T) {
	queries := []string{
		// Listing 1 (syntax-error examples are still lexically/grammatically valid SQL)
		"SELECT plate , mjd , COUNT(*) , AVG( z ) FROM SpecObj WHERE z > 0.5",
		"SELECT plate , COUNT(*) AS NumSpectra FROM SpecObj GROUP BY plate HAVING z > 0.5",
		"SELECT p.ra , p.dec , s.z FROM PhotoObj AS p JOIN SpecObj AS s ON s.bestobjid = ( SELECT bestobjid FROM SpecObj )",
		"SELECT plate , mjd , fiberid FROM SpecObj WHERE z = 'high'",
		"SELECT s.plate , s.mjd , z FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = photoobj.bestobjid",
		"SELECT plate , fid FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = p.bestobjid WHERE bestobjid > 1000",
		// Listing 2
		"SELECT s.plate , s.mjd FROM SpecObj AS s WHERE s.plate IN ( SELECT p.plate FROM PhotoObj AS p WHERE p.ra > 180 )",
		"SELECT p.plate , p.mjd FROM PhotoObj AS p WHERE p.ra > 180 AND p.plate IN ( SELECT s.plate FROM SpecObj AS s )",
		"SELECT s.fiberid FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = p.objid WHERE p.ra > 180",
		"SELECT fiberid FROM SpecObj WHERE bestobjid IN ( SELECT objid FROM PhotoObj WHERE ra > 180 )",
		"WITH HighRedshift AS ( SELECT plate , mjd FROM SpecObj WHERE z > 0.5 ) SELECT plate , mjd FROM HighRedshift",
		"SELECT * FROM SpecObj WHERE plate = 1000 AND mjd > 55000",
		"SELECT plate , AVG( z ) FROM SpecObj GROUP BY plate",
		"SELECT s.plate , s.mjd FROM SpecObj AS s LEFT JOIN PhotoObj AS p ON s.bestobjid = p.objid",
		"SELECT plate , mjd , fiberid FROM SpecObj WHERE z > 0.5 OR ra > 180",
		// Listing 3
		"SELECT count (*) , cName FROM tryout GROUP BY cName ORDER BY count (*) DESC",
		"SELECT count (*) , student_course_id FROM Transcript_Cnt GROUP BY student_course_id ORDER BY count (*) DESC LIMIT 1",
		"SELECT S.name , S.loc FROM concert AS C JOIN stadium AS S ON C.stadium_id = S.stadium_id WHERE C.Year = 2014 INTERSECT SELECT S.name , S.loc FROM concert AS C JOIN stadium AS S ON C.stadium_id = S.stadium_id WHERE C.Year = 2015",
		"SELECT C.cylinders FROM CARS_DATA AS C JOIN CAR_NAMES AS T ON C.Id = T.MakeId WHERE T.Model = 'volvo' ORDER BY C.accelerate ASC LIMIT 1",
	}
	for i, q := range queries {
		roundTrip(t, q)
		_ = i
	}
}

func TestParseDistinctTopLimitOffset(t *testing.T) {
	sel, err := ParseSelect("SELECT DISTINCT TOP 10 a FROM t ORDER BY a DESC LIMIT 5 OFFSET 2")
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Distinct || sel.Top == nil || *sel.Top != 10 {
		t.Errorf("distinct/top wrong: %+v", sel)
	}
	if sel.Limit == nil || *sel.Limit != 5 || sel.Offset == nil || *sel.Offset != 2 {
		t.Errorf("limit/offset wrong")
	}
	if len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc {
		t.Errorf("order by wrong")
	}
}

func TestParseJoins(t *testing.T) {
	for _, q := range []string{
		"SELECT * FROM a JOIN b ON a.x = b.x",
		"SELECT * FROM a INNER JOIN b ON a.x = b.x",
		"SELECT * FROM a LEFT JOIN b ON a.x = b.x",
		"SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.x",
		"SELECT * FROM a RIGHT JOIN b ON a.x = b.x",
		"SELECT * FROM a FULL OUTER JOIN b ON a.x = b.x",
		"SELECT * FROM a CROSS JOIN b",
		"SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y",
		"SELECT * FROM a , b WHERE a.x = b.x",
	} {
		roundTrip(t, q)
	}
}

func TestParseJoinTree(t *testing.T) {
	sel, err := ParseSelect("SELECT * FROM a JOIN b ON a.x = b.x LEFT JOIN c ON b.y = c.y")
	if err != nil {
		t.Fatal(err)
	}
	outer, ok := sel.From[0].(*sqlast.Join)
	if !ok || outer.Type != "LEFT" {
		t.Fatalf("outer join = %#v, want LEFT", sel.From[0])
	}
	inner, ok := outer.Left.(*sqlast.Join)
	if !ok || inner.Type != "INNER" {
		t.Fatalf("inner join = %#v, want INNER", outer.Left)
	}
}

func TestParseSubqueries(t *testing.T) {
	for _, q := range []string{
		"SELECT a FROM t WHERE a IN ( SELECT b FROM u )",
		"SELECT a FROM t WHERE a NOT IN ( 1 , 2 , 3 )",
		"SELECT a FROM t WHERE EXISTS ( SELECT 1 FROM u WHERE u.x = t.x )",
		"SELECT a FROM t WHERE a = ( SELECT MAX( b ) FROM u )",
		"SELECT a FROM ( SELECT a FROM t WHERE a > 1 ) AS sub WHERE a < 10",
		"SELECT a FROM t WHERE a IN ( SELECT b FROM u WHERE b IN ( SELECT c FROM v ) )",
	} {
		roundTrip(t, q)
	}
}

func TestParseSetOps(t *testing.T) {
	sel, err := ParseSelect("SELECT a FROM t UNION ALL SELECT a FROM u EXCEPT SELECT a FROM v")
	if err != nil {
		t.Fatal(err)
	}
	if sel.SetOp == nil || sel.SetOp.Op != "UNION" || !sel.SetOp.All {
		t.Fatalf("first set op = %+v", sel.SetOp)
	}
	if sel.SetOp.Right.SetOp == nil || sel.SetOp.Right.SetOp.Op != "EXCEPT" {
		t.Fatalf("second set op missing")
	}
}

func TestParseCTE(t *testing.T) {
	sel, err := ParseSelect("WITH x ( a , b ) AS ( SELECT 1 , 2 ) , y AS ( SELECT a FROM x ) SELECT * FROM y")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.With) != 2 {
		t.Fatalf("ctes = %d, want 2", len(sel.With))
	}
	if len(sel.With[0].Columns) != 2 {
		t.Errorf("cte columns = %v", sel.With[0].Columns)
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	sel, err := ParseSelect("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
	if err != nil {
		t.Fatal(err)
	}
	or, ok := sel.Where.(*sqlast.Binary)
	if !ok || or.Op != "OR" {
		t.Fatalf("top = %#v, want OR", sel.Where)
	}
	and, ok := or.R.(*sqlast.Binary)
	if !ok || and.Op != "AND" {
		t.Fatalf("right of OR = %#v, want AND", or.R)
	}
	// Arithmetic: 1 + 2 * 3 parses as 1 + (2*3)
	sel, err = ParseSelect("SELECT 1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	add := sel.Items[0].Expr.(*sqlast.Binary)
	if add.Op != "+" {
		t.Fatalf("top op = %s", add.Op)
	}
	if mul, ok := add.R.(*sqlast.Binary); !ok || mul.Op != "*" {
		t.Fatalf("right = %#v", add.R)
	}
}

func TestParseParenthesesOverridePrecedence(t *testing.T) {
	printed := roundTrip(t, "SELECT a FROM t WHERE ( a = 1 OR b = 2 ) AND c = 3")
	sel, _ := ParseSelect(printed)
	and := sel.Where.(*sqlast.Binary)
	if and.Op != "AND" {
		t.Fatalf("top = %s, want AND", and.Op)
	}
	if or, ok := and.L.(*sqlast.Binary); !ok || or.Op != "OR" {
		t.Fatalf("left = %#v, want OR", and.L)
	}
}

func TestParseCaseCastFunctions(t *testing.T) {
	for _, q := range []string{
		"SELECT CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END FROM t",
		"SELECT CASE a WHEN 1 THEN 'one' WHEN 2 THEN 'two' END FROM t",
		"SELECT CAST( a AS INT ) FROM t",
		"SELECT CAST( a AS VARCHAR(32) ) FROM t",
		"SELECT COUNT(*) , COUNT(DISTINCT a) , SUM( a + b ) FROM t",
		"SELECT dbo.fGetNearbyObjEq( 180 , 0 , 1 ) FROM t",
	} {
		roundTrip(t, q)
	}
}

func TestParseBetweenLikeIsNull(t *testing.T) {
	for _, q := range []string{
		"SELECT a FROM t WHERE a BETWEEN 1 AND 10",
		"SELECT a FROM t WHERE a NOT BETWEEN 1 AND 10",
		"SELECT a FROM t WHERE name LIKE '%gal%'",
		"SELECT a FROM t WHERE name NOT LIKE 'x%'",
		"SELECT a FROM t WHERE a IS NULL",
		"SELECT a FROM t WHERE a IS NOT NULL",
	} {
		roundTrip(t, q)
	}
}

func TestParseTSQLStatements(t *testing.T) {
	for _, q := range []string{
		"DECLARE @x INT",
		"DECLARE @x FLOAT = 0.5",
		"SET @x = 10",
		"EXEC dbo.spGetNeighbors 180 , 0",
		"DROP TABLE results",
		"DROP VIEW v",
		"WAITFOR DELAY '00:00:05'",
		"CREATE TABLE t ( a INT , b VARCHAR(20) )",
		"CREATE TABLE t AS SELECT a FROM u",
		"CREATE VIEW v AS SELECT a FROM t",
		"INSERT INTO t ( a , b ) VALUES ( 1 , 'x' ) , ( 2 , 'y' )",
		"INSERT INTO t SELECT a , b FROM u",
		"UPDATE t SET a = 1 , b = 'x' WHERE c > 0",
		"DELETE FROM t WHERE a = 1",
	} {
		roundTrip(t, q)
	}
}

func TestParseQuotedIdentifiers(t *testing.T) {
	for _, q := range []string{
		`SELECT [My Column] FROM [My Table]`,
		`SELECT "col" FROM "table"`,
	} {
		stmt, err := ParseStatement(q)
		if err != nil {
			t.Errorf("parse %q: %v", q, err)
			continue
		}
		if stmt == nil {
			t.Errorf("nil stmt for %q", q)
		}
	}
}

func TestParseQualifiedNames(t *testing.T) {
	sel, err := ParseSelect("SELECT dbo.t.a , s.b FROM dbo.t , s")
	if err != nil {
		t.Fatal(err)
	}
	cr := sel.Items[0].Expr.(*sqlast.ColumnRef)
	if cr.Table != "dbo.t" || cr.Name != "a" {
		t.Errorf("qualified ref = %+v", cr)
	}
	tn := sel.From[0].(*sqlast.TableName)
	if tn.Name != "dbo.t" {
		t.Errorf("table name = %q", tn.Name)
	}
}

func TestParseStarVariants(t *testing.T) {
	sel, err := ParseSelect("SELECT * , t.* , a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sel.Items[0].Expr.(*sqlast.Star); !ok {
		t.Errorf("item 0 = %#v, want Star", sel.Items[0].Expr)
	}
	st, ok := sel.Items[1].Expr.(*sqlast.Star)
	if !ok || st.Table != "t" {
		t.Errorf("item 1 = %#v, want t.*", sel.Items[1].Expr)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP a",
		"SELECT a FROM t ORDER a",
		"SELECT a a a a FROM t",
		"SELECT ( a FROM t",
		"SELECT a FROM t WHERE a IN ( SELECT b FROM u",
		"CREATE t ( a INT )",
		"INSERT t VALUES ( 1 )",
		"SELECT a FROM t JOIN u",
		"SELECT a BETWEEN 1 , 2",
		"SELECT a FROM t WHERE NOT",
		"SELECT CASE END",
	}
	for _, q := range cases {
		_, err := ParseStatement(q)
		if err == nil {
			t.Errorf("ParseStatement(%q) succeeded, want error", q)
			continue
		}
		if !errors.Is(err, ErrSyntax) {
			t.Errorf("ParseStatement(%q) error %v does not wrap ErrSyntax", q, err)
		}
	}
}

// TestParseErrorMessages pins the text of parse errors, with and without
// an argument in the message: a ParseError formats its message only when
// Error is called.
func TestParseErrorMessages(t *testing.T) {
	for _, c := range []struct{ sql, want string }{
		{"", "syntax error at 0:0: expected a statement keyword (at end of input)"},
		{"SELEC a FROM t", `syntax error at 1:1: expected a statement keyword (near "SELEC")`},
		{"FROM t", `syntax error at 1:1: unsupported statement FROM (near "FROM")`},
		{"SELECT a FROM t WHERE", "syntax error at 1:22: unexpected token in expression (at end of input)"},
		{"SELECT a FROM t GROUP a", `syntax error at 1:23: expected BY (near "a")`},
		{"SELECT ( a FROM t", `syntax error at 1:12: expected ')' (near "FROM")`},
		{"SELECT TOP 1.5 a FROM t", `syntax error at 1:16: expected integer, got "1.5" (near "a")`},
		{"SELECT a FROM t WHERE b = FROM", `syntax error at 1:27: unexpected keyword FROM in expression (near "FROM")`},
		{"SELECT CASE a END FROM t", `syntax error at 1:15: CASE requires at least one WHEN arm (near "END")`},
		{"SELECT a FROM t x y", `syntax error at 1:19: unexpected trailing input (near "y")`},
		{"SELECT " + strings.Repeat("(", 200) + "1" + strings.Repeat(")", 200) + " FROM t",
			`syntax error at 1:134: nesting exceeds 128 levels (near "(")`},
	} {
		_, err := ParseStatement(c.sql)
		if err == nil || err.Error() != c.want {
			t.Errorf("ParseStatement(%q) error = %v, want %s", c.sql, err, c.want)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := ParseStatement("SELECT a FROM t WHERE >")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T, want *ParseError", err)
	}
	if pe.Pos.Line != 1 || pe.Pos.Col == 0 {
		t.Errorf("position = %v", pe.Pos)
	}
	if !strings.Contains(pe.Error(), "syntax error") {
		t.Errorf("message = %q", pe.Error())
	}
}

// An AS after a table that no identifier follows is not an alias: the
// parser leaves it in place (it never steps back) and the statement fails
// on it.
func TestParseTableAliasASWithoutIdentifier(t *testing.T) {
	cases := map[string]string{
		"SELECT a FROM t AS WHERE x = 1":           "syntax error at 1:17: unexpected trailing input (near \"AS\")",
		"SELECT a FROM t AS":                       "syntax error at 1:17: unexpected trailing input (near \"AS\")",
		"SELECT a FROM t AS 5":                     "syntax error at 1:17: unexpected trailing input (near \"AS\")",
		"SELECT a FROM ( SELECT b FROM u ) AS , v": "syntax error at 1:35: unexpected trailing input (near \"AS\")",
	}
	for q, want := range cases {
		if _, err := ParseStatement(q); err == nil || err.Error() != want {
			t.Errorf("ParseStatement(%q) = %v, want %s", q, err, want)
		}
	}
	sel, err := ParseSelect(`SELECT a FROM t AS [q] , u AS "v" , w x`)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"q", "v", "x"} {
		if got := sel.From[i].(*sqlast.TableName).Alias; got != want {
			t.Errorf("table %d alias = %q, want %q", i, got, want)
		}
	}
}

func TestParseSelectRejectsNonSelect(t *testing.T) {
	if _, err := ParseSelect("DROP TABLE t"); err == nil {
		t.Error("ParseSelect accepted DROP")
	}
}

func TestParseAll(t *testing.T) {
	stmts, err := ParseAll("DECLARE @x INT ; SET @x = 5 ; SELECT @x")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements, want 3", len(stmts))
	}
}

func TestParseAllTrailingSemi(t *testing.T) {
	stmts, err := ParseAll("SELECT 1 ;")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 1 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestParseComments(t *testing.T) {
	roundTrip(t, "-- leading comment\nSELECT a FROM t /* inline */ WHERE a > 1")
}

// Property: printing a random AST and parsing it back yields the same
// printed form (print∘parse is identity on printed output).
func TestRoundTripRandomASTs(t *testing.T) {
	r := rand.New(rand.NewSource(12345))
	for i := 0; i < 400; i++ {
		sel := sqlast.RandSelect(r)
		printed := sqlast.Print(sel)
		stmt, err := ParseStatement(printed)
		if err != nil {
			t.Fatalf("iteration %d: parse %q: %v", i, printed, err)
		}
		printed2 := sqlast.Print(stmt)
		if printed != printed2 {
			t.Fatalf("iteration %d: round trip changed output:\n in: %s\nout: %s", i, printed, printed2)
		}
	}
}

// Property: cloning never aliases — mutating the clone leaves the original's
// printed form unchanged.
func TestCloneIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		sel := sqlast.RandSelect(r)
		before := sqlast.Print(sel)
		clone := sqlast.CloneSelect(sel)
		// Mutate the clone aggressively.
		clone.Distinct = !clone.Distinct
		clone.Items = append(clone.Items, sqlast.SelectItem{Expr: sqlast.Number("42")})
		if clone.Where != nil {
			clone.Where = &sqlast.Unary{Op: "NOT", X: clone.Where}
		}
		if after := sqlast.Print(sel); after != before {
			t.Fatalf("iteration %d: original mutated:\nbefore: %s\n after: %s", i, before, after)
		}
	}
}

func BenchmarkParseSimple(b *testing.B) {
	q := "SELECT plate , mjd FROM SpecObj WHERE z > 0.5"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseStatement(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseComplex(b *testing.B) {
	q := "WITH hz AS ( SELECT plate , mjd FROM SpecObj WHERE z > 0.5 ) " +
		"SELECT s.plate , COUNT(*) AS n FROM hz AS s JOIN PhotoObj AS p ON s.plate = p.plate " +
		"WHERE p.ra BETWEEN 100 AND 200 AND p.dec > 0 GROUP BY s.plate HAVING COUNT(*) > 5 ORDER BY n DESC LIMIT 10"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseStatement(q); err != nil {
			b.Fatal(err)
		}
	}
}
