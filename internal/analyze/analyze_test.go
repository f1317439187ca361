package analyze

import (
	"math/rand"
	"testing"

	"repro/internal/sqlast"
)

func TestComputeSimple(t *testing.T) {
	sql := "SELECT plate , mjd FROM SpecObj WHERE z > 0.5"
	p := Compute(sql)
	if p.QueryType != "SELECT" {
		t.Errorf("QueryType = %q", p.QueryType)
	}
	if p.CharCount != len(sql) {
		t.Errorf("CharCount = %d, want %d", p.CharCount, len(sql))
	}
	if p.WordCount != 10 {
		t.Errorf("WordCount = %d, want 10", p.WordCount)
	}
	if p.TableCount != 1 {
		t.Errorf("TableCount = %d, want 1", p.TableCount)
	}
	if p.ColumnCount != 2 {
		t.Errorf("ColumnCount = %d, want 2", p.ColumnCount)
	}
	if p.PredicateCount != 1 {
		t.Errorf("PredicateCount = %d, want 1", p.PredicateCount)
	}
	if p.Nestedness != 0 || p.Aggregate || p.JoinCount != 0 || p.FunctionCount != 0 {
		t.Errorf("unexpected: %+v", p)
	}
}

func TestQueryTypes(t *testing.T) {
	cases := map[string]string{
		"SELECT 1":                               "SELECT",
		"WITH c AS ( SELECT 1 ) SELECT * FROM c": "WITH",
		"CREATE TABLE t ( a INT )":               "CREATE",
		"CREATE VIEW v AS SELECT 1":              "CREATE",
		"INSERT INTO t VALUES ( 1 )":             "INSERT",
		"UPDATE t SET a = 1":                     "UPDATE",
		"DELETE FROM t":                          "DELETE",
		"DECLARE @x INT":                         "DECLARE",
		"SET @x = 1":                             "SET",
		"EXEC sp 1":                              "EXEC",
		"DROP TABLE t":                           "DROP",
		"WAITFOR DELAY '00:00:01'":               "WAITFOR",
	}
	for sql, want := range cases {
		if got := Compute(sql).QueryType; got != want {
			t.Errorf("QueryType(%q) = %q, want %q", sql, got, want)
		}
	}
}

func TestJoinCounting(t *testing.T) {
	cases := map[string]int{
		"SELECT * FROM a JOIN b ON a.x = b.x":                                1,
		"SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y":            2,
		"SELECT * FROM a , b WHERE a.x = b.x":                                1,
		"SELECT * FROM a , b , c":                                            2,
		"SELECT * FROM a":                                                    0,
		"SELECT * FROM a LEFT JOIN b ON a.x = b.x , c":                       2,
		"SELECT * FROM a WHERE x IN ( SELECT y FROM b JOIN c ON b.i = c.i )": 1,
	}
	for sql, want := range cases {
		if got := Compute(sql).JoinCount; got != want {
			t.Errorf("JoinCount(%q) = %d, want %d", sql, got, want)
		}
	}
}

func TestTableCountDistinctAndCTE(t *testing.T) {
	// Same table twice counts once.
	if got := Compute("SELECT * FROM a AS x JOIN a AS y ON x.i = y.i").TableCount; got != 1 {
		t.Errorf("self-join TableCount = %d, want 1", got)
	}
	// CTE references are not base tables.
	sql := "WITH c AS ( SELECT * FROM base ) SELECT * FROM c"
	if got := Compute(sql).TableCount; got != 1 {
		t.Errorf("cte TableCount = %d, want 1 (only base)", got)
	}
	// Schema-qualified and bare names collapse.
	if got := Compute("SELECT * FROM dbo.t JOIN t AS u ON t.a = u.a").TableCount; got != 1 {
		t.Errorf("qualified TableCount = %d, want 1", got)
	}
}

func TestPredicateCounting(t *testing.T) {
	cases := map[string]int{
		"SELECT a FROM t WHERE a = 1":                                     1,
		"SELECT a FROM t WHERE a = 1 AND b = 2":                           2,
		"SELECT a FROM t WHERE a = 1 AND b = 2 OR c = 3":                  3,
		"SELECT a FROM t WHERE NOT a = 1":                                 1,
		"SELECT a FROM t WHERE a BETWEEN 1 AND 2":                         1,
		"SELECT a FROM t WHERE a IN ( 1 , 2 )":                            1,
		"SELECT a FROM t WHERE a IS NULL AND b LIKE 'x%'":                 2,
		"SELECT a FROM t":                                                 0,
		"SELECT a FROM t WHERE a IN ( SELECT b FROM u WHERE c = 1 )":      2,
		"SELECT a FROM t WHERE ( a = 1 OR b = 2 ) AND ( c = 3 OR d = 4 )": 4,
	}
	for sql, want := range cases {
		if got := Compute(sql).PredicateCount; got != want {
			t.Errorf("PredicateCount(%q) = %d, want %d", sql, got, want)
		}
	}
}

func TestNestedness(t *testing.T) {
	cases := map[string]int{
		"SELECT a FROM t": 0,
		"SELECT a FROM t WHERE a IN ( SELECT b FROM u )":                                1,
		"SELECT a FROM t WHERE a IN ( SELECT b FROM u WHERE b IN ( SELECT c FROM v ) )": 2,
		"SELECT a FROM ( SELECT a FROM t ) AS s":                                        1,
		"WITH c AS ( SELECT a FROM t ) SELECT a FROM c":                                 1,
		"SELECT a FROM t WHERE EXISTS ( SELECT 1 FROM u )":                              1,
		"SELECT ( SELECT MAX( b ) FROM u ) FROM t":                                      1,
		// A set-operation branch is a peer, not a nested subquery.
		"SELECT a FROM t UNION SELECT b FROM u":                                        0,
		"WITH c AS ( SELECT a FROM t WHERE a IN ( SELECT b FROM u ) ) SELECT a FROM c": 2,
	}
	for sql, want := range cases {
		if got := Compute(sql).Nestedness; got != want {
			t.Errorf("Nestedness(%q) = %d, want %d", sql, got, want)
		}
	}
}

func TestFunctionAndAggregate(t *testing.T) {
	p := Compute("SELECT COUNT(*) , AVG( z ) , ABS( ra ) FROM t GROUP BY plate")
	if p.FunctionCount != 3 {
		t.Errorf("FunctionCount = %d, want 3", p.FunctionCount)
	}
	if !p.Aggregate {
		t.Error("Aggregate = false")
	}
	p = Compute("SELECT ABS( ra ) FROM t")
	if p.Aggregate {
		t.Error("ABS should not mark aggregate")
	}
}

func TestColumnCountDistinct(t *testing.T) {
	p := Compute("SELECT a , b , a + b , UPPER( c ) FROM t")
	if p.ColumnCount != 3 {
		t.Errorf("ColumnCount = %d, want 3 (a,b,c)", p.ColumnCount)
	}
	// Star contributes no named columns.
	if got := Compute("SELECT * FROM t").ColumnCount; got != 0 {
		t.Errorf("star ColumnCount = %d, want 0", got)
	}
	// Subquery select items count too (collected per SELECT).
	p = Compute("SELECT a FROM t WHERE x IN ( SELECT b FROM u )")
	if p.ColumnCount != 2 {
		t.Errorf("nested ColumnCount = %d, want 2", p.ColumnCount)
	}
}

func TestLexicalFallback(t *testing.T) {
	// Token-removal damage: unparsable but still measurable.
	p := Compute("SELECT plate , FROM SpecObj WHERE z >")
	if p.WordCount != 8 {
		t.Errorf("WordCount = %d, want 8", p.WordCount)
	}
	if p.QueryType != "SELECT" {
		t.Errorf("QueryType = %q, want SELECT", p.QueryType)
	}
	p = Compute("COUNT( mangled")
	if p.QueryType != "UNKNOWN" {
		t.Errorf("QueryType = %q, want UNKNOWN", p.QueryType)
	}
}

func TestVectorOrder(t *testing.T) {
	p := Properties{CharCount: 1, WordCount: 2, TableCount: 3, JoinCount: 4,
		ColumnCount: 5, FunctionCount: 6, PredicateCount: 7, Nestedness: 8}
	v := p.Vector()
	if len(v) != len(CorrelationProperties) {
		t.Fatalf("vector length %d != properties %d", len(v), len(CorrelationProperties))
	}
	for i, want := range []float64{1, 2, 3, 4, 5, 6, 7, 8} {
		if v[i] != want {
			t.Errorf("Vector[%d] = %v, want %v", i, v[i], want)
		}
	}
}

// Property: Compute never panics and always yields sane bounds on random
// generated ASTs.
func TestComputeRandomASTs(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		sel := sqlast.RandSelect(r)
		sql := sqlast.Print(sel)
		p := Compute(sql)
		if p.CharCount != len(sql) {
			t.Fatalf("CharCount mismatch for %q", sql)
		}
		if p.WordCount <= 0 {
			t.Fatalf("WordCount = %d for %q", p.WordCount, sql)
		}
		if p.TableCount < 0 || p.Nestedness < 0 || p.PredicateCount < 0 {
			t.Fatalf("negative property: %+v", p)
		}
		if p.Nestedness > 6 {
			t.Fatalf("absurd nestedness %d for %q", p.Nestedness, sql)
		}
	}
}
