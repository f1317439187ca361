package engine_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/analyze"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/equiv"
	"repro/internal/semcheck"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
)

// nestings builds, for each way the grammar nests, a statement nested n
// levels deep that way: the forms of sqlparse's TestNestingBound.
var nestings = map[string]func(n int) string{
	"parentheses": func(n int) string {
		return "SELECT " + strings.Repeat("( ", n) + "1" + strings.Repeat(" )", n) + " FROM t"
	},
	"NOT":  func(n int) string { return "SELECT a FROM t WHERE " + strings.Repeat("NOT ", n) + "a = 1" },
	"sign": func(n int) string { return "SELECT " + strings.Repeat("- ", n) + "1 FROM t" },
	"additive chain": func(n int) string {
		return "SELECT 1" + strings.Repeat(" + 1", n) + " FROM t"
	},
	"AND chain":     func(n int) string { return "SELECT a FROM t WHERE a = 1" + strings.Repeat(" AND a = 1", n) },
	"IS NULL chain": func(n int) string { return "SELECT a FROM t WHERE a" + strings.Repeat(" IS NULL", n) },
	"BETWEEN chain": func(n int) string {
		return "SELECT a FROM t WHERE a" + strings.Repeat(" BETWEEN 1 AND 2", n)
	},
	"nested chains": func(n int) string {
		return "SELECT " + strings.Repeat("( ", n) + "1" + strings.Repeat(" * 2 + 1 )", n) + " FROM t"
	},
	"functions": func(n int) string {
		return "SELECT " + strings.Repeat("ABS ( ", n) + "1" + strings.Repeat(" )", n) + " FROM t"
	},
	"scalar subqueries": func(n int) string {
		return "SELECT " + strings.Repeat("( SELECT ", n) + "1" + strings.Repeat(" )", n) + " FROM t"
	},
	"derived tables": func(n int) string {
		return "SELECT a FROM " + strings.Repeat("( SELECT a FROM ", n) + "t" + strings.Repeat(" ) AS d", n)
	},
	"join chain": func(n int) string { return "SELECT a FROM t" + strings.Repeat(" JOIN u ON t.a = u.a", n) },
	"join trees": func(n int) string {
		return "SELECT a FROM " + strings.Repeat("( ", n) + "t" + strings.Repeat(" JOIN u ON t.a = u.a )", n)
	},
	"set operations": func(n int) string { return "SELECT 1" + strings.Repeat(" UNION SELECT 1", n) },
	"CTEs": func(n int) string {
		return strings.Repeat("WITH c AS ( ", n) + "SELECT 1" + strings.Repeat(" ) SELECT a FROM c", n)
	},
}

// Every consumer of the tree returns within a second, without a panic, on
// the deepest statement of each nesting form that the parser accepts: the
// parser's nesting bound keeps every walker of the tree off the stack's
// limit. The engines run over one-row tables, so nested subqueries and join
// chains stay linear.
func TestConsumersAtNestingBound(t *testing.T) {
	schema := catalog.NewSchema("nesting")
	schema.Add(catalog.T("t", "a", catalog.TypeInt))
	schema.Add(catalog.T("u", "a", catalog.TypeInt))
	db := datagen.Instance(schema, datagen.Config{Seed: 1, Rows: 1})
	checker := semcheck.New(schema)
	for form, build := range nestings {
		var sql string
		var sel *sqlast.SelectStmt
		n := 1
		for ; n < 256; n++ {
			stmt, err := sqlparse.ParseStatement(build(n))
			if err != nil {
				break
			}
			sql, sel = build(n), stmt.(*sqlast.SelectStmt)
		}
		if n < 40 || n == 256 {
			t.Fatalf("%s: the parser accepts up to %d levels, want at least 40 and a bound", form, n-1)
		}
		for _, c := range []struct {
			name string
			run  func()
		}{
			{"sqlast.WalkLevel", func() { sqlast.WalkLevel(sel, func(sqlast.Node) bool { return true }) }},
			{"semcheck.Check", func() { checker.Check(sel) }},
			{"analyze.ComputeStmt", func() { analyze.ComputeStmt(sel, sql) }},
			{"equiv.RuleEquivalent", func() {
				if !equiv.RuleEquivalent(sel, sel) {
					t.Errorf("%s at %d levels: not rule-equivalent to itself", form, n-1)
				}
			}},
			{"engine.New", func() { _, _ = engine.New(db).Query(sel) }},
		} {
			start := time.Now()
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s at %d levels: %s panics: %v", form, n-1, c.name, r)
					}
				}()
				c.run()
			}()
			if d := time.Since(start); d > time.Second {
				t.Errorf("%s at %d levels: %s took %v", form, n-1, c.name, d)
			}
		}
	}
}
