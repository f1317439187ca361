// Package analyze extracts the syntactic query properties studied in the
// paper's Section 2.1: char_count, word_count, query_type, table_count,
// join_count, column_count, function_count, predicate_count, nestedness, and
// aggregate usage.
package analyze

import (
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlast"
	"repro/internal/sqllex"
	"repro/internal/sqlparse"
)

// Properties holds the syntactic measurements of one query.
type Properties struct {
	CharCount      int
	WordCount      int
	QueryType      string // SELECT, WITH, CREATE, INSERT, UPDATE, DELETE, DECLARE, SET, EXEC, DROP, WAITFOR
	TableCount     int    // distinct base tables referenced
	JoinCount      int    // explicit joins + implicit (comma) joins
	ColumnCount    int    // distinct columns referenced in SELECT clauses
	FunctionCount  int    // total function invocations
	PredicateCount int    // leaf conditions in WHERE clauses
	Nestedness     int    // maximum subquery depth (0 for flat queries)
	Aggregate      bool   // uses aggregate functions
}

// Names of the numeric properties, in the order used by the paper's Figure 4
// correlation matrices.
var CorrelationProperties = []string{
	"Char_Count", "Word_Count", "Table_Count", "Join_Count",
	"Column_Count", "Function_Count", "Predicate_Count", "Nested_Level",
}

// Vector returns the numeric property values in CorrelationProperties order.
func (p Properties) Vector() []float64 {
	return []float64{
		float64(p.CharCount), float64(p.WordCount), float64(p.TableCount),
		float64(p.JoinCount), float64(p.ColumnCount), float64(p.FunctionCount),
		float64(p.PredicateCount), float64(p.Nestedness),
	}
}

// Compute parses the SQL text and measures all properties. When the text
// does not parse, it falls back to lexical measurement (counts derived from
// tokens only).
func Compute(sql string) Properties {
	stmt, err := sqlparse.ParseStatement(sql)
	if err != nil {
		return lexicalFallback(sql)
	}
	return ComputeStmt(stmt, sql)
}

// ComputeStmt measures properties of a parsed statement; sql is the original
// text used for the character and word counts.
func ComputeStmt(stmt sqlast.Stmt, sql string) Properties {
	p := Properties{
		CharCount: len(sql),
		WordCount: sqllex.WordCount(sql),
		QueryType: QueryType(stmt, sql),
	}
	tables := map[string]bool{}
	ctes := map[string]bool{}
	columns := map[string]bool{}

	sqlast.Walk(stmt, func(n sqlast.Node) bool {
		switch t := n.(type) {
		case *sqlast.SelectStmt:
			for _, cte := range t.With {
				ctes[strings.ToLower(cte.Name)] = true
			}
			if len(t.From) > 1 {
				p.JoinCount += len(t.From) - 1 // implicit joins
			}
			for _, item := range t.Items {
				collectItemColumns(item.Expr, columns)
			}
			collectPredicates(t.Where, &p.PredicateCount)
		case *sqlast.Join:
			p.JoinCount++
		case *sqlast.TableName:
			tables[strings.ToLower(catalog.BareName(t.Name))] = true
		case *sqlast.InsertStmt:
			tables[strings.ToLower(catalog.BareName(t.Table))] = true
		case *sqlast.UpdateStmt:
			tables[strings.ToLower(catalog.BareName(t.Table))] = true
			collectPredicates(t.Where, &p.PredicateCount)
		case *sqlast.DeleteStmt:
			tables[strings.ToLower(catalog.BareName(t.Table))] = true
			collectPredicates(t.Where, &p.PredicateCount)
		case *sqlast.DropStmt:
			tables[strings.ToLower(catalog.BareName(t.Name))] = true
		case *sqlast.FuncCall:
			p.FunctionCount++
			if sqlast.IsAggregate(t.Name) {
				p.Aggregate = true
			}
		}
		return true
	})
	for name := range ctes {
		delete(tables, name)
	}
	p.TableCount = len(tables)
	p.ColumnCount = len(columns)
	p.Nestedness = nestedness(stmt)
	return p
}

// QueryType reports the statement's leading type. WITH is reported as its
// own type, matching the paper's Figure 2a.
func QueryType(stmt sqlast.Stmt, sql string) string {
	switch t := stmt.(type) {
	case *sqlast.SelectStmt:
		if len(t.With) > 0 {
			return "WITH"
		}
		return "SELECT"
	case *sqlast.CreateTableStmt, *sqlast.CreateViewStmt:
		return "CREATE"
	case *sqlast.InsertStmt:
		return "INSERT"
	case *sqlast.UpdateStmt:
		return "UPDATE"
	case *sqlast.DeleteStmt:
		return "DELETE"
	case *sqlast.DeclareStmt:
		return "DECLARE"
	case *sqlast.SetVarStmt:
		return "SET"
	case *sqlast.ExecStmt:
		return "EXEC"
	case *sqlast.DropStmt:
		return "DROP"
	case *sqlast.WaitforStmt:
		return "WAITFOR"
	default:
		words := sqllex.Words(sql)
		if len(words) > 0 {
			return strings.ToUpper(words[0])
		}
		return "UNKNOWN"
	}
}

// collectItemColumns records distinct column names referenced by a SELECT
// item, without entering subqueries (their own SELECT items are collected
// when Walk reaches them).
func collectItemColumns(e sqlast.Expr, out map[string]bool) {
	sqlast.WalkLevel(e, func(n sqlast.Node) bool {
		if cr, ok := n.(*sqlast.ColumnRef); ok {
			out[strings.ToLower(cr.Name)] = true
		}
		return true
	})
}

// collectPredicates counts the leaf conditions of a WHERE expression:
// comparisons, IN, BETWEEN, LIKE, IS NULL, and EXISTS each count as one.
// AND/OR/NOT combine but do not count. Subquery bodies are not entered here;
// their own WHERE clauses are counted when Walk reaches them.
func collectPredicates(e sqlast.Expr, n *int) {
	if e == nil {
		return
	}
	switch t := e.(type) {
	case *sqlast.Binary:
		switch t.Op {
		case "AND", "OR":
			collectPredicates(t.L, n)
			collectPredicates(t.R, n)
		default:
			*n++
		}
	case *sqlast.Unary:
		if t.Op == "NOT" {
			collectPredicates(t.X, n)
			return
		}
		*n++
	default:
		*n++
	}
}

// nestedness computes the maximum subquery nesting depth of a statement.
// A flat query has nestedness 0; each level of subquery (scalar, IN, EXISTS,
// derived table, or CTE body) adds one.
func nestedness(stmt sqlast.Stmt) int {
	switch t := stmt.(type) {
	case *sqlast.SelectStmt:
		return selectDepth(t)
	case *sqlast.CreateTableStmt:
		if t.AsSelect != nil {
			return selectDepth(t.AsSelect)
		}
	case *sqlast.CreateViewStmt:
		return selectDepth(t.Select)
	case *sqlast.InsertStmt:
		if t.Select != nil {
			return selectDepth(t.Select)
		}
	case *sqlast.UpdateStmt:
		return exprDepth(t.Where)
	case *sqlast.DeleteStmt:
		return exprDepth(t.Where)
	}
	return 0
}

func selectDepth(sel *sqlast.SelectStmt) int {
	max := 0
	bump := func(d int) {
		if d > max {
			max = d
		}
	}
	for _, cte := range sel.With {
		bump(1 + selectDepth(cte.Select))
	}
	for _, item := range sel.Items {
		bump(exprDepth(item.Expr))
	}
	for _, ref := range sel.From {
		bump(refDepth(ref))
	}
	bump(exprDepth(sel.Where))
	bump(exprDepth(sel.Having))
	if sel.SetOp != nil {
		bump(selectDepth(sel.SetOp.Right))
	}
	return max
}

func refDepth(ref sqlast.TableRef) int {
	switch t := ref.(type) {
	case *sqlast.SubqueryTable:
		return 1 + selectDepth(t.Select)
	case *sqlast.Join:
		l, r := refDepth(t.Left), refDepth(t.Right)
		d := l
		if r > d {
			d = r
		}
		if od := exprDepth(t.On); od > d {
			d = od
		}
		return d
	default:
		return 0
	}
}

func exprDepth(e sqlast.Expr) int {
	if e == nil {
		return 0
	}
	max := 0
	bump := func(d int) {
		if d > max {
			max = d
		}
	}
	switch t := e.(type) {
	case *sqlast.Subquery:
		bump(1 + selectDepth(t.Select))
	case *sqlast.In:
		bump(exprDepth(t.X))
		if t.Sub != nil {
			bump(1 + selectDepth(t.Sub))
		}
		for _, item := range t.List {
			bump(exprDepth(item))
		}
	case *sqlast.Exists:
		bump(1 + selectDepth(t.Sub))
	case *sqlast.Binary:
		bump(exprDepth(t.L))
		bump(exprDepth(t.R))
	case *sqlast.Unary:
		bump(exprDepth(t.X))
	case *sqlast.FuncCall:
		for _, a := range t.Args {
			bump(exprDepth(a))
		}
	case *sqlast.Between:
		bump(exprDepth(t.X))
		bump(exprDepth(t.Lo))
		bump(exprDepth(t.Hi))
	case *sqlast.IsNull:
		bump(exprDepth(t.X))
	case *sqlast.Case:
		bump(exprDepth(t.Operand))
		for _, w := range t.Whens {
			bump(exprDepth(w.Cond))
			bump(exprDepth(w.Result))
		}
		bump(exprDepth(t.Else))
	case *sqlast.Cast:
		bump(exprDepth(t.X))
	}
	return max
}

// lexicalFallback measures what it can from tokens alone, for queries that
// fail to parse (e.g. after token-removal mutation).
func lexicalFallback(sql string) Properties {
	p := Properties{
		CharCount: len(sql),
		WordCount: sqllex.WordCount(sql),
		QueryType: "UNKNOWN",
	}
	buf := sqllex.GetBuffer()
	defer buf.Release()
	toks, err := buf.LexWords(sql)
	if err != nil || len(toks) == 0 {
		return p
	}
	if toks[0].Kind == sqllex.Keyword {
		p.QueryType = toks[0].Upper()
	}
	for i, t := range toks {
		switch {
		case t.Is("JOIN"):
			p.JoinCount++
		case t.Is("SELECT") && i > 0:
			p.Nestedness++ // crude: nested SELECT keywords
		case t.Kind == sqllex.Ident && i+1 < len(toks) && toks[i+1].Kind == sqllex.LParen:
			p.FunctionCount++
			if sqlast.IsAggregate(t.Text) {
				p.Aggregate = true
			}
		}
	}
	return p
}
