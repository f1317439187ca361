// Package semcheck implements the semantic analyzer used as the benchmark's
// ground-truth oracle. It resolves names and aliases against a catalog
// schema, infers expression types, and enforces aggregation rules, producing
// diagnostics classified into the paper's six syntax-error types:
// aggr-attr, aggr-having, nested-mismatch, condition-mismatch,
// alias-undefined, and alias-ambiguous.
package semcheck

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
)

// Code identifies a diagnostic class. The first six values are the paper's
// error taxonomy; the remainder cover generic resolution failures.
type Code string

// Diagnostic codes.
const (
	CodeParse             Code = "parse-error"
	CodeAggrAttr          Code = "aggr-attr"
	CodeAggrHaving        Code = "aggr-having"
	CodeNestedMismatch    Code = "nested-mismatch"
	CodeConditionMismatch Code = "condition-mismatch"
	CodeAliasUndefined    Code = "alias-undefined"
	CodeAliasAmbiguous    Code = "alias-ambiguous"
	CodeUnknownTable      Code = "unknown-table"
	CodeUnknownColumn     Code = "unknown-column"
)

// PaperErrorTypes lists the six error types studied in the paper, in the
// order used by its figures.
var PaperErrorTypes = []Code{
	CodeAggrAttr, CodeAggrHaving, CodeNestedMismatch,
	CodeConditionMismatch, CodeAliasUndefined, CodeAliasAmbiguous,
}

// Diagnostic is one semantic finding.
type Diagnostic struct {
	Code Code
	Msg  string
}

func (d Diagnostic) String() string { return fmt.Sprintf("%s: %s", d.Code, d.Msg) }

// Checker validates statements against a schema.
type Checker struct {
	Schema *catalog.Schema
}

// New returns a Checker for the schema.
func New(schema *catalog.Schema) *Checker { return &Checker{Schema: schema} }

// CheckSQL parses and checks a SQL string. A parse failure yields a single
// CodeParse diagnostic.
func (c *Checker) CheckSQL(sql string) []Diagnostic {
	stmt, err := sqlparse.ParseStatement(sql)
	if err != nil {
		return []Diagnostic{{Code: CodeParse, Msg: err.Error()}}
	}
	return c.Check(stmt)
}

// Check validates a parsed statement and returns all diagnostics found.
func (c *Checker) Check(stmt sqlast.Stmt) []Diagnostic {
	ck := &checkRun{schema: c.Schema}
	switch t := stmt.(type) {
	case *sqlast.SelectStmt:
		ck.checkSelect(t, nil)
	case *sqlast.CreateTableStmt:
		if t.AsSelect != nil {
			ck.checkSelect(t.AsSelect, nil)
		}
	case *sqlast.CreateViewStmt:
		ck.checkSelect(t.Select, nil)
	case *sqlast.InsertStmt:
		if t.Select != nil {
			ck.checkSelect(t.Select, nil)
		}
	case *sqlast.UpdateStmt:
		sc := ck.scopeForTables(&sqlast.TableName{Name: t.Table, Alias: t.Alias})
		for _, a := range t.Set {
			ck.resolveExpr(a.Value, sc)
		}
		if t.Where != nil {
			ck.resolveExpr(t.Where, sc)
			ck.checkConditionTypes(t.Where, sc)
		}
	case *sqlast.DeleteStmt:
		sc := ck.scopeForTables(&sqlast.TableName{Name: t.Table})
		if t.Where != nil {
			ck.resolveExpr(t.Where, sc)
			ck.checkConditionTypes(t.Where, sc)
		}
	}
	return dedupe(ck.diags)
}

// Primary returns the highest-priority diagnostic code, or "" when the list
// is empty. Priority follows the paper's taxonomy: resolution errors beat
// type errors beat aggregation errors, mirroring how a human reviewer would
// report the root cause.
func Primary(diags []Diagnostic) Code {
	priority := []Code{
		CodeParse,
		CodeAliasUndefined, CodeAliasAmbiguous,
		CodeNestedMismatch, CodeConditionMismatch,
		CodeAggrHaving, CodeAggrAttr,
		CodeUnknownTable, CodeUnknownColumn,
	}
	for _, p := range priority {
		for _, d := range diags {
			if d.Code == p {
				return p
			}
		}
	}
	return ""
}

func dedupe(diags []Diagnostic) []Diagnostic {
	seen := make(map[string]bool, len(diags))
	out := diags[:0]
	for _, d := range diags {
		key := string(d.Code) + "\x00" + d.Msg
		if !seen[key] {
			seen[key] = true
			out = append(out, d)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Scope

type scopeTable struct {
	alias    string // lowercase binding name (explicit alias or bare table name)
	cols     []catalog.Column
	wildcard bool // unknown relation: any column resolves as TypeAny
}

type scope struct {
	parent *scope
	tables []scopeTable
	ctes   map[string][]catalog.Column // visible CTE definitions
}

func (s *scope) lookupQualifier(q string) (*scopeTable, bool) {
	lq := strings.ToLower(catalog.BareName(q))
	for sc := s; sc != nil; sc = sc.parent {
		for i := range sc.tables {
			if sc.tables[i].alias == lq {
				return &sc.tables[i], true
			}
		}
	}
	return nil, false
}

func (s *scope) cte(name string) ([]catalog.Column, bool) {
	ln := strings.ToLower(name)
	for sc := s; sc != nil; sc = sc.parent {
		if cols, ok := sc.ctes[ln]; ok {
			return cols, true
		}
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Checking

type checkRun struct {
	schema *catalog.Schema
	diags  []Diagnostic
}

func (ck *checkRun) report(code Code, format string, args ...any) {
	ck.diags = append(ck.diags, Diagnostic{Code: code, Msg: fmt.Sprintf(format, args...)})
}

func (ck *checkRun) scopeForTables(refs ...sqlast.TableRef) *scope {
	sc := &scope{ctes: map[string][]catalog.Column{}}
	for _, r := range refs {
		ck.addRef(sc, r)
	}
	return sc
}

// checkSelect validates one SELECT (and, recursively, everything inside it)
// within the given parent scope.
func (ck *checkRun) checkSelect(sel *sqlast.SelectStmt, parent *scope) {
	sc := &scope{parent: parent, ctes: map[string][]catalog.Column{}}
	for _, cte := range sel.With {
		// CTE bodies see previously defined CTEs but not the outer FROM.
		ck.checkSelect(cte.Select, &scope{parent: parent, ctes: sc.ctes})
		cols := ck.outputColumns(cte.Select, sc)
		if len(cte.Columns) > 0 {
			named := make([]catalog.Column, len(cte.Columns))
			for i, name := range cte.Columns {
				typ := catalog.TypeAny
				if i < len(cols) {
					typ = cols[i].Type
				}
				named[i] = catalog.Column{Name: name, Type: typ}
			}
			cols = named
		}
		sc.ctes[strings.ToLower(cte.Name)] = cols
	}
	for _, ref := range sel.From {
		ck.addRef(sc, ref)
	}
	// Resolve references clause by clause.
	for _, item := range sel.Items {
		ck.resolveExpr(item.Expr, sc)
	}
	for _, ref := range sel.From {
		ck.resolveJoinConds(ref, sc)
	}
	if sel.Where != nil {
		ck.resolveExpr(sel.Where, sc)
		ck.checkConditionTypes(sel.Where, sc)
	}
	for _, e := range sel.GroupBy {
		ck.resolveExpr(e, sc)
	}
	if sel.Having != nil {
		ck.resolveExpr(sel.Having, sc)
		ck.checkConditionTypes(sel.Having, sc)
	}
	for _, o := range sel.OrderBy {
		ck.resolveOrderExpr(o.Expr, sel, sc)
	}
	ck.checkAggregation(sel, sc)
	ck.checkScalarSubqueries(sel, sc)
	if sel.SetOp != nil {
		ck.checkSelect(sel.SetOp.Right, parent)
	}
}

// addRef registers a FROM entry in the scope and recursively checks derived
// tables.
func (ck *checkRun) addRef(sc *scope, ref sqlast.TableRef) {
	switch t := ref.(type) {
	case *sqlast.TableName:
		binding := t.Alias
		if binding == "" {
			binding = catalog.BareName(t.Name)
		}
		st := scopeTable{alias: strings.ToLower(binding)}
		if cols, ok := sc.cte(catalog.BareName(t.Name)); ok {
			st.cols = cols
			if len(cols) == 0 {
				st.wildcard = true
			}
		} else if tab, ok := ck.schema.Table(t.Name); ok {
			st.cols = tab.Columns
		} else {
			ck.report(CodeUnknownTable, "unknown table %q", t.Name)
			st.wildcard = true
		}
		sc.tables = append(sc.tables, st)
	case *sqlast.SubqueryTable:
		ck.checkSelect(t.Select, sc.parent)
		binding := t.Alias
		if binding == "" {
			binding = "?derived"
		}
		cols := ck.outputColumns(t.Select, sc)
		st := scopeTable{alias: strings.ToLower(binding), cols: cols}
		if len(cols) == 0 {
			st.wildcard = true
		}
		sc.tables = append(sc.tables, st)
	case *sqlast.Join:
		ck.addRef(sc, t.Left)
		ck.addRef(sc, t.Right)
	}
}

// resolveJoinConds resolves and type-checks ON conditions once the whole
// FROM scope is built.
func (ck *checkRun) resolveJoinConds(ref sqlast.TableRef, sc *scope) {
	j, ok := ref.(*sqlast.Join)
	if !ok {
		return
	}
	ck.resolveJoinConds(j.Left, sc)
	ck.resolveJoinConds(j.Right, sc)
	if j.On != nil {
		ck.resolveExpr(j.On, sc)
		ck.checkConditionTypes(j.On, sc)
	}
}

// outputColumns derives the output column list of a SELECT for scope
// purposes; an empty result means the columns are unknown (e.g. SELECT *
// over an unknown table).
func (ck *checkRun) outputColumns(sel *sqlast.SelectStmt, sc *scope) []catalog.Column {
	inner := &scope{parent: sc, ctes: map[string][]catalog.Column{}}
	for _, cte := range sel.With {
		inner.ctes[strings.ToLower(cte.Name)] = nil
	}
	for _, ref := range sel.From {
		ck.collectRefColumns(inner, ref)
	}
	var out []catalog.Column
	for _, item := range sel.Items {
		switch e := item.Expr.(type) {
		case *sqlast.Star:
			for _, st := range inner.tables {
				if e.Table == "" || st.alias == strings.ToLower(e.Table) {
					if st.wildcard {
						return nil
					}
					out = append(out, st.cols...)
				}
			}
		case *sqlast.ColumnRef:
			name := item.Alias
			if name == "" {
				name = e.Name
			}
			out = append(out, catalog.Column{Name: name, Type: ck.inferType(item.Expr, inner)})
		default:
			name := item.Alias
			if name == "" {
				name = "expr"
			}
			out = append(out, catalog.Column{Name: name, Type: ck.inferType(item.Expr, inner)})
		}
	}
	return out
}

// collectRefColumns is addRef without diagnostics, used when deriving output
// columns (the real addRef will run during checkSelect and report problems).
func (ck *checkRun) collectRefColumns(sc *scope, ref sqlast.TableRef) {
	switch t := ref.(type) {
	case *sqlast.TableName:
		binding := t.Alias
		if binding == "" {
			binding = catalog.BareName(t.Name)
		}
		st := scopeTable{alias: strings.ToLower(binding)}
		if cols, ok := sc.cte(catalog.BareName(t.Name)); ok {
			st.cols = cols
			st.wildcard = len(cols) == 0
		} else if tab, ok := ck.schema.Table(t.Name); ok {
			st.cols = tab.Columns
		} else {
			st.wildcard = true
		}
		sc.tables = append(sc.tables, st)
	case *sqlast.SubqueryTable:
		binding := t.Alias
		if binding == "" {
			binding = "?derived"
		}
		cols := ck.outputColumns(t.Select, sc.parent)
		sc.tables = append(sc.tables, scopeTable{alias: strings.ToLower(binding), cols: cols, wildcard: len(cols) == 0})
	case *sqlast.Join:
		ck.collectRefColumns(sc, t.Left)
		ck.collectRefColumns(sc, t.Right)
	}
}

// resolveExpr resolves every column reference of an expression's level and
// checks its nested SELECTs recursively. Nested SELECTs see the current
// scope as parent (correlation is allowed).
func (ck *checkRun) resolveExpr(e sqlast.Expr, sc *scope) {
	sqlast.WalkLevel(e, func(n sqlast.Node) bool {
		switch t := n.(type) {
		case *sqlast.ColumnRef:
			ck.resolveColumn(t, sc)
		case *sqlast.Star:
			if t.Table != "" {
				if _, ok := sc.lookupQualifier(t.Table); !ok {
					ck.report(CodeAliasUndefined, "alias %q is not defined", t.Table)
				}
			}
		case *sqlast.SelectStmt:
			ck.checkSelect(t, sc)
		}
		return true
	})
}

// resolveOrderExpr allows ORDER BY to reference projection aliases in
// addition to scope columns.
func (ck *checkRun) resolveOrderExpr(e sqlast.Expr, sel *sqlast.SelectStmt, sc *scope) {
	if cr, ok := e.(*sqlast.ColumnRef); ok && cr.Table == "" {
		for _, item := range sel.Items {
			if strings.EqualFold(item.Alias, cr.Name) {
				return
			}
		}
	}
	ck.resolveExpr(e, sc)
}

func (ck *checkRun) resolveColumn(cr *sqlast.ColumnRef, sc *scope) {
	if cr.Table != "" {
		st, ok := sc.lookupQualifier(cr.Table)
		if !ok {
			ck.report(CodeAliasUndefined, "alias %q is not defined", cr.Table)
			return
		}
		if st.wildcard {
			return
		}
		for _, c := range st.cols {
			if strings.EqualFold(c.Name, cr.Name) {
				return
			}
		}
		ck.report(CodeUnknownColumn, "column %q not found in %q", cr.Name, cr.Table)
		return
	}
	// Unqualified: search each scope level; ambiguity applies within a level.
	for level := sc; level != nil; level = level.parent {
		matches := 0
		wildcard := false
		for _, st := range level.tables {
			if st.wildcard {
				wildcard = true
				continue
			}
			for _, c := range st.cols {
				if strings.EqualFold(c.Name, cr.Name) {
					matches++
					break
				}
			}
		}
		if matches > 1 {
			ck.report(CodeAliasAmbiguous, "column %q is ambiguous: present in multiple tables", cr.Name)
			return
		}
		if matches == 1 || wildcard {
			return
		}
	}
	ck.report(CodeUnknownColumn, "column %q not found in any table in scope", cr.Name)
}

// lookupType resolves the type of a column reference without reporting.
func (ck *checkRun) lookupType(cr *sqlast.ColumnRef, sc *scope) catalog.Type {
	if cr.Table != "" {
		if st, ok := sc.lookupQualifier(cr.Table); ok {
			for _, c := range st.cols {
				if strings.EqualFold(c.Name, cr.Name) {
					return c.Type
				}
			}
		}
		return catalog.TypeAny
	}
	for level := sc; level != nil; level = level.parent {
		for _, st := range level.tables {
			for _, c := range st.cols {
				if strings.EqualFold(c.Name, cr.Name) {
					return c.Type
				}
			}
		}
	}
	return catalog.TypeAny
}

// inferType computes the static type of an expression, TypeAny when unknown.
func (ck *checkRun) inferType(e sqlast.Expr, sc *scope) catalog.Type {
	switch t := e.(type) {
	case *sqlast.ColumnRef:
		return ck.lookupType(t, sc)
	case *sqlast.Literal:
		switch t.Kind {
		case sqlast.LitNumber:
			if strings.ContainsAny(t.Text, ".eE") {
				return catalog.TypeFloat
			}
			return catalog.TypeInt
		case sqlast.LitString:
			return catalog.TypeText
		case sqlast.LitBool:
			return catalog.TypeBool
		default:
			return catalog.TypeAny
		}
	case *sqlast.Binary:
		switch t.Op {
		case "+", "-", "*", "/", "%":
			lt, rt := ck.inferType(t.L, sc), ck.inferType(t.R, sc)
			if lt == catalog.TypeFloat || rt == catalog.TypeFloat {
				return catalog.TypeFloat
			}
			if lt == catalog.TypeInt && rt == catalog.TypeInt {
				return catalog.TypeInt
			}
			return catalog.TypeAny
		case "||":
			return catalog.TypeText
		default:
			return catalog.TypeBool
		}
	case *sqlast.Unary:
		if t.Op == "NOT" {
			return catalog.TypeBool
		}
		return ck.inferType(t.X, sc)
	case *sqlast.FuncCall:
		switch strings.ToUpper(t.Name) {
		case "COUNT":
			return catalog.TypeInt
		case "AVG", "SUM", "STDEV", "VAR":
			return catalog.TypeFloat
		case "MIN", "MAX":
			if len(t.Args) == 1 {
				return ck.inferType(t.Args[0], sc)
			}
			return catalog.TypeAny
		case "UPPER", "LOWER", "SUBSTRING", "CONCAT", "TRIM", "LTRIM", "RTRIM", "STR":
			return catalog.TypeText
		case "ABS", "ROUND", "FLOOR", "CEILING", "SQRT", "POWER", "LOG", "EXP":
			return catalog.TypeFloat
		case "LEN", "DATALENGTH", "CHARINDEX":
			return catalog.TypeInt
		default:
			return catalog.TypeAny
		}
	case *sqlast.Subquery:
		if len(t.Select.Items) == 1 {
			inner := &scope{parent: sc, ctes: map[string][]catalog.Column{}}
			for _, ref := range t.Select.From {
				ck.collectRefColumns(inner, ref)
			}
			return ck.inferType(t.Select.Items[0].Expr, inner)
		}
		return catalog.TypeAny
	case *sqlast.Case:
		if len(t.Whens) > 0 {
			return ck.inferType(t.Whens[0].Result, sc)
		}
		return catalog.TypeAny
	case *sqlast.Cast:
		u := strings.ToUpper(t.Type)
		switch {
		case strings.HasPrefix(u, "INT") || strings.HasPrefix(u, "BIGINT") || strings.HasPrefix(u, "SMALLINT"):
			return catalog.TypeInt
		case strings.HasPrefix(u, "FLOAT") || strings.HasPrefix(u, "REAL") || strings.HasPrefix(u, "DECIMAL") || strings.HasPrefix(u, "NUMERIC"):
			return catalog.TypeFloat
		case strings.HasPrefix(u, "VARCHAR") || strings.HasPrefix(u, "CHAR") || strings.HasPrefix(u, "TEXT") || strings.HasPrefix(u, "NVARCHAR"):
			return catalog.TypeText
		default:
			return catalog.TypeAny
		}
	default:
		return catalog.TypeAny
	}
}

// checkConditionTypes reports condition-mismatch for comparisons between
// incompatible types anywhere in the boolean expression (without descending
// into subqueries, which are checked separately).
func (ck *checkRun) checkConditionTypes(e sqlast.Expr, sc *scope) {
	if e == nil {
		return
	}
	switch t := e.(type) {
	case *sqlast.Binary:
		switch t.Op {
		case "AND", "OR":
			ck.checkConditionTypes(t.L, sc)
			ck.checkConditionTypes(t.R, sc)
		case "=", "<>", "<", ">", "<=", ">=":
			lt := ck.inferType(t.L, sc)
			rt := ck.inferType(t.R, sc)
			if !catalog.Comparable(lt, rt) {
				ck.report(CodeConditionMismatch,
					"comparison %s between incompatible types %s and %s",
					sqlast.PrintExpr(t), lt, rt)
			}
		case "LIKE":
			lt := ck.inferType(t.L, sc)
			if lt != catalog.TypeAny && lt != catalog.TypeText {
				ck.report(CodeConditionMismatch, "LIKE on non-text operand of type %s", lt)
			}
		}
	case *sqlast.Unary:
		ck.checkConditionTypes(t.X, sc)
	case *sqlast.In:
		xt := ck.inferType(t.X, sc)
		for _, item := range t.List {
			it := ck.inferType(item, sc)
			if !catalog.Comparable(xt, it) {
				ck.report(CodeConditionMismatch,
					"IN list item %s has type %s, incompatible with %s",
					sqlast.PrintExpr(item), it, xt)
			}
		}
	case *sqlast.Between:
		xt := ck.inferType(t.X, sc)
		for _, bound := range []sqlast.Expr{t.Lo, t.Hi} {
			bt := ck.inferType(bound, sc)
			if !catalog.Comparable(xt, bt) {
				ck.report(CodeConditionMismatch,
					"BETWEEN bound %s has type %s, incompatible with %s",
					sqlast.PrintExpr(bound), bt, xt)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Aggregation rules

// checkAggregation enforces the GROUP BY / HAVING rules that define the
// aggr-attr and aggr-having error types.
func (ck *checkRun) checkAggregation(sel *sqlast.SelectStmt, sc *scope) {
	hasAgg := sqlast.SelectHasAggregate(sel)
	grouped := make(map[string]bool, len(sel.GroupBy))
	for _, g := range sel.GroupBy {
		grouped[strings.ToLower(sqlast.PrintExpr(g))] = true
	}
	if hasAgg || len(sel.GroupBy) > 0 {
		for _, item := range sel.Items {
			for _, cr := range bareColumns(item.Expr) {
				key := strings.ToLower(sqlast.PrintExpr(cr))
				bare := strings.ToLower(cr.Name)
				if !grouped[key] && !grouped[bare] {
					ck.report(CodeAggrAttr,
						"column %s appears in SELECT with aggregates but not in GROUP BY",
						sqlast.PrintExpr(cr))
				}
			}
			if _, ok := item.Expr.(*sqlast.Star); ok && hasAgg {
				ck.report(CodeAggrAttr, "* appears in SELECT alongside aggregate functions")
			}
		}
	}
	if sel.Having != nil {
		if len(sel.GroupBy) == 0 && !hasAgg && !sqlast.HasAggregate(sel.Having) {
			ck.report(CodeAggrHaving, "HAVING used without GROUP BY or aggregates; use WHERE")
		}
		for _, cr := range bareColumns(sel.Having) {
			key := strings.ToLower(sqlast.PrintExpr(cr))
			bare := strings.ToLower(cr.Name)
			if !grouped[key] && !grouped[bare] {
				ck.report(CodeAggrHaving,
					"HAVING filters non-aggregated column %s; use WHERE or GROUP BY it",
					sqlast.PrintExpr(cr))
			}
		}
	}
}

// bareColumns returns column references in e that are not inside aggregate
// calls (and not inside subqueries).
func bareColumns(e sqlast.Expr) []*sqlast.ColumnRef {
	var out []*sqlast.ColumnRef
	sqlast.WalkLevel(e, func(n sqlast.Node) bool {
		switch t := n.(type) {
		case *sqlast.FuncCall:
			if sqlast.IsAggregate(t.Name) {
				return false // columns inside aggregates are fine
			}
		case *sqlast.ColumnRef:
			out = append(out, t)
		}
		return true
	})
	return out
}

// ---------------------------------------------------------------------------
// Scalar subquery cardinality (nested-mismatch)

// checkScalarSubqueries reports nested-mismatch when a subquery used as a
// scalar comparand is not guaranteed to return a single row and column.
func (ck *checkRun) checkScalarSubqueries(sel *sqlast.SelectStmt, _ *scope) {
	var exprs []sqlast.Expr
	if sel.Where != nil {
		exprs = append(exprs, sel.Where)
	}
	if sel.Having != nil {
		exprs = append(exprs, sel.Having)
	}
	collectJoinOns(sel.From, &exprs)
	for _, e := range exprs {
		ck.findScalarSubqueryMisuse(e)
	}
}

func collectJoinOns(refs []sqlast.TableRef, out *[]sqlast.Expr) {
	for _, r := range refs {
		if j, ok := r.(*sqlast.Join); ok {
			if j.On != nil {
				*out = append(*out, j.On)
			}
			collectJoinOns([]sqlast.TableRef{j.Left, j.Right}, out)
		}
	}
}

func (ck *checkRun) findScalarSubqueryMisuse(e sqlast.Expr) {
	sqlast.WalkLevel(e, func(n sqlast.Node) bool {
		bin, ok := n.(*sqlast.Binary)
		if !ok {
			return true
		}
		switch bin.Op {
		case "=", "<>", "<", ">", "<=", ">=":
			for _, side := range []sqlast.Expr{bin.L, bin.R} {
				if sub, ok := side.(*sqlast.Subquery); ok {
					if !guaranteedScalar(sub.Select) {
						ck.report(CodeNestedMismatch,
							"subquery %s may return multiple rows but is compared as a scalar",
							sqlast.PrintExpr(sub))
					}
				}
			}
		}
		return true
	})
}

// guaranteedScalar reports whether a SELECT always yields at most one row
// and exactly one column: single-column projection, and either a plain
// aggregate (no GROUP BY) or TOP 1 / LIMIT 1.
func guaranteedScalar(sel *sqlast.SelectStmt) bool {
	if len(sel.Items) != 1 || sel.SetOp != nil {
		return false
	}
	if (sel.Top != nil && *sel.Top == 1) || (sel.Limit != nil && *sel.Limit == 1) {
		return true
	}
	return sqlast.HasAggregate(sel.Items[0].Expr) && len(sel.GroupBy) == 0
}
