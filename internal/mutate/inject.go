// Package mutate generates the benchmark's labeled datasets by corrupting
// clean workload queries: semantic error injection for the syntax_error
// tasks (the paper's six error types) and token removal for the miss_token
// tasks (six token categories with ground-truth positions).
package mutate

import (
	"math/rand"
	"strings"

	"repro/internal/catalog"
	"repro/internal/semcheck"
	"repro/internal/sqlast"
)

// Injection is an error-injection result.
type Injection struct {
	SQL  string
	Type semcheck.Code
}

// InjectError applies the given error type to a copy of the statement.
// It returns false when the query has no applicable site. The result is
// guaranteed (by construction, and verified in tests) to trip the semantic
// oracle with the requested code.
func InjectError(stmt sqlast.Stmt, schema *catalog.Schema, code semcheck.Code, r *rand.Rand) (Injection, bool) {
	sel := selectOf(stmt)
	if sel == nil {
		return Injection{}, false
	}
	clone := sqlast.CloneSelect(sel)
	var ok bool
	switch code {
	case semcheck.CodeAggrAttr:
		ok = injectAggrAttr(clone)
	case semcheck.CodeAggrHaving:
		ok = injectAggrHaving(clone, schema, r)
	case semcheck.CodeNestedMismatch:
		ok = injectNestedMismatch(clone, schema, r)
	case semcheck.CodeConditionMismatch:
		ok = injectConditionMismatch(clone, schema, r)
	case semcheck.CodeAliasUndefined:
		ok = injectAliasUndefined(clone, r)
	case semcheck.CodeAliasAmbiguous:
		ok = injectAliasAmbiguous(clone, schema)
	default:
		return Injection{}, false
	}
	if !ok {
		return Injection{}, false
	}
	out := rewrap(stmt, clone)
	return Injection{SQL: sqlast.Print(out), Type: code}, true
}

// selectOf extracts the SELECT body of a statement, when it has one.
func selectOf(stmt sqlast.Stmt) *sqlast.SelectStmt {
	switch t := stmt.(type) {
	case *sqlast.SelectStmt:
		return t
	case *sqlast.CreateTableStmt:
		return t.AsSelect
	case *sqlast.CreateViewStmt:
		return t.Select
	case *sqlast.InsertStmt:
		return t.Select
	default:
		return nil
	}
}

// rewrap puts a mutated SELECT back into its original statement shell.
func rewrap(orig sqlast.Stmt, sel *sqlast.SelectStmt) sqlast.Stmt {
	switch t := orig.(type) {
	case *sqlast.SelectStmt:
		return sel
	case *sqlast.CreateTableStmt:
		cp := *t
		cp.AsSelect = sel
		return &cp
	case *sqlast.CreateViewStmt:
		cp := *t
		cp.Select = sel
		return &cp
	case *sqlast.InsertStmt:
		cp := *t
		cp.Select = sel
		return &cp
	default:
		return sel
	}
}

// injectAggrAttr makes the projection mix aggregates and bare columns that
// are not covered by GROUP BY (the paper's Q1).
func injectAggrAttr(sel *sqlast.SelectStmt) bool {
	hasBare := false
	for _, item := range sel.Items {
		if _, ok := item.Expr.(*sqlast.ColumnRef); ok {
			hasBare = true
			break
		}
	}
	if hasBare && len(sel.GroupBy) == 0 {
		// Append an aggregate next to the bare columns.
		sel.Items = append(sel.Items, sqlast.SelectItem{
			Expr: &sqlast.FuncCall{Name: "COUNT", Star: true},
		})
		return true
	}
	if len(sel.GroupBy) > 0 {
		// Drop the GROUP BY clause of a grouped query.
		sel.GroupBy = nil
		if sel.Having != nil {
			sel.Having = nil
		}
		for _, item := range sel.Items {
			if _, ok := item.Expr.(*sqlast.ColumnRef); ok {
				return true
			}
		}
		// No bare column was left; add one is not possible reliably.
		return false
	}
	return false
}

// injectAggrHaving filters a non-aggregated column in HAVING (the paper's
// Q2). Applies to grouped queries, or to flat queries by adding a HAVING
// where a WHERE belongs.
func injectAggrHaving(sel *sqlast.SelectStmt, schema *catalog.Schema, r *rand.Rand) bool {
	col := pickNonGroupedColumn(sel, schema, r)
	if col == nil {
		return false
	}
	cond := &sqlast.Binary{Op: ">", L: col, R: sqlast.Number("0")}
	if sel.Having != nil {
		sel.Having = sqlast.And(sel.Having, cond)
	} else {
		sel.Having = cond
	}
	return true
}

// pickNonGroupedColumn finds a column reference over the query's FROM tables
// that does not appear in GROUP BY.
func pickNonGroupedColumn(sel *sqlast.SelectStmt, schema *catalog.Schema, r *rand.Rand) *sqlast.ColumnRef {
	grouped := map[string]bool{}
	for _, g := range sel.GroupBy {
		grouped[strings.ToLower(sqlast.PrintExpr(g))] = true
		if cr, ok := g.(*sqlast.ColumnRef); ok {
			grouped[strings.ToLower(cr.Name)] = true
		}
	}
	var candidates []*sqlast.ColumnRef
	forEachFromTable(sel, func(name, alias string) {
		tab, ok := schema.Table(name)
		if !ok {
			return
		}
		for _, c := range tab.Columns {
			if !c.Type.Numeric() {
				continue
			}
			qual := alias
			ref := sqlast.Col(qual, c.Name)
			key := strings.ToLower(sqlast.PrintExpr(ref))
			if grouped[key] || grouped[strings.ToLower(c.Name)] {
				continue
			}
			candidates = append(candidates, ref)
		}
	})
	if len(candidates) == 0 {
		return nil
	}
	return candidates[r.Intn(len(candidates))]
}

// forEachFromTable visits (tableName, bindingAlias) for every base table in
// the FROM clause. The alias is "" for single unaliased tables.
func forEachFromTable(sel *sqlast.SelectStmt, f func(name, alias string)) {
	var visit func(ref sqlast.TableRef)
	visit = func(ref sqlast.TableRef) {
		switch t := ref.(type) {
		case *sqlast.TableName:
			f(t.Name, t.Alias)
		case *sqlast.Join:
			visit(t.Left)
			visit(t.Right)
		}
	}
	for _, ref := range sel.From {
		visit(ref)
	}
}

// injectNestedMismatch turns a scalar comparand into a multi-row subquery
// (the paper's Q3).
func injectNestedMismatch(sel *sqlast.SelectStmt, schema *catalog.Schema, r *rand.Rand) bool {
	// Find a comparison whose RHS is a literal, inside WHERE or a join ON.
	var target *sqlast.Binary
	var sourceTable string
	visitConditions(sel, func(e sqlast.Expr) {
		if target != nil {
			return
		}
		bin, ok := e.(*sqlast.Binary)
		if !ok {
			return
		}
		switch bin.Op {
		case "=", "<", ">", "<=", ">=", "<>":
			if _, isLit := bin.R.(*sqlast.Literal); isLit {
				if cr, isCol := bin.L.(*sqlast.ColumnRef); isCol {
					target = bin
					_ = cr
				}
			}
		}
	})
	if target == nil {
		return false
	}
	// Pick a table and a column of compatible flavor for the subquery.
	forEachFromTable(sel, func(name, alias string) {
		if sourceTable == "" {
			sourceTable = name
		}
	})
	if sourceTable == "" {
		return false
	}
	tab, ok := schema.Table(sourceTable)
	if !ok || len(tab.Columns) == 0 {
		return false
	}
	lhs, _ := target.L.(*sqlast.ColumnRef)
	subCol := tab.Columns[r.Intn(len(tab.Columns))].Name
	if lhs != nil {
		// Prefer a same-named column so types stay compatible and the only
		// defect is cardinality.
		if _, found := tab.Column(lhs.Name); found {
			subCol = lhs.Name
		}
	}
	target.R = &sqlast.Subquery{Select: &sqlast.SelectStmt{
		Items: []sqlast.SelectItem{{Expr: sqlast.Col("", subCol)}},
		From:  []sqlast.TableRef{&sqlast.TableName{Name: sourceTable}},
	}}
	return true
}

// visitConditions walks WHERE, HAVING, and join ON expressions shallowly
// (AND/OR/NOT only), calling f on every node.
func visitConditions(sel *sqlast.SelectStmt, f func(sqlast.Expr)) {
	var walk func(e sqlast.Expr)
	walk = func(e sqlast.Expr) {
		if e == nil {
			return
		}
		f(e)
		switch t := e.(type) {
		case *sqlast.Binary:
			if t.Op == "AND" || t.Op == "OR" {
				walk(t.L)
				walk(t.R)
			}
		case *sqlast.Unary:
			walk(t.X)
		}
	}
	walk(sel.Where)
	walk(sel.Having)
	var joins func(ref sqlast.TableRef)
	joins = func(ref sqlast.TableRef) {
		if j, ok := ref.(*sqlast.Join); ok {
			walk(j.On)
			joins(j.Left)
			joins(j.Right)
		}
	}
	for _, ref := range sel.From {
		joins(ref)
	}
}

// injectConditionMismatch replaces a numeric comparand with a string literal
// (the paper's Q4), or a text comparand with a number.
func injectConditionMismatch(sel *sqlast.SelectStmt, schema *catalog.Schema, r *rand.Rand) bool {
	var done bool
	visitConditions(sel, func(e sqlast.Expr) {
		if done {
			return
		}
		bin, ok := e.(*sqlast.Binary)
		if !ok {
			return
		}
		switch bin.Op {
		case "=", "<", ">", "<=", ">=", "<>":
			lit, isLit := bin.R.(*sqlast.Literal)
			if !isLit {
				return
			}
			cr, isCol := bin.L.(*sqlast.ColumnRef)
			if !isCol {
				return
			}
			colType := lookupColumnType(sel, schema, cr)
			switch {
			case colType.Numeric() && lit.Kind == sqlast.LitNumber:
				words := []string{"high", "low", "bright", "faint"}
				bin.R = sqlast.Str(words[r.Intn(len(words))])
				done = true
			case colType == catalog.TypeText && lit.Kind == sqlast.LitString:
				bin.R = sqlast.Number("42")
				done = true
			}
		}
	})
	return done
}

// lookupColumnType resolves a column reference's type against the FROM
// tables (TypeAny when unknown).
func lookupColumnType(sel *sqlast.SelectStmt, schema *catalog.Schema, cr *sqlast.ColumnRef) catalog.Type {
	out := catalog.TypeAny
	forEachFromTable(sel, func(name, alias string) {
		if out != catalog.TypeAny {
			return
		}
		if cr.Table != "" && !strings.EqualFold(cr.Table, alias) && !strings.EqualFold(cr.Table, name) {
			return
		}
		if tab, ok := schema.Table(name); ok {
			if c, found := tab.Column(cr.Name); found {
				out = c.Type
			}
		}
	})
	return out
}

// injectAliasUndefined rewrites one qualified reference to use a qualifier
// that is not bound in the query (the paper's Q5: using the bare table name
// after it has been aliased, or a fresh bogus alias).
func injectAliasUndefined(sel *sqlast.SelectStmt, r *rand.Rand) bool {
	aliased := map[string]string{} // alias -> table bare name
	forEachFromTable(sel, func(name, alias string) {
		if alias != "" {
			aliased[strings.ToLower(alias)] = catalog.BareName(name)
		}
	})
	var refs []*sqlast.ColumnRef
	collectColumnRefs(sel, &refs)
	// Prefer the paper's form: replace a bound alias with the shadowed table
	// name.
	for _, ref := range refs {
		if table, ok := aliased[strings.ToLower(ref.Table)]; ok {
			ref.Table = strings.ToLower(table)
			return true
		}
	}
	// Otherwise point any qualified reference at a bogus alias.
	for _, ref := range refs {
		if ref.Table != "" {
			ref.Table = "q" + string(rune('0'+r.Intn(10)))
			return true
		}
	}
	return false
}

// collectColumnRefs gathers every column reference of the top-level select
// (items, where, group by, having, order by, join conditions), without
// entering subqueries.
func collectColumnRefs(sel *sqlast.SelectStmt, out *[]*sqlast.ColumnRef) {
	walk := func(e sqlast.Expr) {
		sqlast.WalkLevel(e, func(n sqlast.Node) bool {
			if cr, ok := n.(*sqlast.ColumnRef); ok {
				*out = append(*out, cr)
			}
			return true
		})
	}
	for _, item := range sel.Items {
		walk(item.Expr)
	}
	walk(sel.Where)
	for _, g := range sel.GroupBy {
		walk(g)
	}
	walk(sel.Having)
	for _, o := range sel.OrderBy {
		walk(o.Expr)
	}
	var joins func(ref sqlast.TableRef)
	joins = func(ref sqlast.TableRef) {
		if j, ok := ref.(*sqlast.Join); ok {
			walk(j.On)
			joins(j.Left)
			joins(j.Right)
		}
	}
	for _, ref := range sel.From {
		joins(ref)
	}
}

// injectAliasAmbiguous strips the qualifier from a reference whose column
// name exists in at least two FROM tables (the paper's Q6).
func injectAliasAmbiguous(sel *sqlast.SelectStmt, schema *catalog.Schema) bool {
	// Count column name occurrences across FROM tables.
	occurrences := map[string]int{}
	forEachFromTable(sel, func(name, alias string) {
		tab, ok := schema.Table(name)
		if !ok {
			return
		}
		for _, c := range tab.Columns {
			occurrences[strings.ToLower(c.Name)]++
		}
	})
	var refs []*sqlast.ColumnRef
	collectColumnRefs(sel, &refs)
	for _, ref := range refs {
		if ref.Table != "" && occurrences[strings.ToLower(ref.Name)] >= 2 {
			ref.Table = ""
			return true
		}
	}
	return false
}
