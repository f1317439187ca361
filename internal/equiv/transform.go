// Package equiv implements the query-equivalence machinery: ten
// equivalence-preserving and eight non-equivalence AST transformations used
// to build the query_equiv datasets, plus rule-based and engine-backed
// checkers that validate generated pairs.
package equiv

import (
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/sqlast"
)

// Type names one transformation. Equivalence types follow the paper's
// terminology where given (swap-subqueries, join-nested, cte,
// reorder-conditions, agg-function, change-join-condition,
// logical-conditions, value-change); the rest complete the paper's "ten
// equivalences, eight non-equivalences".
type Type string

// Equivalence-preserving transformations.
const (
	ReorderConditions Type = "reorder-conditions"
	CTEWrap           Type = "cte"
	JoinNested        Type = "join-nested"
	NestedJoin        Type = "nested-join"
	SwapSubqueries    Type = "swap-subqueries" // IN <-> correlated EXISTS
	BetweenSplit      Type = "between-split"
	InListOr          Type = "in-list-or"
	NotPushdown       Type = "not-pushdown"
	DistinctGroupBy   Type = "distinct-groupby"
	CommuteJoin       Type = "commute-join"
)

// Non-equivalence transformations.
const (
	AggFunction         Type = "agg-function"
	ChangeJoinCondition Type = "change-join-condition"
	LogicalConditions   Type = "logical-conditions"
	ValueChange         Type = "value-change"
	ComparisonOp        Type = "comparison-op"
	DropPredicate       Type = "drop-predicate"
	ProjectionChange    Type = "projection-change"
	DistinctToggle      Type = "distinct-toggle"
)

// EquivTypes lists the ten equivalence-preserving transformations.
func EquivTypes() []Type {
	return []Type{
		ReorderConditions, CTEWrap, JoinNested, NestedJoin, SwapSubqueries,
		BetweenSplit, InListOr, NotPushdown, DistinctGroupBy, CommuteJoin,
	}
}

// NonEquivTypes lists the eight non-equivalence transformations.
func NonEquivTypes() []Type {
	return []Type{
		AggFunction, ChangeJoinCondition, LogicalConditions, ValueChange,
		ComparisonOp, DropPredicate, ProjectionChange, DistinctToggle,
	}
}

// Transform applies the named transformation to a copy of the SELECT. It
// returns false when the query has no applicable site.
func Transform(sel *sqlast.SelectStmt, typ Type, r *rand.Rand) (*sqlast.SelectStmt, bool) {
	out := sqlast.CloneSelect(sel)
	var ok bool
	switch typ {
	case ReorderConditions:
		ok = reorderConditions(out, r)
	case CTEWrap:
		out, ok = cteWrap(out)
	case JoinNested:
		ok = joinToNested(out)
	case NestedJoin:
		ok = nestedToJoin(out)
	case SwapSubqueries:
		ok = inToExists(out)
	case BetweenSplit:
		ok = betweenSplit(out)
	case InListOr:
		ok = inListToOr(out)
	case NotPushdown:
		ok = notPushdown(out)
	case DistinctGroupBy:
		ok = distinctToGroupBy(out)
	case CommuteJoin:
		ok = commuteJoin(out)
	case AggFunction:
		ok = swapAggFunction(out)
	case ChangeJoinCondition:
		ok = changeJoinType(out)
	case LogicalConditions:
		ok = flipLogical(out)
	case ValueChange:
		ok = changeValue(out, r)
	case ComparisonOp:
		ok = weakenComparison(out)
	case DropPredicate:
		ok = dropPredicate(out)
	case ProjectionChange:
		ok = changeProjection(out)
	case DistinctToggle:
		ok = toggleDistinct(out)
	default:
		return nil, false
	}
	if !ok {
		return nil, false
	}
	return out, true
}

// ---------------------------------------------------------------------------
// Equivalence-preserving transformations

// reorderConditions rotates the top-level AND conjuncts of WHERE.
func reorderConditions(sel *sqlast.SelectStmt, r *rand.Rand) bool {
	conj := sqlast.Flatten("AND", sel.Where)
	if len(conj) < 2 {
		return false
	}
	// Rotate by a non-zero offset so the result always differs.
	k := 1 + r.Intn(len(conj)-1)
	rotated := append(append([]sqlast.Expr{}, conj[k:]...), conj[:k]...)
	sel.Where = sqlast.And(rotated...)
	return true
}

// cteWrap rewrites q as WITH sub AS ( q ) SELECT * FROM sub (the paper's Q9
// pattern). Queries that already use CTEs or set ops are skipped to avoid
// scope capture.
func cteWrap(sel *sqlast.SelectStmt) (*sqlast.SelectStmt, bool) {
	if len(sel.With) > 0 || sel.SetOp != nil {
		return nil, false
	}
	// Star projections through a derived name change column sets only when
	// duplicated names exist; accept plain selects.
	return &sqlast.SelectStmt{
		With:  []sqlast.CTE{{Name: "sub_q", Select: sel}},
		Items: []sqlast.SelectItem{{Expr: &sqlast.Star{}}},
		From:  []sqlast.TableRef{&sqlast.TableName{Name: "sub_q"}},
	}, true
}

// joinToNested converts a two-table equi-join whose projection touches only
// the left side into an IN subquery (the paper's Q8). Multiplicity can in
// principle differ; generated pairs are validated empirically before use.
func joinToNested(sel *sqlast.SelectStmt) bool {
	if len(sel.From) != 1 {
		return false
	}
	j, ok := sel.From[0].(*sqlast.Join)
	if !ok || j.Type != "INNER" || j.On == nil {
		return false
	}
	left, lok := j.Left.(*sqlast.TableName)
	right, rok := j.Right.(*sqlast.TableName)
	if !lok || !rok {
		return false
	}
	on, ok := j.On.(*sqlast.Binary)
	if !ok || on.Op != "=" {
		return false
	}
	lc, lcok := on.L.(*sqlast.ColumnRef)
	rc, rcok := on.R.(*sqlast.ColumnRef)
	if !lcok || !rcok {
		return false
	}
	leftBinding := bindingOf(left)
	rightBinding := bindingOf(right)
	// Orient so lc belongs to the left table.
	if strings.EqualFold(lc.Table, rightBinding) && strings.EqualFold(rc.Table, leftBinding) {
		lc, rc = rc, lc
	} else if !strings.EqualFold(lc.Table, leftBinding) || !strings.EqualFold(rc.Table, rightBinding) {
		return false
	}
	// Projection and WHERE must reference only the left binding.
	if referencesBinding(sel, rightBinding, leftBinding) {
		return false
	}
	sel.From = []sqlast.TableRef{left}
	membership := &sqlast.In{
		X: sqlast.Col(lc.Table, lc.Name),
		Sub: &sqlast.SelectStmt{
			Items: []sqlast.SelectItem{{Expr: sqlast.Col("", rc.Name)}},
			From:  []sqlast.TableRef{&sqlast.TableName{Name: right.Name}},
		},
	}
	sel.Where = sqlast.And(sel.Where, membership)
	return true
}

func bindingOf(t *sqlast.TableName) string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// referencesBinding reports whether any reference outside the join condition
// uses the given binding; other references must use onlyBinding.
func referencesBinding(sel *sqlast.SelectStmt, binding, onlyBinding string) bool {
	found := false
	check := func(e sqlast.Expr) {
		sqlast.Walk(e, func(n sqlast.Node) bool {
			if cr, ok := n.(*sqlast.ColumnRef); ok {
				if strings.EqualFold(cr.Table, binding) {
					found = true
				}
				if cr.Table == "" {
					found = true // unqualified: could come from either side
				}
			}
			if _, ok := n.(*sqlast.Star); ok {
				found = true
			}
			return true
		})
	}
	for _, item := range sel.Items {
		check(item.Expr)
	}
	check(sel.Where)
	check(sel.Having)
	for _, gexpr := range sel.GroupBy {
		check(gexpr)
	}
	for _, o := range sel.OrderBy {
		check(o.Expr)
	}
	return found
}

// nestedToJoin converts x IN (SELECT y FROM B [WHERE p]) into a join with a
// DISTINCT-protected derived table, preserving multiplicity.
func nestedToJoin(sel *sqlast.SelectStmt) bool {
	if len(sel.From) != 1 {
		return false
	}
	base, ok := sel.From[0].(*sqlast.TableName)
	if !ok {
		return false
	}
	conj := sqlast.Flatten("AND", sel.Where)
	for i, c := range conj {
		in, ok := c.(*sqlast.In)
		if !ok || in.Sub == nil || in.Not {
			continue
		}
		if len(in.Sub.Items) != 1 || len(in.Sub.From) != 1 {
			continue
		}
		innerCol, ok := in.Sub.Items[0].Expr.(*sqlast.ColumnRef)
		if !ok {
			continue
		}
		outerCol, ok := in.X.(*sqlast.ColumnRef)
		if !ok {
			continue
		}
		// Derived table with DISTINCT keeps the semi-join semantics.
		derived := sqlast.CloneSelect(in.Sub)
		derived.Distinct = true
		outerBinding := bindingOf(base)
		join := &sqlast.Join{
			Left:  base,
			Right: &sqlast.SubqueryTable{Select: derived, Alias: "dj"},
			Type:  "INNER",
			On: sqlast.Eq(
				sqlast.Col(outerBinding, outerCol.Name),
				sqlast.Col("dj", innerCol.Name),
			),
		}
		// Requalify unqualified outer references so they stay unambiguous.
		if outerCol.Table == "" {
			requalifyColumns(sel, outerBinding)
			join.On = sqlast.Eq(
				sqlast.Col(outerBinding, outerCol.Name),
				sqlast.Col("dj", innerCol.Name),
			)
		}
		sel.From = []sqlast.TableRef{join}
		rest := append(append([]sqlast.Expr{}, conj[:i]...), conj[i+1:]...)
		sel.Where = sqlast.And(rest...)
		return true
	}
	return false
}

// requalifyColumns qualifies every unqualified column reference of the
// top-level select with the binding (used when a join introduces a second
// relation).
func requalifyColumns(sel *sqlast.SelectStmt, binding string) {
	fix := func(e sqlast.Expr) {
		sqlast.Walk(e, func(n sqlast.Node) bool {
			if _, isSub := n.(*sqlast.SelectStmt); isSub {
				return false
			}
			if cr, ok := n.(*sqlast.ColumnRef); ok && cr.Table == "" {
				cr.Table = binding
			}
			return true
		})
	}
	for _, item := range sel.Items {
		fix(item.Expr)
	}
	fix(sel.Where)
	fix(sel.Having)
	for _, gexpr := range sel.GroupBy {
		fix(gexpr)
	}
	for _, o := range sel.OrderBy {
		fix(o.Expr)
	}
}

// inToExists rewrites x IN (SELECT y FROM B WHERE p) as
// EXISTS (SELECT 1 FROM B WHERE p AND y = x) — the subquery-form swap.
func inToExists(sel *sqlast.SelectStmt) bool {
	conj := sqlast.Flatten("AND", sel.Where)
	for i, c := range conj {
		in, ok := c.(*sqlast.In)
		if !ok || in.Sub == nil || in.Not {
			continue
		}
		if len(in.Sub.Items) != 1 || len(in.Sub.From) != 1 {
			continue
		}
		innerCol, ok := in.Sub.Items[0].Expr.(*sqlast.ColumnRef)
		if !ok {
			continue
		}
		outerCol, ok := in.X.(*sqlast.ColumnRef)
		if !ok {
			continue
		}
		if outerCol.Table == "" {
			// Correlation requires a distinguishable outer qualifier.
			continue
		}
		inner := sqlast.CloneSelect(in.Sub)
		inner.Items = []sqlast.SelectItem{{Expr: sqlast.Number("1")}}
		corr := sqlast.Eq(sqlast.Col(innerCol.Table, innerCol.Name), sqlast.Col(outerCol.Table, outerCol.Name))
		if innerCol.Table == "" {
			corr = sqlast.Eq(sqlast.Col("", innerCol.Name), sqlast.Col(outerCol.Table, outerCol.Name))
		}
		inner.Where = sqlast.And(inner.Where, corr)
		conj[i] = &sqlast.Exists{Sub: inner}
		sel.Where = sqlast.And(conj...)
		return true
	}
	return false
}

// betweenSplit rewrites x BETWEEN a AND b as x >= a AND x <= b.
func betweenSplit(sel *sqlast.SelectStmt) bool {
	conj := sqlast.Flatten("AND", sel.Where)
	for i, c := range conj {
		if btw, ok := c.(*sqlast.Between); ok && !btw.Not {
			conj[i] = sqlast.And(
				&sqlast.Binary{Op: ">=", L: btw.X, R: btw.Lo},
				&sqlast.Binary{Op: "<=", L: sqlast.CloneExpr(btw.X), R: btw.Hi},
			)
			sel.Where = sqlast.And(conj...)
			return true
		}
	}
	return false
}

// inListToOr rewrites x IN (v1, v2, ...) as x = v1 OR x = v2 ...
func inListToOr(sel *sqlast.SelectStmt) bool {
	conj := sqlast.Flatten("AND", sel.Where)
	for i, c := range conj {
		in, ok := c.(*sqlast.In)
		if !ok || in.Sub != nil || in.Not || len(in.List) == 0 {
			continue
		}
		var ors []sqlast.Expr
		for _, v := range in.List {
			ors = append(ors, sqlast.Eq(sqlast.CloneExpr(in.X), v))
		}
		conj[i] = sqlast.Or(ors...)
		sel.Where = sqlast.And(conj...)
		return true
	}
	return false
}

// notPushdown rewrites a comparison into double negation: x > v becomes
// NOT ( x <= v ), which is equivalent under SQL three-valued logic.
func notPushdown(sel *sqlast.SelectStmt) bool {
	negate := map[string]string{">": "<=", "<": ">=", ">=": "<", "<=": ">", "=": "<>", "<>": "="}
	conj := sqlast.Flatten("AND", sel.Where)
	for i, c := range conj {
		bin, ok := c.(*sqlast.Binary)
		if !ok {
			continue
		}
		neg, ok := negate[bin.Op]
		if !ok {
			continue
		}
		conj[i] = &sqlast.Unary{Op: "NOT", X: &sqlast.Binary{Op: neg, L: bin.L, R: bin.R}}
		sel.Where = sqlast.And(conj...)
		return true
	}
	return false
}

// distinctToGroupBy rewrites SELECT DISTINCT cols as SELECT cols GROUP BY cols.
func distinctToGroupBy(sel *sqlast.SelectStmt) bool {
	if !sel.Distinct || len(sel.GroupBy) > 0 || sel.Having != nil {
		return false
	}
	for _, item := range sel.Items {
		if _, ok := item.Expr.(*sqlast.ColumnRef); !ok {
			return false
		}
	}
	sel.Distinct = false
	for _, item := range sel.Items {
		sel.GroupBy = append(sel.GroupBy, sqlast.CloneExpr(item.Expr))
	}
	return true
}

// commuteJoin swaps the two sides of an inner equi-join whose operands are
// both base tables (projection column order is unchanged because items are
// explicit). Deeper joins are left alone: swapping a leaf inside a
// left-deep tree would force a right-nested tree for no expressive gain.
func commuteJoin(sel *sqlast.SelectStmt) bool {
	if len(sel.From) != 1 {
		return false
	}
	j, ok := sel.From[0].(*sqlast.Join)
	if !ok || j.Type != "INNER" {
		return false
	}
	if _, leftIsTable := j.Left.(*sqlast.TableName); !leftIsTable {
		return false
	}
	if _, rightIsTable := j.Right.(*sqlast.TableName); !rightIsTable {
		return false
	}
	// Star projections depend on column order; require explicit items.
	for _, item := range sel.Items {
		if _, isStar := item.Expr.(*sqlast.Star); isStar {
			return false
		}
	}
	j.Left, j.Right = j.Right, j.Left
	return true
}

// ---------------------------------------------------------------------------
// Non-equivalence transformations

// swapAggFunction changes an aggregate function (AVG <-> SUM, MIN <-> MAX),
// the paper's Q11.
func swapAggFunction(sel *sqlast.SelectStmt) bool {
	swap := map[string]string{"AVG": "SUM", "SUM": "AVG", "MIN": "MAX", "MAX": "MIN", "COUNT": "SUM"}
	for _, item := range sel.Items {
		if fc, ok := item.Expr.(*sqlast.FuncCall); ok {
			upper := strings.ToUpper(fc.Name)
			if repl, found := swap[upper]; found && !fc.Star {
				fc.Name = repl
				return true
			}
		}
	}
	return false
}

// changeJoinType switches INNER to LEFT join (the paper's Q12).
func changeJoinType(sel *sqlast.SelectStmt) bool {
	changed := false
	var visit func(ref sqlast.TableRef)
	visit = func(ref sqlast.TableRef) {
		if changed {
			return
		}
		if j, ok := ref.(*sqlast.Join); ok {
			if j.Type == "INNER" {
				j.Type = "LEFT"
				changed = true
				return
			}
			visit(j.Left)
			visit(j.Right)
		}
	}
	for _, ref := range sel.From {
		visit(ref)
	}
	return changed
}

// flipLogical changes one AND to OR (the paper's Q13).
func flipLogical(sel *sqlast.SelectStmt) bool {
	var flip func(e sqlast.Expr) bool
	flip = func(e sqlast.Expr) bool {
		bin, ok := e.(*sqlast.Binary)
		if !ok {
			return false
		}
		if bin.Op == "AND" {
			bin.Op = "OR"
			return true
		}
		return flip(bin.L) || flip(bin.R)
	}
	return flip(sel.Where)
}

// changeValue perturbs one literal in a comparison (the paper's Q14).
func changeValue(sel *sqlast.SelectStmt, r *rand.Rand) bool {
	done := false
	var walk func(e sqlast.Expr)
	walk = func(e sqlast.Expr) {
		if done || e == nil {
			return
		}
		switch t := e.(type) {
		case *sqlast.Binary:
			if t.Op == "AND" || t.Op == "OR" {
				walk(t.L)
				walk(t.R)
				return
			}
			if lit, ok := t.R.(*sqlast.Literal); ok && lit.Kind == sqlast.LitNumber {
				lit.Text = perturbNumber(lit.Text, r)
				done = true
			}
		case *sqlast.Between:
			if lit, ok := t.Hi.(*sqlast.Literal); ok && lit.Kind == sqlast.LitNumber {
				lit.Text = perturbNumber(lit.Text, r)
				done = true
			}
		case *sqlast.Unary:
			walk(t.X)
		}
	}
	walk(sel.Where)
	return done
}

func perturbNumber(text string, r *rand.Rand) string {
	if strings.Contains(text, ".") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return text + "1"
		}
		return strconv.FormatFloat(f*10+1, 'f', 1, 64)
	}
	n, err := strconv.Atoi(text)
	if err != nil {
		return text + "1"
	}
	return strconv.Itoa(n*3 + 7)
}

// weakenComparison swaps a strict comparison for its non-strict form.
func weakenComparison(sel *sqlast.SelectStmt) bool {
	weaken := map[string]string{">": ">=", "<": "<=", ">=": ">", "<=": "<"}
	done := false
	var walk func(e sqlast.Expr)
	walk = func(e sqlast.Expr) {
		if done || e == nil {
			return
		}
		if bin, ok := e.(*sqlast.Binary); ok {
			if bin.Op == "AND" || bin.Op == "OR" {
				walk(bin.L)
				walk(bin.R)
				return
			}
			if repl, found := weaken[bin.Op]; found {
				bin.Op = repl
				done = true
			}
		}
	}
	walk(sel.Where)
	return done
}

// dropPredicate removes one WHERE conjunct.
func dropPredicate(sel *sqlast.SelectStmt) bool {
	conj := sqlast.Flatten("AND", sel.Where)
	if len(conj) < 2 {
		return false
	}
	sel.Where = sqlast.And(conj[1:]...)
	return true
}

// changeProjection replaces the first projected column with a different
// column reference.
func changeProjection(sel *sqlast.SelectStmt) bool {
	for i, item := range sel.Items {
		if cr, ok := item.Expr.(*sqlast.ColumnRef); ok {
			// Find a second distinct column elsewhere in the query.
			var other *sqlast.ColumnRef
			sqlast.Walk(sel, func(n sqlast.Node) bool {
				if other != nil {
					return false
				}
				if c2, ok := n.(*sqlast.ColumnRef); ok &&
					!strings.EqualFold(c2.Name, cr.Name) {
					other = c2
				}
				return true
			})
			if other == nil {
				return false
			}
			sel.Items[i].Expr = sqlast.Col(other.Table, other.Name)
			return true
		}
	}
	return false
}

// toggleDistinct flips DISTINCT, changing result multiplicity.
func toggleDistinct(sel *sqlast.SelectStmt) bool {
	if len(sel.GroupBy) > 0 {
		return false // grouped output is already duplicate-free
	}
	sel.Distinct = !sel.Distinct
	return true
}
