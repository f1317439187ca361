package engine

// Grouped aggregation. Rows are bucketed by their GROUP BY key, then each
// group is folded through HAVING and the SELECT items (aggregates fold over
// the group's rows in input order). Group order is first appearance in the
// input, and rows keep input order within a group.

import (
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlast"
)

// group buckets in by the GROUP BY keys and folds each group into one
// output row, followed by its hidden sort keys.
func (x *executor) group(n *GroupNode, in *Relation) (*Relation, error) {
	cols := groupHeader(n.Items)
	groups, err := x.buildGroups(n.GroupBy, in)
	if err != nil {
		return nil, err
	}
	rows, err := x.evalGroups(n, cols, in, groups)
	if err != nil {
		return nil, err
	}
	return &Relation{Cols: withOrderKeys(cols, len(n.OrderBy)), Rows: rows}, nil
}

// groupHeader names the output columns of a grouped projection.
func groupHeader(items []sqlast.SelectItem) []Col {
	cols := make([]Col, len(items))
	for i, item := range items {
		name := item.Alias
		if name == "" {
			if cr, ok := item.Expr.(*sqlast.ColumnRef); ok {
				name = cr.Name
			} else if fc, ok := item.Expr.(*sqlast.FuncCall); ok {
				name = strings.ToLower(fc.Name)
			} else {
				name = "expr"
			}
		}
		cols[i] = Col{Name: name, Type: catalog.TypeAny}
	}
	return cols
}

// buildGroups buckets the source rows by GROUP BY key, preserving first-
// appearance group order and input row order within each group. With no
// GROUP BY there is one global group over everything (even zero rows).
func (x *executor) buildGroups(groupBy []sqlast.Expr, src *Relation) ([][][]Value, error) {
	if len(groupBy) == 0 {
		return [][][]Value{src.Rows}, nil
	}
	keys, err := x.groupKeys(groupBy, src)
	if err != nil {
		return nil, err
	}
	byKey := make(map[string]int, 64)
	var groups [][][]Value
	for i, row := range src.Rows {
		gi, ok := byKey[keys[i]]
		if !ok {
			gi = len(groups)
			byKey[keys[i]] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], row)
	}
	return groups, nil
}

// groupKeys computes the canonical grouping key of every source row.
// When every GROUP BY expression is a plain column reference that resolves
// uniquely in the source, keys are built straight from row values without
// going through the expression evaluator. Every row is evaluated even after
// an error, and the first error is returned.
func (x *executor) groupKeys(groupBy []sqlast.Expr, src *Relation) ([]string, error) {
	e := x.e
	keys := make([]string, len(src.Rows))
	e.ops.Add(int64(len(src.Rows)))
	var buf []byte
	if colIdx, ok := groupKeyColumns(groupBy, src); ok {
		scratch := make([]Value, len(colIdx))
		for i, row := range src.Rows {
			for j, ci := range colIdx {
				scratch[j] = row[ci]
			}
			buf = rowKey(buf[:0], scratch)
			keys[i] = string(buf)
		}
		return keys, nil
	}
	ev := x.evalEnv(src.Cols)
	scratch := make([]Value, len(groupBy))
	var firstErr error
	for i, row := range src.Rows {
		ev.row = row
		for j, g := range groupBy {
			v, err := e.evalExpr(g, ev)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				v = NullValue
			}
			scratch[j] = v
		}
		buf = rowKey(buf[:0], scratch)
		keys[i] = string(buf)
	}
	return keys, firstErr
}

// groupKeyColumns resolves GROUP BY expressions to source column indexes
// when they are all unambiguous plain column references.
func groupKeyColumns(groupBy []sqlast.Expr, src *Relation) ([]int, bool) {
	idxs := make([]int, len(groupBy))
	for i, g := range groupBy {
		cr, ok := g.(*sqlast.ColumnRef)
		if !ok {
			return nil, false
		}
		found := src.find(cr.Table, cr.Name)
		if len(found) != 1 {
			return nil, false
		}
		idxs[i] = found[0]
	}
	return idxs, true
}

// evalGroups folds HAVING, the SELECT items, and the ORDER BY keys over
// every group, in first-appearance order, through one grouped env. Every
// group is evaluated even after an error; the first group's error wins.
func (x *executor) evalGroups(n *GroupNode, cols []Col, src *Relation, groups [][][]Value) ([][]Value, error) {
	ev := x.evalEnv(src.Cols)
	ev.grouped = true
	out := make([][]Value, 0, len(groups))
	var firstErr error
	for _, rows := range groups {
		ev.group, ev.row = rows, nil
		if len(rows) > 0 {
			ev.row = rows[0]
		}
		row, err := x.evalGroup(n, cols, ev)
		switch {
		case err != nil:
			if firstErr == nil {
				firstErr = err
			}
		case row != nil:
			out = append(out, row)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// evalGroup evaluates the group ev carries into its projected row, under
// the visible header cols, with hidden order keys, or nil when HAVING
// rejects the group. ORDER BY aliases refer to projected values.
func (x *executor) evalGroup(n *GroupNode, cols []Col, ev *env) ([]Value, error) {
	e := x.e
	if n.Having != nil {
		hv, err := e.evalExpr(n.Having, ev)
		if err != nil || !hv.Truthy() {
			return nil, err
		}
	}
	row := make([]Value, len(cols)+len(n.OrderBy))
	for i, item := range n.Items {
		v, err := e.evalExpr(item.Expr, ev)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	nVis := len(cols)
	if err := e.orderKeys(n.OrderBy, ev, cols, row[:nVis], row[nVis:]); err != nil {
		return nil, err
	}
	return row, nil
}
