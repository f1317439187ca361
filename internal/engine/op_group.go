package engine

// groupOp: the grouped-aggregation operator. Rows are bucketed by their
// GROUP BY key, then each group is folded through HAVING and the SELECT
// items (aggregates fold over the group's rows in input order). Group order
// is first appearance in the input, and rows keep input order within a
// group.

import (
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlast"
)

type groupOp struct {
	oe    *opEnv
	node  *GroupNode
	child operator

	cols   []Col // visible output columns
	all    []Col // cols plus hidden order-key columns
	rel    *Relation
	cursor relCursor
}

func (o *groupOp) columns() []Col           { return o.all }
func (o *groupOp) hiddenCols() int          { return len(o.node.OrderBy) }
func (o *groupOp) materialized() *Relation  { return o.rel }
func (o *groupOp) next() ([][]Value, error) { return o.cursor.next(), nil }
func (o *groupOp) close()                   { o.child.close() }

func (o *groupOp) open() error {
	src, err := drainInput(o.child)
	if err != nil {
		return err
	}
	o.cols = groupHeader(o.node.Items)
	o.all = o.cols
	if n := len(o.node.OrderBy); n > 0 {
		o.all = make([]Col, len(o.cols), len(o.cols)+n)
		copy(o.all, o.cols)
		for j := range o.node.OrderBy {
			o.all = append(o.all, orderKeyCol(j))
		}
	}

	groups, err := o.buildGroups(src)
	if err != nil {
		return err
	}
	rows, err := o.evalGroups(src, groups)
	if err != nil {
		return err
	}
	o.rel = &Relation{Cols: o.all, Rows: rows}
	o.cursor = relCursor{rows: rows}
	return nil
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
func (o *groupOp) buildGroups(src *Relation) ([][][]Value, error) {
	if len(o.node.GroupBy) == 0 {
		return [][][]Value{src.Rows}, nil
	}
	keys, err := o.groupKeys(src)
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
func (o *groupOp) groupKeys(src *Relation) ([]string, error) {
	e := o.oe.e
	keys := make([]string, len(src.Rows))
	e.ops.Add(int64(len(src.Rows)))
	var buf []byte
	if colIdx, ok := groupKeyColumns(o.node.GroupBy, src); ok {
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
	ev := o.oe.evalEnv(src.Cols)
	scratch := make([]Value, len(o.node.GroupBy))
	var firstErr error
	for i, row := range src.Rows {
		ev.row = row
		for j, g := range o.node.GroupBy {
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
func (o *groupOp) evalGroups(src *Relation, groups [][][]Value) ([][]Value, error) {
	ev := o.oe.evalEnv(src.Cols)
	ev.grouped = true
	out := make([][]Value, 0, len(groups))
	var firstErr error
	for _, rows := range groups {
		ev.group, ev.row = rows, nil
		if len(rows) > 0 {
			ev.row = rows[0]
		}
		row, err := o.evalGroup(ev)
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

// evalGroup evaluates the group ev carries into its projected row with
// hidden order keys, or nil when HAVING rejects the group. ORDER BY aliases
// refer to projected values.
func (o *groupOp) evalGroup(ev *env) ([]Value, error) {
	e := o.oe.e
	if o.node.Having != nil {
		hv, err := e.evalExpr(o.node.Having, ev)
		if err != nil || !hv.Truthy() {
			return nil, err
		}
	}
	row := make([]Value, len(o.all))
	for i, item := range o.node.Items {
		v, err := e.evalExpr(item.Expr, ev)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	nVis := len(o.cols)
	if err := e.orderKeys(o.node.OrderBy, ev, o.cols, row[:nVis], row[nVis:]); err != nil {
		return nil, err
	}
	return row, nil
}
