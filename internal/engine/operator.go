package engine

import (
	"repro/internal/catalog"
	"repro/internal/sqlast"
)

// The executor's work for the simple plan nodes: scan, filter, sort and
// limit. run (exec.go) hands each its input already materialized; the
// heavier nodes live in their own files: joins in op_join.go, projection in
// op_project.go, grouped aggregation in op_group.go, and distinct/set
// operations in op_setop.go.

// scan reads a base table or CTE, stamping the qualifier on every column.
// CTEs shadow base tables.
func (x *executor) scan(n *ScanNode) (*Relation, error) {
	probe := &env{ctes: x.ctes, outer: x.outer}
	if rel, ok := probe.lookupCTE(catalog.BareName(n.Name)); ok {
		return requalify(rel, n.Qualifier), nil
	}
	if rel, ok := x.e.DB.Table(n.Name); ok {
		return requalify(rel, n.Qualifier), nil
	}
	return nil, execErrorf("table %q does not exist", n.Name)
}

// filter keeps the rows of in whose condition is truthy, counting one row
// operation per input row. It runs FilterNode and the residual conjuncts of
// an implicit join.
func (x *executor) filter(in *Relation, cond sqlast.Expr) (*Relation, error) {
	x.e.ops.Add(int64(len(in.Rows)))
	ev := x.evalEnv(in.Cols)
	out := &Relation{Cols: in.Cols, Rows: make([][]Value, 0, len(in.Rows))}
	for _, row := range in.Rows {
		ev.row = row
		v, err := x.e.evalExpr(cond, ev)
		if err != nil {
			return nil, err
		}
		if v.Truthy() {
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// sort orders in by the node's keys and returns the visible columns.
func (x *executor) sort(n *SortNode, in *Relation) (*Relation, error) {
	if n.KeysFromInput {
		// The input (Project/Group) evaluated the ORDER BY expressions into
		// trailing hidden columns; split them off and sort the visible
		// prefix.
		visible, keys := splitHidden(in, hiddenCols(n.Input))
		return sortRelation(visible, keys, n.Order), nil
	}
	// Post-set-operation ordering: resolve keys against the output columns
	// themselves.
	keys := make([][]Value, len(in.Rows))
	oenv := &env{rel: in, ctes: x.ctes}
	for i, row := range in.Rows {
		oenv.row = row
		rowKeys := make([]Value, len(n.Order))
		for j, ob := range n.Order {
			v, err := x.e.evalExpr(ob.Expr, oenv)
			if err != nil {
				return nil, err
			}
			rowKeys[j] = v
		}
		keys[i] = rowKeys
	}
	return sortRelation(in, keys, n.Order), nil
}

// splitHidden splits the trailing hidden order-key columns off in: the
// visible relation and, per row, its keys.
func splitHidden(in *Relation, hidden int) (*Relation, [][]Value) {
	vis := len(in.Cols) - hidden
	keys := make([][]Value, len(in.Rows))
	visRows := make([][]Value, len(in.Rows))
	for i, row := range in.Rows {
		keys[i] = row[vis:]
		visRows[i] = row[:vis:vis]
	}
	return &Relation{Cols: in.Cols[:vis], Rows: visRows}, keys
}

// limit applies OFFSET/LIMIT/TOP. The input is complete before the window
// is sliced off, so whether a query errors does not depend on its limit.
func limit(n *LimitNode, in *Relation) *Relation {
	rows := in.Rows
	if n.Offset > 0 {
		if n.Offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[n.Offset:]
		}
	}
	if n.Limit >= 0 && n.Limit < len(rows) {
		rows = rows[:n.Limit]
	}
	return &Relation{Cols: in.Cols, Rows: rows}
}
