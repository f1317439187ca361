package engine

// Projection: the executor evaluates the SELECT items for every input row
// and, when the plan carries ORDER BY, also evaluates the sort keys in the
// same row context (so keys may reference non-projected source columns and
// projection aliases) and appends them as trailing hidden columns for the
// SortNode above.

import (
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlast"
)

// project evaluates the SELECT items, then the hidden sort keys, over every
// row of in, counting one row operation per row.
func (x *executor) project(n *ProjectNode, in *Relation) (*Relation, error) {
	cols, starIdx, err := projectionHeader(n.Items, in)
	if err != nil {
		return nil, err
	}
	all := withOrderKeys(cols, len(n.OrderBy))
	e := x.e
	e.ops.Add(int64(len(in.Rows)))
	ev := x.evalEnv(in.Cols)
	width := len(all)
	// Every output row is exactly `width` wide (star expansions are counted
	// in the header), so one backing allocation serves the whole result.
	backing := make([]Value, 0, len(in.Rows)*width)
	out := make([][]Value, 0, len(in.Rows))
	for _, row := range in.Rows {
		ev.row = row
		base := len(backing)
		for itemIdx, item := range n.Items {
			if idxs, isStar := starIdx[itemIdx]; isStar {
				for _, i := range idxs {
					backing = append(backing, row[i])
				}
				continue
			}
			v, err := e.evalExpr(item.Expr, ev)
			if err != nil {
				return nil, err
			}
			backing = append(backing, v)
		}
		if len(n.OrderBy) > 0 {
			visEnd := len(backing)
			backing = backing[:base+width]
			outRow := backing[base : base+width : base+width]
			if err := e.orderKeys(n.OrderBy, ev, cols, outRow[:visEnd-base], outRow[visEnd-base:]); err != nil {
				return nil, err
			}
			out = append(out, outRow)
		} else {
			out = append(out, backing[base:len(backing):len(backing)])
		}
	}
	return &Relation{Cols: all, Rows: out}, nil
}

// withOrderKeys returns cols followed by n hidden sort-key columns. Their
// names are never resolvable from SQL (identifiers cannot start with \x00),
// so hidden columns can never capture a user column reference.
func withOrderKeys(cols []Col, n int) []Col {
	if n == 0 {
		return cols
	}
	all := make([]Col, len(cols), len(cols)+n)
	copy(all, cols)
	for j := 0; j < n; j++ {
		all = append(all, Col{Name: "\x00order" + string(rune('0'+j)), Type: catalog.TypeAny})
	}
	return all
}

// projectionHeader computes output columns and, for star items, the source
// column indexes they expand to.
func projectionHeader(items []sqlast.SelectItem, src *Relation) ([]Col, map[int][]int, error) {
	var cols []Col
	starIdx := make(map[int][]int)
	for itemIdx, item := range items {
		if star, ok := item.Expr.(*sqlast.Star); ok {
			var idxs []int
			for i, c := range src.Cols {
				if star.Table == "" || strings.EqualFold(c.Qualifier, star.Table) {
					idxs = append(idxs, i)
					cols = append(cols, Col{Name: c.Name, Type: c.Type})
				}
			}
			if len(idxs) == 0 && star.Table != "" {
				return nil, nil, execErrorf("star qualifier %q matches no table", star.Table)
			}
			starIdx[itemIdx] = idxs
			continue
		}
		name := item.Alias
		if name == "" {
			if cr, ok := item.Expr.(*sqlast.ColumnRef); ok {
				name = cr.Name
			} else {
				name = "expr"
			}
		}
		cols = append(cols, Col{Name: name, Type: catalog.TypeAny})
	}
	return cols, starIdx, nil
}

// orderKeys evaluates ORDER BY expressions for one row, or for the group
// scanEnv carries, into keys (caller-allocated, len(order)). Projection
// aliases take precedence over source columns.
func (e *Engine) orderKeys(order []sqlast.OrderItem, scanEnv *env, outCols []Col, outRow []Value, keys []Value) error {
	for j, ob := range order {
		if cr, ok := ob.Expr.(*sqlast.ColumnRef); ok && cr.Table == "" {
			found := false
			for i, c := range outCols {
				if strings.EqualFold(c.Name, cr.Name) {
					keys[j] = outRow[i]
					found = true
					break
				}
			}
			if found {
				continue
			}
		}
		v, err := e.evalExpr(ob.Expr, scanEnv)
		if err != nil {
			return err
		}
		keys[j] = v
	}
	return nil
}
