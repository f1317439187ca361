package engine

// projectOp: the streaming projection operator. It evaluates the SELECT
// items per input batch and, when the plan carries ORDER BY, also evaluates
// the sort keys in the same row context (so keys may reference
// non-projected source columns and projection aliases) and appends them as
// trailing hidden columns for the SortNode above.

import (
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlast"
)

type projectOp struct {
	oe    *opEnv
	node  *ProjectNode
	child operator

	cols    []Col // visible output columns
	all     []Col // cols plus hidden order-key columns
	starIdx map[int][]int
	ev      *env
}

func (o *projectOp) columns() []Col  { return o.all }
func (o *projectOp) hiddenCols() int { return len(o.node.OrderBy) }
func (o *projectOp) close()          { o.child.close() }

func (o *projectOp) open() error {
	if err := o.child.open(); err != nil {
		return err
	}
	src := &Relation{Cols: o.child.columns()}
	cols, starIdx, err := projectionHeader(o.node.Items, src)
	if err != nil {
		return err
	}
	o.cols, o.starIdx = cols, starIdx
	o.all = cols
	if n := len(o.node.OrderBy); n > 0 {
		o.all = make([]Col, len(cols), len(cols)+n)
		copy(o.all, cols)
		for j := range o.node.OrderBy {
			o.all = append(o.all, orderKeyCol(j))
		}
	}
	o.ev = o.oe.evalEnv(o.child.columns())
	return nil
}

// orderKeyCol names a hidden sort-key column. The name is never resolvable
// from SQL (identifiers cannot start with \x00), so hidden columns can
// never capture a user column reference.
func orderKeyCol(j int) Col {
	return Col{Name: "\x00order" + string(rune('0'+j)), Type: catalog.TypeAny}
}

func (o *projectOp) next() ([][]Value, error) {
	batch, err := o.child.next()
	if err != nil || batch == nil {
		return nil, err
	}
	e := o.oe.e
	e.ops.Add(int64(len(batch)))
	nOrder := len(o.node.OrderBy)
	width := len(o.all)
	// Every output row is exactly `width` wide (star expansions are counted
	// in the header), so one backing allocation serves the whole batch.
	backing := make([]Value, 0, len(batch)*width)
	out := make([][]Value, 0, len(batch))
	for _, row := range batch {
		o.ev.row = row
		base := len(backing)
		for itemIdx, item := range o.node.Items {
			if idxs, isStar := o.starIdx[itemIdx]; isStar {
				for _, i := range idxs {
					backing = append(backing, row[i])
				}
				continue
			}
			v, err := e.evalExpr(item.Expr, o.ev)
			if err != nil {
				return nil, err
			}
			backing = append(backing, v)
		}
		if nOrder > 0 {
			visEnd := len(backing)
			backing = backing[:base+width]
			outRow := backing[base : base+width : base+width]
			if err := e.orderKeys(o.node.OrderBy, o.ev, o.cols, outRow[:visEnd-base], outRow[visEnd-base:]); err != nil {
				return nil, err
			}
			out = append(out, outRow)
		} else {
			out = append(out, backing[base:len(backing):len(backing)])
		}
	}
	return out, nil
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
