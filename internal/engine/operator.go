package engine

import (
	"repro/internal/catalog"
)

// This file is the engine's physical-operator layer: a common batch-pull
// interface plus the simple operators (scan, filter, sort, limit). The
// heavier operators live in their own files: joins in op_join.go, projection
// in op_project.go, grouped aggregation in op_group.go, and
// distinct/set-operations in op_setop.go. Operators are instantiated per
// execution from the immutable logical plan (plan.go) by buildOperator in
// exec.go; they are single-use and not safe for concurrent calls (intra-
// query parallelism happens *inside* pipeline-breaking operators, bounded by
// Engine.Parallel, never across the operator tree).

// batchRows is the number of rows a streaming operator hands downstream per
// next() call.
const batchRows = 1024

// minParallelRows is the smallest input (total rows across operands) for
// which a pipeline breaker switches to its partitioned parallel
// implementation; below it the fan-out overhead dominates. Parallel and
// serial implementations are byte-identical, so the threshold affects only
// performance. A variable so tests can force the parallel paths on small
// handcrafted inputs.
var minParallelRows = 512

// operator is a physical plan operator. The contract is open-once,
// batch-pull until a nil batch, close-once:
//
//	open    prepares the operator; pipeline breakers (group, sort, set ops,
//	        joins) do all their work here.
//	next    returns the next batch of output rows, or nil at end of stream.
//	        Returned batches must not be retained across calls by streaming
//	        consumers that mutate them (none do).
//	columns is the output header — valid only after open, since most
//	        schemas depend on resolved child relations.
//	hiddenCols is the count of trailing hidden ORDER-BY-key columns
//	        included in columns(); they are consumed by sortOp and pruned
//	        before rows leave the query block.
type operator interface {
	columns() []Col
	hiddenCols() int
	open() error
	next() ([][]Value, error)
	close()
}

// opEnv is the per-execution context shared by every operator of one plan
// run: the engine, the outer row context for correlated subqueries, and the
// CTE scopes.
type opEnv struct {
	e     *Engine
	outer *env
	// ctes are the bindings visible to this query block (parent scope plus
	// this block's WITH clause).
	ctes map[string]*Relation
	// parentCTEs is the enclosing scope only; the right side of a set
	// operation resolves against it, not against the left block's WITH
	// bindings.
	parentCTEs map[string]*Relation
}

// evalEnv returns a row-evaluation env over the given header (rows are
// plugged in via env.row).
func (oe *opEnv) evalEnv(cols []Col) *env {
	return &env{rel: &Relation{Cols: cols}, outer: oe.outer, ctes: oe.ctes}
}

// drainInput opens op and materializes its whole output, reusing the
// operator's own backing relation when it is already materialized.
func drainInput(op operator) (*Relation, error) {
	if err := op.open(); err != nil {
		return nil, err
	}
	if m, ok := op.(interface{ materialized() *Relation }); ok {
		if rel := m.materialized(); rel != nil {
			return rel, nil
		}
	}
	rel := &Relation{Cols: op.columns()}
	for {
		batch, err := op.next()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			return rel, nil
		}
		rel.Rows = append(rel.Rows, batch...)
	}
}

// relCursor streams a materialized row set in batches.
type relCursor struct {
	rows [][]Value
	pos  int
}

func (c *relCursor) next() [][]Value {
	if c.pos >= len(c.rows) {
		return nil
	}
	end := c.pos + batchRows
	if end > len(c.rows) {
		end = len(c.rows)
	}
	batch := c.rows[c.pos:end]
	c.pos = end
	return batch
}

// ---------------------------------------------------------------------------
// oneRowOp: SELECT without FROM — a single zero-width row.

type oneRowOp struct {
	done bool
}

func (o *oneRowOp) columns() []Col  { return nil }
func (o *oneRowOp) hiddenCols() int { return 0 }
func (o *oneRowOp) open() error     { return nil }
func (o *oneRowOp) next() ([][]Value, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	return [][]Value{{}}, nil
}
func (o *oneRowOp) close() {}

// ---------------------------------------------------------------------------
// errorOp: a plan node that cannot execute (kept total at plan time).

type errorOp struct{ err error }

func (o *errorOp) columns() []Col           { return nil }
func (o *errorOp) hiddenCols() int          { return 0 }
func (o *errorOp) open() error              { return o.err }
func (o *errorOp) next() ([][]Value, error) { return nil, o.err }
func (o *errorOp) close()                   {}

// ---------------------------------------------------------------------------
// scanOp: base table or CTE scan, stamping the qualifier on every column.

type scanOp struct {
	oe   *opEnv
	node *ScanNode

	rel    *Relation
	cursor relCursor
}

func (o *scanOp) columns() []Col           { return o.rel.Cols }
func (o *scanOp) hiddenCols() int          { return 0 }
func (o *scanOp) materialized() *Relation  { return o.rel }
func (o *scanOp) next() ([][]Value, error) { return o.cursor.next(), nil }
func (o *scanOp) close()                   {}

func (o *scanOp) open() error {
	probe := &env{ctes: o.oe.ctes, outer: o.oe.outer}
	if rel, ok := probe.lookupCTE(catalog.BareName(o.node.Name)); ok {
		o.rel = requalify(rel, o.node.Qualifier)
	} else if rel, ok := o.oe.e.DB.Table(o.node.Name); ok {
		o.rel = requalify(rel, o.node.Qualifier)
	} else {
		return execErrorf("table %q does not exist", o.node.Name)
	}
	o.cursor = relCursor{rows: o.rel.Rows}
	return nil
}

// ---------------------------------------------------------------------------
// subqueryScanOp: derived table — execute the sub-plan, stamp the alias.

type subqueryScanOp struct {
	oe   *opEnv
	node *SubqueryScanNode

	rel    *Relation
	cursor relCursor
}

func (o *subqueryScanOp) columns() []Col           { return o.rel.Cols }
func (o *subqueryScanOp) hiddenCols() int          { return 0 }
func (o *subqueryScanOp) materialized() *Relation  { return o.rel }
func (o *subqueryScanOp) next() ([][]Value, error) { return o.cursor.next(), nil }
func (o *subqueryScanOp) close()                   {}

func (o *subqueryScanOp) open() error {
	rel, err := o.oe.e.execPlan(o.node.Plan, o.oe.outer, o.oe.ctes)
	if err != nil {
		return err
	}
	o.rel = requalify(rel, o.node.Qualifier)
	o.cursor = relCursor{rows: o.rel.Rows}
	return nil
}

// ---------------------------------------------------------------------------
// filterOp: streaming predicate over the child's batches.

type filterOp struct {
	oe    *opEnv
	node  *FilterNode
	child operator

	ev *env
}

func (o *filterOp) columns() []Col  { return o.child.columns() }
func (o *filterOp) hiddenCols() int { return o.child.hiddenCols() }
func (o *filterOp) close()          { o.child.close() }

func (o *filterOp) open() error {
	if err := o.child.open(); err != nil {
		return err
	}
	o.ev = o.oe.evalEnv(o.child.columns())
	return nil
}

func (o *filterOp) next() ([][]Value, error) {
	for {
		batch, err := o.child.next()
		if err != nil || batch == nil {
			return nil, err
		}
		o.oe.e.ops.Add(int64(len(batch)))
		out := make([][]Value, 0, len(batch))
		for _, row := range batch {
			o.ev.row = row
			v, err := o.oe.e.evalExpr(o.node.Cond, o.ev)
			if err != nil {
				return nil, err
			}
			if v.Truthy() {
				out = append(out, row)
			}
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

// ---------------------------------------------------------------------------
// sortOp: pipeline breaker ordering the input.

type sortOp struct {
	oe    *opEnv
	node  *SortNode
	child operator

	rel    *Relation
	cursor relCursor
}

func (o *sortOp) columns() []Col           { return o.rel.Cols }
func (o *sortOp) hiddenCols() int          { return 0 }
func (o *sortOp) materialized() *Relation  { return o.rel }
func (o *sortOp) next() ([][]Value, error) { return o.cursor.next(), nil }
func (o *sortOp) close()                   { o.child.close() }

func (o *sortOp) open() error {
	in, err := drainInput(o.child)
	if err != nil {
		return err
	}
	var keys [][]Value
	var visible *Relation
	if o.node.KeysFromInput {
		// The child (Project/Group) evaluated the ORDER BY expressions into
		// trailing hidden columns; split them off and sort the visible
		// prefix.
		vis := len(in.Cols) - o.child.hiddenCols()
		keys = make([][]Value, len(in.Rows))
		visRows := make([][]Value, len(in.Rows))
		for i, row := range in.Rows {
			keys[i] = row[vis:]
			visRows[i] = row[:vis:vis]
		}
		visible = &Relation{Cols: in.Cols[:vis], Rows: visRows}
	} else {
		// Post-set-operation ordering: resolve keys against the output
		// columns themselves.
		keys = make([][]Value, len(in.Rows))
		oenv := &env{rel: in, ctes: o.oe.ctes}
		for i, row := range in.Rows {
			oenv.row = row
			rowKeys := make([]Value, len(o.node.Order))
			for j, ob := range o.node.Order {
				v, err := o.oe.e.evalExpr(ob.Expr, oenv)
				if err != nil {
					return err
				}
				rowKeys[j] = v
			}
			keys[i] = rowKeys
		}
		visible = in
	}
	o.rel = sortRelation(visible, keys, o.node.Order)
	o.cursor = relCursor{rows: o.rel.Rows}
	return nil
}

// ---------------------------------------------------------------------------
// limitOp: OFFSET/LIMIT/TOP. The child is drained fully (the pre-refactor
// engine evaluated every row before slicing, and error behavior must not
// depend on the limit), then the window is sliced off.

type limitOp struct {
	node  *LimitNode
	child operator

	rel    *Relation
	cursor relCursor
}

func (o *limitOp) columns() []Col           { return o.rel.Cols }
func (o *limitOp) hiddenCols() int          { return 0 }
func (o *limitOp) materialized() *Relation  { return o.rel }
func (o *limitOp) next() ([][]Value, error) { return o.cursor.next(), nil }
func (o *limitOp) close()                   { o.child.close() }

func (o *limitOp) open() error {
	in, err := drainInput(o.child)
	if err != nil {
		return err
	}
	rows := in.Rows
	if o.node.Offset > 0 {
		if o.node.Offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[o.node.Offset:]
		}
	}
	if o.node.Limit >= 0 && o.node.Limit < len(rows) {
		rows = rows[:o.node.Limit]
	}
	o.rel = &Relation{Cols: in.Cols, Rows: rows}
	o.cursor = relCursor{rows: rows}
	return nil
}

// rowKey renders a row into the canonical grouping/set-operation key,
// appending to dst. Key (value.go) is defined in terms of this, so there is
// exactly one encoding.
func rowKey(dst []byte, row []Value) []byte {
	for i, v := range row {
		if i > 0 {
			dst = append(dst, '\x1f')
		}
		if v.Null {
			dst = append(dst, '\x00', 'N')
		} else {
			dst = appendValue(dst, v)
		}
	}
	return dst
}

func appendValue(dst []byte, v Value) []byte {
	switch v.Kind {
	case catalog.TypeText:
		return append(dst, v.S...)
	default:
		return append(dst, v.String()...)
	}
}
