package engine

// Physical join operators and the shared row plumbing they use: the hash
// probe that explicit equi-joins and implicit-join steps share, the
// nested-loop join with outer padding, cross product, and the implicit-join
// operator that orders comma-joined relations at execution time (the greedy
// ordering itself lives in planner.go).

import (
	"repro/internal/catalog"
	"repro/internal/sqlast"
)

// rowArena block-allocates fixed-width result rows, replacing the per-row
// make in the join and cross-product inner loops with one allocation per
// block. The first block holds arenaFirstRows rows and each later one twice
// the previous, up to arenaBlockRows, so a join that emits a handful of rows
// allocates for a handful. Rows handed out are capacity-clipped so an append
// on one can never bleed into the next.
type rowArena struct {
	width     int
	blockRows int // rows in the next block
	buf       []Value
}

const (
	arenaFirstRows = 4
	arenaBlockRows = 256
)

func newRowArena(width int) *rowArena {
	return &rowArena{width: width, blockRows: arenaFirstRows}
}

func (a *rowArena) next() []Value {
	if a.width == 0 {
		return nil
	}
	if cap(a.buf)-len(a.buf) < a.width {
		a.buf = make([]Value, 0, a.width*a.blockRows)
		a.blockRows = min(2*a.blockRows, arenaBlockRows)
	}
	n := len(a.buf)
	a.buf = a.buf[:n+a.width]
	return a.buf[n : n+a.width : n+a.width]
}

// concat returns l++r as an arena-backed row.
func (a *rowArena) concat(l, r []Value) []Value {
	row := a.next()
	copy(row, l)
	copy(row[len(l):], r)
	return row
}

func nullRow(n int) []Value {
	row := make([]Value, n)
	for i := range row {
		row[i] = NullValue
	}
	return row
}

// concatCols returns l++r in a new exact-size header.
func concatCols(l, r []Col) []Col {
	return append(append(make([]Col, 0, len(l)+len(r)), l...), r...)
}

// crossProduct returns a×b under the header cols, which must be a.Cols++b.Cols
// (an implicit-join sequence passes a prefix of its one grown header).
func (e *Engine) crossProduct(a, b *Relation, cols []Col) (*Relation, error) {
	out := &Relation{Cols: cols}
	n := len(a.Rows) * len(b.Rows)
	if n > e.maxRows() {
		return nil, execErrorf("cross product exceeds row cap (%d x %d)", len(a.Rows), len(b.Rows))
	}
	e.ops.Add(int64(n))
	arena := newRowArena(len(out.Cols))
	out.Rows = make([][]Value, 0, n)
	for _, ra := range a.Rows {
		for _, rb := range b.Rows {
			out.Rows = append(out.Rows, arena.concat(ra, rb))
		}
	}
	return out, nil
}

// nestedLoopJoin joins two materialized relations on an arbitrary ON
// predicate, with outer-join padding. The predicate evaluates against one
// scratch row reused across candidates (expression evaluation only reads the
// current row); only matching rows are materialized, from the arena.
func (e *Engine) nestedLoopJoin(left, right *Relation, joinType string, on sqlast.Expr, oe *opEnv) (*Relation, error) {
	out := &Relation{Cols: concatCols(left.Cols, right.Cols)}
	joined := &env{rel: out, outer: oe.outer, ctes: oe.ctes}
	rightMatched := make([]bool, len(right.Rows))
	arena := newRowArena(len(out.Cols))
	scratch := make([]Value, len(left.Cols)+len(right.Cols))
	rightNulls := nullRow(len(right.Cols))
	var ops int64
	for _, lr := range left.Rows {
		matched := false
		copy(scratch, lr)
		for ri, rr := range right.Rows {
			ops++
			copy(scratch[len(lr):], rr)
			joined.row = scratch
			v, err := e.evalExpr(on, joined)
			if err != nil {
				e.ops.Add(ops)
				return nil, err
			}
			if v.Truthy() {
				matched = true
				rightMatched[ri] = true
				out.Rows = append(out.Rows, arena.concat(lr, rr))
				if len(out.Rows) > e.maxRows() {
					e.ops.Add(ops)
					return nil, execErrorf("join result exceeds row cap")
				}
			}
		}
		if !matched && (joinType == "LEFT" || joinType == "FULL") {
			out.Rows = append(out.Rows, arena.concat(lr, rightNulls))
		}
	}
	e.ops.Add(ops)
	if joinType == "RIGHT" || joinType == "FULL" {
		leftNulls := nullRow(len(left.Cols))
		for ri, rr := range right.Rows {
			if !rightMatched[ri] {
				out.Rows = append(out.Rows, arena.concat(leftNulls, rr))
			}
		}
	}
	return out, nil
}

// colEquality matches the one condition shape a hash join can key on: an
// equality between two plain column references.
func colEquality(cond sqlast.Expr) (*sqlast.ColumnRef, *sqlast.ColumnRef, bool) {
	bin, isBin := cond.(*sqlast.Binary)
	if !isBin || bin.Op != "=" {
		return nil, nil, false
	}
	l, lok := bin.L.(*sqlast.ColumnRef)
	r, rok := bin.R.(*sqlast.ColumnRef)
	return l, r, lok && rok
}

// equiJoinCols resolves a column-equality ON clause against the two inputs
// and returns the key column index on each side.
func equiJoinCols(on sqlast.Expr, left, right *Relation) (li, ri int, ok bool) {
	lc, rc, ok := colEquality(on)
	if !ok {
		return 0, 0, false
	}
	tryResolve := func(rel *Relation, cr *sqlast.ColumnRef) (int, bool) {
		idx := rel.find(cr.Table, cr.Name)
		if len(idx) == 1 {
			return idx[0], true
		}
		return 0, false
	}
	if i, ok1 := tryResolve(left, lc); ok1 {
		if jx, ok2 := tryResolve(right, rc); ok2 {
			return i, jx, true
		}
	}
	if i, ok1 := tryResolve(left, rc); ok1 {
		if jx, ok2 := tryResolve(right, lc); ok2 {
			return i, jx, true
		}
	}
	return 0, 0, false
}

// hashProbe is the one hash-join core. It indexes the build input on its key
// column, then joins probe rows against it batch by batch: each probe row
// emits its matching build rows in build insertion order — the nested loop's
// output order — or, in a LEFT/FULL join, itself padded with NULLs when
// nothing matched. After the last batch, tail emits the unmatched build rows
// of a RIGHT/FULL join. Callers count probe rows toward the ops counter.
type hashProbe struct {
	build              [][]Value
	buildKey, probeKey int
	index              map[string][]int
	// kind is the Kind of every non-NULL build key, unless mixed is set.
	// Index keys are rendered values, which agree with Equal only within one
	// Kind: IntVal(1000000) and FloatVal(1e6) are Equal but render "1000000"
	// and "1e+06". A probe value of another Kind, or any probe value against
	// a mixed build side, therefore scans every build row.
	kind  catalog.Type
	mixed bool
	all   []int // every build row index, built on the first scan

	padProbe   bool    // LEFT/FULL
	matched    []bool  // RIGHT/FULL: build rows matched so far
	buildPad   []Value // LEFT/FULL: the NULL build row padding unmatched probes
	probeWidth int
	arena      *rowArena
	emitted    int // rows emitted, for the row-cap check
	maxRows    int
}

// newHashProbe indexes build on column buildKey for probe rows of width
// probeWidth keyed on column probeKey, counting one row operation per build
// row. NULL keys are not indexed: they match nothing.
func (e *Engine) newHashProbe(build *Relation, buildKey, probeKey, probeWidth int, joinType string) *hashProbe {
	h := &hashProbe{
		build:      build.Rows,
		buildKey:   buildKey,
		probeKey:   probeKey,
		index:      make(map[string][]int, len(build.Rows)),
		padProbe:   joinType == "LEFT" || joinType == "FULL",
		probeWidth: probeWidth,
		arena:      newRowArena(probeWidth + len(build.Cols)),
		maxRows:    e.maxRows(),
	}
	if h.padProbe {
		h.buildPad = nullRow(len(build.Cols))
	}
	for idx, row := range build.Rows {
		v := row[buildKey]
		if v.Null {
			continue
		}
		if len(h.index) == 0 {
			h.kind = v.Kind
		} else if v.Kind != h.kind {
			h.mixed = true
		}
		k := hashKey(v)
		h.index[k] = append(h.index[k], idx)
	}
	if joinType == "RIGHT" || joinType == "FULL" {
		h.matched = make([]bool, len(build.Rows))
	}
	e.ops.Add(int64(len(build.Rows)))
	return h
}

// hashKey renders a value as an index key: its string form, with negative
// zero folded into zero (the two are Equal but render "-0" and "0").
func hashKey(v Value) string {
	if v.Kind == catalog.TypeFloat && v.F == 0 {
		return "0"
	}
	return v.String()
}

// candidates returns the build rows that may equal v, in insertion order.
func (h *hashProbe) candidates(v Value) []int {
	if !h.mixed && (len(h.index) == 0 || v.Kind == h.kind) {
		return h.index[hashKey(v)]
	}
	if h.all == nil {
		h.all = make([]int, len(h.build))
		for i := range h.all {
			h.all[i] = i
		}
	}
	return h.all
}

// probe joins one batch of probe rows. The row cap is checked as matches
// append, as in the nested loop.
func (h *hashProbe) probe(batch [][]Value) ([][]Value, error) {
	out := make([][]Value, 0, len(batch))
	for _, pr := range batch {
		v := pr[h.probeKey]
		matched := false
		if !v.Null {
			for _, idx := range h.candidates(v) {
				br := h.build[idx]
				if !Equal(v, br[h.buildKey]) {
					continue
				}
				matched = true
				if h.matched != nil {
					h.matched[idx] = true
				}
				out = append(out, h.arena.concat(pr, br))
				h.emitted++
				if h.emitted > h.maxRows {
					return nil, execErrorf("join result exceeds row cap")
				}
			}
		}
		if !matched && h.padProbe {
			out = append(out, h.arena.concat(pr, h.buildPad))
			h.emitted++
		}
	}
	return out, nil
}

// tail returns the unmatched build rows of a RIGHT/FULL join, padded with
// NULLs on the probe side, once; nil for other join types or when there are
// none.
func (h *hashProbe) tail() [][]Value {
	if h.matched == nil {
		return nil
	}
	pad := nullRow(h.probeWidth)
	var out [][]Value
	for idx, br := range h.build {
		if !h.matched[idx] {
			out = append(out, h.arena.concat(pad, br))
		}
	}
	h.matched = nil
	return out
}

// hashJoin is the implicit-join steps' inner equi-join: the hash probe over
// right, run with all of left as one batch, under the step's header cols
// (left.Cols++right.Cols).
func (e *Engine) hashJoin(left, right *Relation, li, ri int, cols []Col) (*Relation, error) {
	h := e.newHashProbe(right, ri, li, len(left.Cols), "INNER")
	rows, err := h.probe(left.Rows)
	if err != nil {
		return nil, err
	}
	e.ops.Add(int64(len(left.Rows)))
	return &Relation{Cols: cols, Rows: rows}, nil
}

// ---------------------------------------------------------------------------
// joinOp: explicit join. An ON clause that is a plain column equality builds
// the hash probe over the right input and streams the left input through it
// batch by batch, never materializing the probe side. CROSS and ON-less
// joins cross-product both inputs, and any other ON clause — or a column
// equality that does not resolve to one column per side — runs the nested
// loop. Every path emits left-major rows with right matches in right order.

type joinOp struct {
	oe          *opEnv
	node        *JoinNode
	left, right operator

	cols []Col

	// Cross product and nested loop: the materialized result.
	rel    *Relation
	cursor relCursor

	// Hash join: the probe over the right input, fed by the left input.
	hp        *hashProbe
	probeDone bool
}

func (o *joinOp) columns() []Col  { return o.cols }
func (o *joinOp) hiddenCols() int { return 0 }
func (o *joinOp) materialized() *Relation {
	return o.rel // nil while streaming: drainInput collects batches instead
}
func (o *joinOp) close() { o.left.close(); o.right.close() }

func (o *joinOp) open() error {
	if _, _, ok := colEquality(o.node.On); !ok || o.node.Type == "CROSS" {
		left, err := drainInput(o.left)
		if err != nil {
			return err
		}
		right, err := drainInput(o.right)
		if err != nil {
			return err
		}
		return o.materialize(left, right)
	}
	// The left opens before the right is touched, so open-time errors
	// surface in the same left-then-right order as above.
	if err := o.left.open(); err != nil {
		return err
	}
	build, err := drainInput(o.right)
	if err != nil {
		return err
	}
	probeCols := o.left.columns()
	li, ri, ok := equiJoinCols(o.node.On, &Relation{Cols: probeCols}, build)
	if !ok {
		left, err := drain(o.left)
		if err != nil {
			return err
		}
		return o.materialize(left, build)
	}
	o.cols = concatCols(probeCols, build.Cols)
	o.hp = o.oe.e.newHashProbe(build, ri, li, len(probeCols), o.node.Type)
	return nil
}

// materialize joins two drained inputs: a cross product for CROSS and
// ON-less joins, the nested loop otherwise.
func (o *joinOp) materialize(left, right *Relation) error {
	var rel *Relation
	var err error
	if o.node.Type == "CROSS" || o.node.On == nil {
		rel, err = o.oe.e.crossProduct(left, right, concatCols(left.Cols, right.Cols))
	} else {
		rel, err = o.oe.e.nestedLoopJoin(left, right, o.node.Type, o.node.On, o.oe)
	}
	if err != nil {
		return err
	}
	o.rel, o.cols = rel, rel.Cols
	o.cursor = relCursor{rows: rel.Rows}
	return nil
}

func (o *joinOp) next() ([][]Value, error) {
	if o.hp == nil {
		return o.cursor.next(), nil
	}
	for !o.probeDone {
		batch, err := o.left.next()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			o.probeDone = true
			break
		}
		o.oe.e.ops.Add(int64(len(batch)))
		out, err := o.hp.probe(batch)
		if err != nil {
			return nil, err
		}
		if len(out) > 0 {
			return out, nil
		}
	}
	return o.hp.tail(), nil
}

// ---------------------------------------------------------------------------
// crossOp: left-deep cross product of comma-joined inputs (no WHERE clause
// to mine for join conditions, or every conjunct pushed below the inputs).

type crossOp struct {
	oe     *opEnv
	inputs []operator

	rel    *Relation
	cursor relCursor
}

func (o *crossOp) columns() []Col           { return o.rel.Cols }
func (o *crossOp) hiddenCols() int          { return 0 }
func (o *crossOp) materialized() *Relation  { return o.rel }
func (o *crossOp) next() ([][]Value, error) { return o.cursor.next(), nil }
func (o *crossOp) close() {
	for _, in := range o.inputs {
		in.close()
	}
}

func (o *crossOp) open() error {
	var acc *Relation
	for _, in := range o.inputs {
		rel, err := drainInput(in)
		if err != nil {
			return err
		}
		if acc == nil {
			acc = rel
			continue
		}
		acc, err = o.oe.e.crossProduct(acc, rel, concatCols(acc.Cols, rel.Cols))
		if err != nil {
			return err
		}
	}
	o.rel = acc
	o.cursor = relCursor{rows: acc.Rows}
	return nil
}

// ---------------------------------------------------------------------------
// implicitJoinOp: comma-joined FROM list plus conjunctive WHERE. The greedy
// left-deep ordering (planner.go) decides at open time which equality
// conjuncts become hash-join conditions; the leftover conjuncts filter the
// joined result here, so downstream operators see exactly the rows the
// query's WHERE admits.

type implicitJoinOp struct {
	oe     *opEnv
	node   *ImplicitJoinNode
	inputs []operator

	rel    *Relation
	cursor relCursor
}

func (o *implicitJoinOp) columns() []Col           { return o.rel.Cols }
func (o *implicitJoinOp) hiddenCols() int          { return 0 }
func (o *implicitJoinOp) materialized() *Relation  { return o.rel }
func (o *implicitJoinOp) next() ([][]Value, error) { return o.cursor.next(), nil }
func (o *implicitJoinOp) close() {
	for _, in := range o.inputs {
		in.close()
	}
}

func (o *implicitJoinOp) open() error {
	rels := make([]*Relation, len(o.inputs))
	for i, in := range o.inputs {
		rel, err := drainInput(in)
		if err != nil {
			return err
		}
		rels[i] = rel
	}
	joined, residual, err := o.oe.e.orderImplicitJoins(rels, o.node.Where)
	if err != nil {
		return err
	}
	if residual != nil {
		ev := o.oe.evalEnv(joined.Cols)
		filtered := &Relation{Cols: joined.Cols, Rows: make([][]Value, 0, len(joined.Rows))}
		o.oe.e.ops.Add(int64(len(joined.Rows)))
		for _, row := range joined.Rows {
			ev.row = row
			v, err := o.oe.e.evalExpr(residual, ev)
			if err != nil {
				return err
			}
			if v.Truthy() {
				filtered.Rows = append(filtered.Rows, row)
			}
		}
		joined = filtered
	}
	o.rel = joined
	o.cursor = relCursor{rows: joined.Rows}
	return nil
}
