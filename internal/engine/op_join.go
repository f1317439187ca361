package engine

// The executor's joins and the shared row plumbing they use: the hash join
// that explicit equi-joins and implicit-join steps share, the nested-loop
// join with outer padding, cross product, and the implicit join that orders
// comma-joined relations at execution time (the greedy ordering itself
// lives in planner.go).

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

// nestedLoopJoin joins two relations on an arbitrary ON predicate, with
// outer-join padding, under the header cols (left.Cols++right.Cols). The
// predicate evaluates against one scratch row reused across candidates
// (expression evaluation only reads the current row); only matching rows
// are materialized, from the arena.
func (x *executor) nestedLoopJoin(left, right *Relation, joinType string, on sqlast.Expr, cols []Col) (*Relation, error) {
	e := x.e
	out := &Relation{Cols: cols}
	joined := x.evalEnv(cols)
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
// column, then joins probe rows against it: each probe row emits its
// matching build rows in build insertion order — the nested loop's output
// order — or, in a LEFT/FULL join, itself padded with NULLs when nothing
// matched. After the probe, tail emits the unmatched build rows of a
// RIGHT/FULL join. Callers count probe rows toward the ops counter.
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

// probe joins the probe rows. The row cap is checked as matches
// append, as in the nested loop.
func (h *hashProbe) probe(rows [][]Value) ([][]Value, error) {
	out := make([][]Value, 0, len(rows))
	for _, pr := range rows {
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

// hashJoin is the one equi-join: the hash probe over right, run with all of
// left as its probe rows, then the unmatched right rows of a RIGHT/FULL
// join, under the header cols (left.Cols++right.Cols). Explicit equi-joins
// and implicit-join steps both call it.
func (e *Engine) hashJoin(left, right *Relation, li, ri int, joinType string, cols []Col) (*Relation, error) {
	h := e.newHashProbe(right, ri, li, len(left.Cols), joinType)
	e.ops.Add(int64(len(left.Rows)))
	rows, err := h.probe(left.Rows)
	if err != nil {
		return nil, err
	}
	return &Relation{Cols: cols, Rows: append(rows, h.tail()...)}, nil
}

// join runs an explicit join. An ON clause that is a plain column equality,
// resolving to one column on each side, runs the hash join keyed on the
// right input. CROSS and ON-less joins cross-product both inputs, and any
// other ON clause runs the nested loop. Every path emits left-major rows
// with right matches in right order.
func (x *executor) join(n *JoinNode) (*Relation, error) {
	left, err := x.run(n.Left)
	if err != nil {
		return nil, err
	}
	right, err := x.run(n.Right)
	if err != nil {
		return nil, err
	}
	cols := concatCols(left.Cols, right.Cols)
	if n.Type == "CROSS" || n.On == nil {
		return x.e.crossProduct(left, right, cols)
	}
	if li, ri, ok := equiJoinCols(n.On, left, right); ok {
		return x.e.hashJoin(left, right, li, ri, n.Type, cols)
	}
	return x.nestedLoopJoin(left, right, n.Type, n.On, cols)
}

// cross runs a left-deep cross product of comma-joined inputs (no WHERE
// clause to mine for join conditions, or every conjunct pushed below the
// inputs). Each input runs just before it is multiplied in.
func (x *executor) cross(n *CrossNode) (*Relation, error) {
	var acc *Relation
	for _, input := range n.Inputs {
		rel, err := x.run(input)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = rel
			continue
		}
		acc, err = x.e.crossProduct(acc, rel, concatCols(acc.Cols, rel.Cols))
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// implicitJoin runs a comma-joined FROM list plus conjunctive WHERE. The
// greedy left-deep ordering (planner.go) decides, once every input has run,
// which equality conjuncts become hash-join conditions; the leftover
// conjuncts filter the joined result, so the nodes above see exactly the
// rows the query's WHERE admits.
func (x *executor) implicitJoin(n *ImplicitJoinNode) (*Relation, error) {
	rels := make([]*Relation, len(n.Inputs))
	for i, input := range n.Inputs {
		rel, err := x.run(input)
		if err != nil {
			return nil, err
		}
		rels[i] = rel
	}
	joined, residual, err := x.e.orderImplicitJoins(rels, n.Where)
	if err != nil || residual == nil {
		return joined, err
	}
	return x.filter(joined, residual)
}
