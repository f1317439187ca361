package engine

// The executor's joins and the row plumbing they share. Every explicit join
// with an ON clause and every hash step of a comma join runs through one row
// loop, joinRows, which emits matches and does all outer-join padding. Its
// two callers find a left row's matches: hashJoin looks its key up in an
// index of the right input's key column (keys are equal exactly when values
// are Equal, so a hit is a match), nestedLoopJoin evaluates ON per right row.
// CROSS and ON-less joins and a comma join's cross steps go through
// crossProduct. The comma join orders its inputs at run time (planner.go).

import "repro/internal/sqlast"

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

// joinRows is the one join loop. For each left row, match reports the
// indexes of its matching right rows through yield, in the order they are
// to be emitted, and stops when yield returns false (the row cap was
// exceeded). Each match appends left++right; in a LEFT/FULL join a left row
// with no match appends itself padded with NULLs, and a RIGHT/FULL join
// appends its unmatched right rows, NULL-padded on the left, after all left
// rows. The row cap is checked as matches append. Rows come from one arena
// under the header cols (left.Cols++right.Cols).
func (e *Engine) joinRows(left, right *Relation, joinType string, cols []Col, match func(lr []Value, yield func(ri int) bool) error) (*Relation, error) {
	out := &Relation{Cols: cols, Rows: make([][]Value, 0, len(left.Rows))}
	arena := newRowArena(len(cols))
	var rightPad []Value
	if joinType == "LEFT" || joinType == "FULL" {
		rightPad = nullRow(len(right.Cols))
	}
	var rightMatched []bool
	if joinType == "RIGHT" || joinType == "FULL" {
		rightMatched = make([]bool, len(right.Rows))
	}
	maxRows := e.maxRows()
	var lr []Value
	yield := func(ri int) bool {
		if rightMatched != nil {
			rightMatched[ri] = true
		}
		out.Rows = append(out.Rows, arena.concat(lr, right.Rows[ri]))
		return len(out.Rows) <= maxRows
	}
	for _, lr = range left.Rows {
		n := len(out.Rows)
		if err := match(lr, yield); err != nil {
			return nil, err
		}
		switch {
		case len(out.Rows) == n:
			if rightPad != nil {
				out.Rows = append(out.Rows, arena.concat(lr, rightPad))
			}
		case len(out.Rows) > maxRows:
			return nil, execErrorf("join result exceeds row cap")
		}
	}
	if rightMatched != nil {
		leftPad := nullRow(len(left.Cols))
		for ri, rr := range right.Rows {
			if !rightMatched[ri] {
				out.Rows = append(out.Rows, arena.concat(leftPad, rr))
			}
		}
	}
	return out, nil
}

// nestedLoopJoin joins two relations on an arbitrary ON predicate, counting
// one row operation per candidate pair. The predicate evaluates against one
// scratch row reused across candidates (expression evaluation only reads the
// current row).
func (x *executor) nestedLoopJoin(left, right *Relation, joinType string, on sqlast.Expr, cols []Col) (*Relation, error) {
	e := x.e
	joined := x.evalEnv(cols)
	joined.row = make([]Value, len(cols))
	var ops int64
	out, err := e.joinRows(left, right, joinType, cols, func(lr []Value, yield func(int) bool) error {
		copy(joined.row, lr)
		for ri, rr := range right.Rows {
			ops++
			copy(joined.row[len(lr):], rr)
			v, err := e.evalExpr(on, joined)
			if err != nil {
				return err
			}
			if v.Truthy() && !yield(ri) {
				return nil
			}
		}
		return nil
	})
	e.ops.Add(ops)
	return out, err
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

// hashJoin is the one equi-join, keyed on column li of left and ri of right:
// it indexes right's keys and emits each left row's matches in right order,
// the nested loop's output order. It counts one row operation per build
// (right) and per probe (left) row. Keys are appendKey's, equal exactly when
// the values are Equal, so an index hit is a match. A NULL probe looks
// nothing up, so the NULL key, which indexes right's NULLs, matches nothing.
// The build keys are appended to one buffer and copied to one string, which
// every index key slices, so the index allocates no string per row.
func (e *Engine) hashJoin(left, right *Relation, li, ri int, joinType string, cols []Col) (*Relation, error) {
	var key []byte
	ends := make([]int, len(right.Rows))
	for idx, row := range right.Rows {
		key = appendKey(key, row[ri])
		ends[idx] = len(key)
	}
	keys, start := string(key), 0
	index := make(map[string][]int, len(right.Rows))
	for idx, end := range ends {
		index[keys[start:end]] = append(index[keys[start:end]], idx)
		start = end
	}
	e.ops.Add(int64(len(right.Rows) + len(left.Rows)))
	return e.joinRows(left, right, joinType, cols, func(lr []Value, yield func(int) bool) error {
		if v := lr[li]; !v.Null {
			key = appendKey(key[:0], v)
			for _, idx := range index[string(key)] {
				if !yield(idx) {
					break
				}
			}
		}
		return nil
	})
}

// join runs an explicit join. An ON clause that is a plain column equality,
// resolving to one column on each side (connects), runs the hash join keyed
// on the right input. CROSS and ON-less joins cross-product both inputs, and
// any other ON clause runs the nested loop. Every path emits left-major rows
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
	if li, ri, _, ok := connects(n.On, left, []*Relation{right}, nil); ok {
		return x.e.hashJoin(left, right, li, ri, n.Type, cols)
	}
	return x.nestedLoopJoin(left, right, n.Type, n.On, cols)
}

// implicitJoin runs a comma-joined FROM list plus its conjunctive WHERE, if
// any. Every input runs first, in FROM order. The greedy left-deep ordering
// (planner.go) then decides which equality conjuncts become hash-join
// conditions; the inputs no conjunct connects are cross-producted in, and
// the leftover conjuncts filter the joined result, so the nodes above see
// exactly the rows the query's WHERE admits.
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
