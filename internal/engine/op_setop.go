package engine

// distinctOp and setOpOp: duplicate elimination and UNION/INTERSECT/EXCEPT.
//
// Both are keyed by the canonical row key (Key/rowKey) and keep the first
// occurrence of each key in input order.

// rowKeysOf computes the canonical key of every row.
func rowKeysOf(rows [][]Value) []string {
	keys := make([]string, len(rows))
	var buf []byte
	for i, row := range rows {
		buf = rowKey(buf[:0], row)
		keys[i] = string(buf)
	}
	return keys
}

// ---------------------------------------------------------------------------
// distinctOp

type distinctOp struct {
	oe    *opEnv
	child operator

	rel    *Relation
	cursor relCursor
}

func (o *distinctOp) columns() []Col           { return o.rel.Cols }
func (o *distinctOp) hiddenCols() int          { return o.child.hiddenCols() }
func (o *distinctOp) materialized() *Relation  { return o.rel }
func (o *distinctOp) next() ([][]Value, error) { return o.cursor.next(), nil }
func (o *distinctOp) close()                   { o.child.close() }

func (o *distinctOp) open() error {
	in, err := drainInput(o.child)
	if err != nil {
		return err
	}
	// Deduplicate on the visible columns only; hidden order keys ride along
	// on the surviving rows.
	vis := len(in.Cols) - o.child.hiddenCols()
	keyed := in.Rows
	if vis < len(in.Cols) {
		keyed = make([][]Value, len(in.Rows))
		for i, row := range in.Rows {
			keyed[i] = row[:vis]
		}
	}
	keys := rowKeysOf(keyed)
	seen := make(map[string]bool, len(keys))
	out := &Relation{Cols: in.Cols}
	for i, row := range in.Rows {
		if seen[keys[i]] {
			continue
		}
		seen[keys[i]] = true
		out.Rows = append(out.Rows, row)
	}
	o.rel = out
	o.cursor = relCursor{rows: out.Rows}
	return nil
}

// ---------------------------------------------------------------------------
// setOpOp

type setOpOp struct {
	oe   *opEnv
	node *SetOpNode
	left operator

	rel    *Relation
	cursor relCursor
}

func (o *setOpOp) columns() []Col           { return o.rel.Cols }
func (o *setOpOp) hiddenCols() int          { return 0 }
func (o *setOpOp) materialized() *Relation  { return o.rel }
func (o *setOpOp) next() ([][]Value, error) { return o.cursor.next(), nil }
func (o *setOpOp) close()                   { o.left.close() }

func (o *setOpOp) open() error {
	left, err := drainInput(o.left)
	if err != nil {
		return err
	}
	// Drop the left block's hidden order keys before combining; post-set-op
	// ORDER BY resolves against the visible output columns instead.
	if h := o.left.hiddenCols(); h > 0 {
		vis := len(left.Cols) - h
		pruned := &Relation{Cols: left.Cols[:vis], Rows: make([][]Value, len(left.Rows))}
		for i, row := range left.Rows {
			pruned.Rows[i] = row[:vis:vis]
		}
		left = pruned
	}
	// The right side is a full query block executing in the *parent* CTE
	// scope (the left block's WITH bindings are not visible to it).
	right, err := o.oe.e.execPlan(o.node.Right, o.oe.outer, o.oe.parentCTEs)
	if err != nil {
		return err
	}
	rel, err := o.oe.e.combineSetOp(left, right, o.node.Op, o.node.All)
	if err != nil {
		return err
	}
	o.rel = rel
	o.cursor = relCursor{rows: rel.Rows}
	return nil
}

// combineSetOp applies a set operation to two materialized relations.
func (e *Engine) combineSetOp(a, b *Relation, op string, all bool) (*Relation, error) {
	if len(a.Cols) != len(b.Cols) {
		return nil, execErrorf("%s operands have different widths (%d vs %d)", op, len(a.Cols), len(b.Cols))
	}
	switch op {
	case "UNION", "INTERSECT", "EXCEPT":
	default:
		return nil, execErrorf("unknown set operation %q", op)
	}
	out := &Relation{Cols: a.Cols}
	if op == "UNION" && all {
		out.Rows = append(append(make([][]Value, 0, len(a.Rows)+len(b.Rows)), a.Rows...), b.Rows...)
		return out, nil
	}
	e.ops.Add(int64(len(a.Rows) + len(b.Rows)))
	out.Rows = setOpKeep(a.Rows, b.Rows, op, all)
	return out, nil
}

// setOpKeep runs the first-occurrence algorithm over both operands' row
// keys and returns the kept rows in emission order: all kept rows of a
// before any of b (b rows are only ever kept by UNION).
func setOpKeep(a, b [][]Value, op string, all bool) [][]Value {
	keysA, keysB := rowKeysOf(a), rowKeysOf(b)
	var out [][]Value
	if op == "UNION" {
		seen := make(map[string]bool, len(keysA)+len(keysB))
		for i, k := range keysA {
			if !seen[k] {
				seen[k] = true
				out = append(out, a[i])
			}
		}
		for i, k := range keysB {
			if !seen[k] {
				seen[k] = true
				out = append(out, b[i])
			}
		}
		return out
	}
	inB := make(map[string]int, len(keysB))
	for _, k := range keysB {
		inB[k]++
	}
	var seen map[string]bool
	if !all {
		seen = make(map[string]bool)
	}
	for i, k := range keysA {
		if op == "INTERSECT" {
			if inB[k] > 0 {
				if all {
					inB[k]--
					out = append(out, a[i])
				} else if !seen[k] {
					seen[k] = true
					out = append(out, a[i])
				}
			}
			continue
		}
		// EXCEPT
		if all {
			if inB[k] > 0 {
				inB[k]--
				continue
			}
			out = append(out, a[i])
		} else if inB[k] == 0 && !seen[k] {
			seen[k] = true
			out = append(out, a[i])
		}
	}
	return out
}
