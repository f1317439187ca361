package engine

// Duplicate elimination and UNION/INTERSECT/EXCEPT. Both are keyed by the
// canonical row key (rowKey) and keep the first occurrence of each key
// in input order.

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

// distinct keeps the first row of each distinct key, in input order. Keys
// cover the visible columns only; the trailing hidden order keys ride along
// on the surviving rows.
func distinct(in *Relation, hidden int) *Relation {
	vis := len(in.Cols) - hidden
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
	return out
}

// setOp combines the left input with the right query block. The right side
// is a full query block executing in the *parent* CTE scope (the left
// block's WITH bindings are not visible to it).
func (x *executor) setOp(n *SetOpNode) (*Relation, error) {
	left, err := x.run(n.Left)
	if err != nil {
		return nil, err
	}
	// Drop the left block's hidden order keys before combining; post-set-op
	// ORDER BY resolves against the visible output columns instead.
	if h := hiddenCols(n.Left); h > 0 {
		left, _ = splitHidden(left, h)
	}
	right, err := x.e.execPlan(n.Right, x.outer, x.parentCTEs)
	if err != nil {
		return nil, err
	}
	return x.e.combineSetOp(left, right, n.Op, n.All)
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
