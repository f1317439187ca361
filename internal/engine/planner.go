package engine

import "repro/internal/sqlast"

// Implicit-join ordering: comma-joined relations are joined left-deep using
// the equality conjuncts of the WHERE clause, and the conjuncts not consumed
// as join conditions are returned as the residual filter. Without this, a
// Join-Order-Benchmark-style query with a dozen comma-joined relations would
// materialize the full cross product.
//
// The ordering runs at execution time, not plan time, because it depends on
// each relation's resolved column set (subqueries and CTEs included). The
// logical plan carries every comma join, WHERE or not, as one
// ImplicitJoinNode. Sequence selection is split from execution: planJoins
// simulates the greedy ordering over column headers only (no rows move),
// producing joinSteps that executeJoinSteps then runs, each step through the
// hash join an explicit equi-join uses or, with no connecting conjunct (every
// step, without a WHERE), through crossProduct. The sequence's headers are
// prefixes of one header grown in step order, so no step copies the columns
// accumulated before it. A sequence that joins the relations out of FROM
// order ends with fromOrder, which puts the columns back in FROM order, the
// order SELECT * reads them in.

// joinStep is one step of a left-deep implicit-join sequence: join relation
// `target` into the accumulated prefix, either on conjunct `conj` with the
// given key column indexes, or (conj < 0) as a cross product. cols is the
// header after the step: the prefix's columns followed by target's.
type joinStep struct {
	target int
	conj   int
	li, ri int
	cols   []Col
}

// orderImplicitJoins joins the relations in greedy order.
func (e *Engine) orderImplicitJoins(rels []*Relation, where sqlast.Expr) (*Relation, sqlast.Expr, error) {
	conjuncts := sqlast.Flatten("AND", where)
	steps, used := e.planJoins(rels, conjuncts)
	acc, err := e.executeJoinSteps(rels, steps)
	if err != nil {
		return nil, nil, err
	}
	return fromOrder(acc, rels, steps), residualOf(conjuncts, used), nil
}

// fromOrder returns the joined relation with its columns, which follow the
// join sequence, in the FROM order of rels.
func fromOrder(acc *Relation, rels []*Relation, steps []joinStep) *Relation {
	start := make([]int, len(rels)) // where each relation's columns begin in acc
	off, inOrder := len(rels[0].Cols), true
	for i, s := range steps {
		start[s.target] = off
		off += len(rels[s.target].Cols)
		inOrder = inOrder && s.target == i+1
	}
	if inOrder {
		return acc
	}
	perm := make([]int, 0, off)
	for i, rel := range rels {
		for j := range rel.Cols {
			perm = append(perm, start[i]+j)
		}
	}
	out := &Relation{Cols: make([]Col, len(perm)), Rows: make([][]Value, len(acc.Rows))}
	for i, p := range perm {
		out.Cols[i] = acc.Cols[p]
	}
	rows := newRowArena(len(perm))
	for r, row := range acc.Rows {
		dst := rows.next()
		for i, p := range perm {
			dst[i] = row[p]
		}
		out.Rows[r] = dst
	}
	return out
}

// planJoins simulates the greedy ordering — repeated passes over the
// conjuncts in order, joining every one that connects the accumulated prefix
// to an unjoined relation, cross-producting the first unjoined relation when
// a pass makes no progress — over column headers only.
func (e *Engine) planJoins(rels []*Relation, conjuncts []sqlast.Expr) ([]joinStep, []bool) {
	used := make([]bool, len(conjuncts))
	joined := map[int]bool{0: true}
	width := 0
	for _, rel := range rels {
		width += len(rel.Cols)
	}
	// header is sized to the whole sequence, so appending never moves it and
	// every step's prefix stays valid. Each prefix is capacity-clipped: an
	// append on a step's header copies instead of overwriting the next step's
	// columns.
	header := append(make([]Col, 0, width), rels[0].Cols...)
	acc := &Relation{Cols: header}
	steps := make([]joinStep, 0, len(rels)-1)
	join := func(s joinStep) {
		header = append(header, rels[s.target].Cols...)
		s.cols = header[:len(header):len(header)]
		acc.Cols = s.cols
		steps = append(steps, s)
		joined[s.target] = true
	}
	for len(joined) < len(rels) {
		progressed := false
		for ci, c := range conjuncts {
			if used[ci] {
				continue
			}
			li, ri, target, ok := connects(c, acc, rels, joined)
			if !ok {
				continue
			}
			join(joinStep{target: target, conj: ci, li: li, ri: ri})
			used[ci] = true
			progressed = true
		}
		if !progressed {
			// No connecting predicate: cross product with the next unjoined
			// relation and keep going.
			for i := range rels {
				if !joined[i] {
					join(joinStep{target: i, conj: -1})
					break
				}
			}
		}
	}
	return steps, used
}

// executeJoinSteps runs a simulated sequence: hash joins for conjunct steps,
// cross products otherwise.
func (e *Engine) executeJoinSteps(rels []*Relation, steps []joinStep) (*Relation, error) {
	acc := rels[0]
	for _, s := range steps {
		var err error
		if s.conj < 0 {
			acc, err = e.crossProduct(acc, rels[s.target], s.cols)
		} else {
			acc, err = e.hashJoin(acc, rels[s.target], s.li, s.ri, "INNER", s.cols)
		}
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

func residualOf(conjuncts []sqlast.Expr, used []bool) sqlast.Expr {
	var residual []sqlast.Expr
	for ci, c := range conjuncts {
		if !used[ci] {
			residual = append(residual, c)
		}
	}
	return sqlast.And(residual...)
}

// connects reports whether conjunct c is an equality joining a column of the
// accumulated relation to a column of exactly one unjoined relation. An
// explicit join asks it with the right input as the only relation, to find
// its hash key.
func connects(c sqlast.Expr, acc *Relation, rels []*Relation, joined map[int]bool) (accIdx, relIdx, target int, ok bool) {
	lc, rc, ok := colEquality(c)
	if !ok {
		return 0, 0, 0, false
	}
	try := func(a, b *sqlast.ColumnRef) (int, int, int, bool) {
		ai := acc.find(a.Table, a.Name)
		if len(ai) != 1 {
			return 0, 0, 0, false
		}
		for i, rel := range rels {
			if joined[i] {
				continue
			}
			bi := rel.find(b.Table, b.Name)
			if len(bi) == 1 {
				return ai[0], bi[0], i, true
			}
		}
		return 0, 0, 0, false
	}
	if ai, bi, t, ok := try(lc, rc); ok {
		return ai, bi, t, true
	}
	if ai, bi, t, ok := try(rc, lc); ok {
		return ai, bi, t, true
	}
	return 0, 0, 0, false
}
