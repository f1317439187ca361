package sqlparse

import (
	"slices"

	"repro/internal/sqlast"
	"repro/internal/sqllex"
)

// Prefix recognizes a sequence of related token slices that share a prefix,
// such as one statement with a different token spliced in at a later point
// each time. It runs the same grammar as ParseStatementTokens, building no
// tree, and memoizes the list rules — the select list and its items, the
// FROM list and its table references, and AND conjuncts (every expression is
// a list of those) — by start index, in the manner of a packrat parser. Each
// stored result, failures included, is where the rule ended, its error, the
// highest token index it read (its horizon), the tree level it started at
// and the deepest level it reached. A result is stored only when its horizon
// lies inside the call's shared prefix and reused only when it lies inside
// the current one and the rule starts at the same level, so a reused result
// is exactly what a re-parse would return: a rule's result depends on
// nothing but its start level and the tokens from its start up to its
// horizon.
//
// A Prefix is not safe for concurrent use. The zero value is ready to use;
// Reset readies a used one for another reference sequence.
type Prefix struct {
	p      parser // reused by every call, so a call allocates no parser
	shared int
	rows   []memoRow // by start index; rows[len(rows):cap(rows)] are zero
}

// Reset forgets every stored result, and the tokens of the last call, so
// that r can serve a new reference sequence while keeping its rows'
// storage. Until then a Prefix keeps the tokens of its last call and the
// ParseErrors of its stored failures, which hold token text.
func (r *Prefix) Reset() {
	clear(r.rows)
	*r = Prefix{rows: r.rows[:0]}
}

// Recognize reports whether toks parses as one statement and returns the
// error ParseStatementTokens(toks) would return, with the same Pos, Msg and
// Near. Every slice given to one Prefix must start like one reference
// sequence: toks[:shared] (0 <= shared <= len(toks)) equals the reference's
// first shared tokens, and toks may differ from it anywhere after. For the
// repair search the reference is the damaged query, and a buffer with a
// token spliced in at a gap agrees with it up to the gap. Calls with
// non-decreasing shared reuse the most.
func (r *Prefix) Recognize(toks []sqllex.Token, shared int) error {
	// A rule may start at end of input, one past the last token.
	if n := len(toks) + 1; len(r.rows) < n {
		r.rows = slices.Grow(r.rows, n-len(r.rows))[:n]
	}
	r.shared = shared
	r.p = parser{toks: toks, horizon: -1, prefix: r}
	_, err := r.p.statement()
	return err
}

// memoRow holds the results of the memoized rules that start at one index
// (160 bytes).
type memoRow struct {
	selectList, selectItem, fromList, tableRef, conjunct memoEntry
}

type memoEntry struct {
	stored  bool
	depth   int16 // the tree level the rule started at
	reach   int16 // the deepest tree level the rule reached
	end     int32 // position after the rule returned
	horizon int32 // highest token index the rule read
	err     error
}

// recall runs rule at the current position through its memo entry e. Under
// a Prefix the rules build no nodes, so only the zero T is ever returned.
func recall[T any](p *parser, e *memoEntry, rule func(*parser) (T, error)) (T, error) {
	if e.stored && int(e.horizon) < p.prefix.shared && int(e.depth) == p.depth {
		p.pos = int(e.end)
		p.see(int(e.horizon))
		p.reach = max(p.reach, int(e.reach))
		var none T
		return none, e.err
	}
	// Track the rule's own horizon and reach, then fold them into the
	// caller's.
	outer, outerReach, depth := p.horizon, p.reach, p.depth
	p.horizon, p.reach = p.pos, depth
	node, err := rule(p)
	h, reach := p.horizon, p.reach
	p.see(outer)
	p.reach = max(outerReach, reach)
	if h < p.prefix.shared {
		*e = memoEntry{stored: true, depth: int16(depth), reach: int16(reach), end: int32(p.pos), horizon: int32(h), err: err}
	}
	return node, err
}

func (p *parser) selectList() ([]sqlast.SelectItem, error) {
	if p.prefix == nil {
		return p.parseSelectList()
	}
	return recall(p, &p.prefix.rows[p.pos].selectList, (*parser).parseSelectList)
}

func (p *parser) selectItem() (sqlast.SelectItem, error) {
	if p.prefix == nil {
		return p.parseSelectItem()
	}
	return recall(p, &p.prefix.rows[p.pos].selectItem, (*parser).parseSelectItem)
}

func (p *parser) fromList() ([]sqlast.TableRef, error) {
	if p.prefix == nil {
		return p.parseFromList()
	}
	return recall(p, &p.prefix.rows[p.pos].fromList, (*parser).parseFromList)
}

func (p *parser) tableRef() (sqlast.TableRef, error) {
	if p.prefix == nil {
		return p.parseTableRef()
	}
	return recall(p, &p.prefix.rows[p.pos].tableRef, (*parser).parseTableRef)
}

// conjunct parses one operand of AND.
func (p *parser) conjunct() (sqlast.Expr, error) {
	if p.prefix == nil {
		return p.parseNot()
	}
	return recall(p, &p.prefix.rows[p.pos].conjunct, (*parser).parseNot)
}
