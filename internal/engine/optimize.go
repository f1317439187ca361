package engine

// The plan optimizer: a pure plan→plan rewrite between BuildPlan and
// physical lowering, applied by planFor to every plan (only the unoptimized
// test oracle skips it). Its one rewrite is predicate pushdown: Filter
// conjuncts that mention a single side of a Join/Cross move below the join;
// single-input conjuncts of an ImplicitJoinNode's WHERE move below the comma
// join; conjuncts over a derived table map through its projection items and
// move inside the subquery. Pushed filters see fewer columns but the same
// values, so joins build and probe smaller inputs.
//
// Byte-identity contract: for every statement, the optimized plan yields
// the same columns, rows, and row order as the unoptimized plan. Error
// *presence* is also preserved; pushdown is
// restricted to total predicates (comparisons, LIKE, BETWEEN, IS NULL,
// IN-list, boolean combinators over column refs and literals — nothing that
// can fail at evaluation time) so a pushed filter can never raise a value
// error on rows the unoptimized plan would not have evaluated, and every
// moved expression's column refs are verified to resolve uniquely at their
// destination (nodeColumns/refsResolve) so moving one can never raise — or
// suppress — an unknown- or ambiguous-column error either. Because the
// residual evaluates in original order with AND short-circuiting, pushing
// stops at the first fallible residual conjunct (conjCanError): a later
// conjunct moved below could drop rows before the fallible one runs and
// suppress its error. The ops counter
// may legitimately count fewer row operations under optimization; its
// semantics (one count per row touched) are unchanged.

import (
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlast"
)

// optimizePlan rewrites a logical plan, returning a new plan that shares
// unmodified subtrees with the input (plans are immutable, so sharing is
// safe). The input plan is never mutated.
func (e *Engine) optimizePlan(p *Plan) *Plan {
	o := &optimizer{e: e}
	return o.plan(p)
}

type optimizer struct {
	e *Engine
	// ctes holds the lower-cased CTE names in scope at the node being
	// rewritten. Scans resolve CTEs before base tables at execution time, so
	// a scan whose bare name is in this set has columns the optimizer cannot
	// know (nodeColumns reports them undeterminable, which blocks pushdown
	// into that subtree).
	ctes map[string]bool
}

func (o *optimizer) plan(p *Plan) *Plan {
	np := &Plan{}
	saved := o.ctes
	if len(p.CTEs) > 0 {
		// Each CTE's plan sees the bindings before it; the root sees them
		// all. The scope is a copy so the caller's set is untouched.
		scope := make(map[string]bool, len(saved)+len(p.CTEs))
		for k := range saved {
			scope[k] = true
		}
		o.ctes = scope
		np.CTEs = make([]CTEPlan, len(p.CTEs))
		for i, c := range p.CTEs {
			np.CTEs[i] = CTEPlan{Name: c.Name, Columns: c.Columns, Plan: o.plan(c.Plan)}
			scope[strings.ToLower(c.Name)] = true
		}
	}
	np.Root = o.node(p.Root)
	o.ctes = saved
	return np
}

func (o *optimizer) node(n PlanNode) PlanNode {
	switch t := n.(type) {
	case *FilterNode:
		return o.filter(t)
	case *ImplicitJoinNode:
		return o.implicitJoin(t)
	case *JoinNode:
		return &JoinNode{Left: o.node(t.Left), Right: o.node(t.Right), Type: t.Type, On: t.On}
	case *CrossNode:
		inputs := make([]PlanNode, len(t.Inputs))
		for i, in := range t.Inputs {
			inputs[i] = o.node(in)
		}
		return &CrossNode{Inputs: inputs}
	case *SubqueryScanNode:
		return &SubqueryScanNode{Plan: o.plan(t.Plan), Qualifier: t.Qualifier}
	case *ProjectNode:
		return &ProjectNode{Input: o.node(t.Input), Items: t.Items, OrderBy: t.OrderBy}
	case *GroupNode:
		return &GroupNode{Input: o.node(t.Input), GroupBy: t.GroupBy, Items: t.Items,
			Having: t.Having, OrderBy: t.OrderBy}
	case *DistinctNode:
		return &DistinctNode{Input: o.node(t.Input)}
	case *SetOpNode:
		return &SetOpNode{Left: o.node(t.Left), Op: t.Op, All: t.All, Right: o.plan(t.Right)}
	case *SortNode:
		return &SortNode{Input: o.node(t.Input), Order: t.Order, KeysFromInput: t.KeysFromInput}
	case *LimitNode:
		return &LimitNode{Input: o.node(t.Input), Offset: t.Offset, Limit: t.Limit}
	default:
		// OneRow, Scan, unsupported refs: leaves, nothing to rewrite.
		return n
	}
}

// filter collects a stack of FilterNodes (the optimizer's own wrapping can
// stack them), pushes what it can below the common input, and re-wraps the
// rest. Conjunct order is preserved for the residual.
func (o *optimizer) filter(t *FilterNode) PlanNode {
	var conjs []sqlast.Expr
	var stack []*FilterNode
	for cur := t; ; {
		stack = append(stack, cur)
		f, ok := cur.Input.(*FilterNode)
		if !ok {
			break
		}
		cur = f
	}
	// Innermost filter's conjuncts first: that is the order the unoptimized
	// plan evaluates them in.
	for i := len(stack) - 1; i >= 0; i-- {
		conjs = append(conjs, splitConjuncts(stack[i].Cond)...)
	}
	base := stack[len(stack)-1].Input
	newBase, rest := o.push(base, conjs)
	out := o.node(newBase)
	if len(rest) == 0 {
		return out
	}
	return &FilterNode{Input: out, Cond: sqlast.And(rest...)}
}

// push attempts to sink conjuncts below base, returning the rewritten node
// (children wrapped in FilterNodes; not yet recursed into) and the
// conjuncts that could not be pushed, in their original order.
func (o *optimizer) push(base PlanNode, conjs []sqlast.Expr) (PlanNode, []sqlast.Expr) {
	switch t := base.(type) {
	case *JoinNode:
		return o.pushJoin(t, conjs)
	case *CrossNode:
		return o.pushCross(t, conjs)
	case *SubqueryScanNode:
		return o.pushSubquery(t, conjs)
	default:
		return base, conjs
	}
}

// pushJoin sinks single-side conjuncts below an explicit join. Outer joins
// only accept pushdown on their row-preserving side's opposite: a LEFT
// join's left input (dropping left rows there drops exactly the output rows
// the filter would have dropped), a RIGHT join's right input; FULL joins
// accept none.
func (o *optimizer) pushJoin(t *JoinNode, conjs []sqlast.Expr) (PlanNode, []sqlast.Expr) {
	lq, lok := nodeQualifiers(t.Left)
	rq, rok := nodeQualifiers(t.Right)
	if !lok || !rok || qualsOverlap(lq, rq) {
		return t, conjs
	}
	// Pushing to a side also requires its column set: every pushed ref must
	// resolve to exactly one column there, or the pushed filter could raise
	// an unknown/ambiguous-column error the unoptimized plan — which may
	// never evaluate the conjunct — would not. With disjoint qualifier sets
	// and fully qualified refs, unique-in-side implies unique-in-join, so a
	// verified conjunct resolves identically above and below.
	lcols, lcok := o.nodeColumns(t.Left)
	rcols, rcok := o.nodeColumns(t.Right)
	pushLeft := lcok && (t.Type == "INNER" || t.Type == "CROSS" || t.Type == "LEFT")
	pushRight := rcok && (t.Type == "INNER" || t.Type == "CROSS" || t.Type == "RIGHT")
	wideOK := lcok && rcok
	var wide []Col
	if wideOK {
		wide = append(append(wide, lcols...), rcols...)
	}
	var left, right, rest []sqlast.Expr
	barrier := false
	for _, c := range conjs {
		qs := conjQualifiers(c)
		switch {
		case !barrier && qs != nil && pushLeft && qualsSubset(qs, lq) && refsResolve(c, lcols):
			left = append(left, c)
		case !barrier && qs != nil && pushRight && qualsSubset(qs, rq) && refsResolve(c, rcols):
			right = append(right, c)
		default:
			rest = append(rest, c)
			if !barrier && conjCanError(c, wide, wideOK) {
				barrier = true
			}
		}
	}
	if len(left) == 0 && len(right) == 0 {
		return t, conjs
	}
	return &JoinNode{
		Left:  wrapFilter(t.Left, left),
		Right: wrapFilter(t.Right, right),
		Type:  t.Type,
		On:    t.On,
	}, rest
}

// pushCross sinks single-input conjuncts below a cross product. A conjunct
// moves only when its refs resolve uniquely against the target input's
// columns (see pushJoin for why qualifier subsetting alone is not enough).
func (o *optimizer) pushCross(t *CrossNode, conjs []sqlast.Expr) (PlanNode, []sqlast.Expr) {
	qsets := make([]map[string]bool, len(t.Inputs))
	csets := make([][]Col, len(t.Inputs))
	cok := make([]bool, len(t.Inputs))
	for i, in := range t.Inputs {
		qs, ok := nodeQualifiers(in)
		if !ok {
			return t, conjs
		}
		for j := 0; j < i; j++ {
			if qualsOverlap(qsets[j], qs) {
				return t, conjs
			}
		}
		qsets[i] = qs
		// An input with undeterminable columns (CTE scan, missing table)
		// only blocks pushes into itself: qualifier disjointness means a
		// conjunct qualified for another input cannot match its columns.
		csets[i], cok[i] = o.nodeColumns(in)
	}
	wide, wideOK := o.concatColumns(t.Inputs)
	perInput := make([][]sqlast.Expr, len(t.Inputs))
	var rest []sqlast.Expr
	pushed := false
	barrier := false
	for _, c := range conjs {
		qs := conjQualifiers(c)
		target := -1
		if qs != nil && !barrier {
			for i, set := range qsets {
				if qualsSubset(qs, set) {
					target = i
					break
				}
			}
		}
		if target < 0 || !cok[target] || !refsResolve(c, csets[target]) {
			rest = append(rest, c)
			if !barrier && conjCanError(c, wide, wideOK) {
				barrier = true
			}
			continue
		}
		perInput[target] = append(perInput[target], c)
		pushed = true
	}
	if !pushed {
		return t, conjs
	}
	inputs := make([]PlanNode, len(t.Inputs))
	for i, in := range t.Inputs {
		inputs[i] = wrapFilter(in, perInput[i])
	}
	return &CrossNode{Inputs: inputs}, rest
}

// pushSubquery maps conjuncts over a derived table through its projection
// items and sinks them inside the subquery, below the Project (and below an
// ORDER BY sort: filtering before a stable sort yields the same rows in the
// same order as sorting then filtering). Applies only when every projection
// item is a total expression — otherwise dropping rows early could skip an
// item evaluation that would have errored, changing error presence.
func (o *optimizer) pushSubquery(t *SubqueryScanNode, conjs []sqlast.Expr) (PlanNode, []sqlast.Expr) {
	if len(t.Plan.CTEs) > 0 {
		// CTE names are in scope inside the subquery; a pushed filter would
		// be evaluated in that scope too, which is fine, but keeping the
		// rewrite away from CTE plans keeps the reasoning simple.
		return t, conjs
	}
	var proj *ProjectNode
	var sort *SortNode
	switch root := t.Plan.Root.(type) {
	case *ProjectNode:
		proj = root
	case *SortNode:
		if !root.KeysFromInput {
			return t, conjs
		}
		p, ok := root.Input.(*ProjectNode)
		if !ok {
			return t, conjs
		}
		// The project evaluates the ORDER BY keys for every input row; a
		// pushed filter would skip those evaluations on dropped rows, so the
		// keys must be total too.
		for _, ob := range p.OrderBy {
			if !safeTotalExpr(ob.Expr, nil, false) {
				return t, conjs
			}
		}
		sort, proj = root, p
	default:
		return t, conjs
	}
	// Pushing the filter below the Project means the items and ORDER BY keys
	// run on fewer rows. Beyond being total, every item must also resolve
	// uniquely against the project's input columns: an unknown or ambiguous
	// ref errors per evaluated row, and a pushed filter that drops every row
	// (or short-circuits past the mapped clone) would suppress an error the
	// unoptimized plan raises.
	inputCols, icok := o.nodeColumns(proj.Input)
	if !icok {
		return t, conjs
	}
	// Build the output-name → item map the filter's refs resolve against.
	// Names follow projectionHeader: alias, else the column name, else
	// "expr". Duplicate names resolve ambiguously and are not pushed.
	byName := make(map[string]projItem, len(proj.Items))
	outCols := make([]Col, 0, len(proj.Items))
	for _, it := range proj.Items {
		if _, isStar := it.Expr.(*sqlast.Star); isStar {
			return t, conjs // star expansion depends on resolved input columns
		}
		if !safeTotalExpr(it.Expr, nil, false) || !refsResolve(it.Expr, inputCols) {
			return t, conjs
		}
		name := it.Alias
		if name == "" {
			if cr, ok := it.Expr.(*sqlast.ColumnRef); ok {
				name = cr.Name
			} else {
				name = "expr"
			}
		}
		outCols = append(outCols, Col{Qualifier: t.Qualifier, Name: name})
		key := strings.ToLower(name)
		if prev, ok := byName[key]; ok {
			byName[key] = projItem{expr: prev.expr, dup: true}
		} else {
			byName[key] = projItem{expr: it.Expr}
		}
	}
	// ORDER BY keys must resolve too. A key that is a bare unqualified ref
	// naming a projection output reads the projected value (the evaluator's
	// alias path, which cannot error); any other key resolves against the
	// input like an item.
	for _, ob := range proj.OrderBy {
		if cr, isRef := ob.Expr.(*sqlast.ColumnRef); isRef && cr.Table == "" {
			if _, found := byName[strings.ToLower(cr.Name)]; found {
				continue
			}
		}
		if !refsResolve(ob.Expr, inputCols) {
			return t, conjs
		}
	}
	var pushed, rest []sqlast.Expr
	barrier := false
	for _, c := range conjs {
		if !barrier {
			if mapped, ok := o.mapThroughItems(c, t.Qualifier, byName); ok {
				pushed = append(pushed, mapped)
				continue
			}
		}
		rest = append(rest, c)
		// The residual filter sees the derived table's output columns; a
		// fallible residual conjunct bars later pushes (see conjCanError).
		if !barrier && conjCanError(c, outCols, true) {
			barrier = true
		}
	}
	if len(pushed) == 0 {
		return t, conjs
	}
	inner := wrapFilter(proj.Input, pushed)
	var root PlanNode = &ProjectNode{Input: inner, Items: proj.Items, OrderBy: proj.OrderBy}
	if sort != nil {
		root = &SortNode{Input: root, Order: sort.Order, KeysFromInput: true}
	}
	return &SubqueryScanNode{Plan: &Plan{Root: root}, Qualifier: t.Qualifier}, rest
}

// projItem is one named projection output during subquery pushdown.
type projItem struct {
	expr sqlast.Expr
	dup  bool
}

// mapThroughItems rewrites a conjunct over a derived table's output columns
// into one over its projection inputs, replacing each column ref with a
// clone of the item expression it names. Fails (not pushed) when the
// conjunct is not a total expression, a ref does not name exactly one item,
// or a ref is qualified with something other than the table's alias.
func (o *optimizer) mapThroughItems(c sqlast.Expr, qualifier string, byName map[string]projItem) (sqlast.Expr, bool) {
	if !safeTotalExpr(c, nil, true) {
		return nil, false
	}
	ok := true
	mapped := rewriteExpr(c, func(cr *sqlast.ColumnRef) sqlast.Expr {
		if cr.Table != "" && !strings.EqualFold(cr.Table, qualifier) {
			ok = false
			return cr
		}
		it, found := byName[strings.ToLower(cr.Name)]
		if !found || it.dup {
			ok = false
			return cr
		}
		return sqlast.CloneExpr(it.expr)
	})
	if !ok {
		return nil, false
	}
	return mapped, true
}

// implicitJoin sinks single-input WHERE conjuncts below a comma join.
// Single-input conjuncts are never join conditions (connects() requires a
// column on each side of the joined frontier), so removing them from WHERE
// provably leaves the greedy join sequence unchanged — the filtered inputs
// join in the same order into the same column layout.
func (o *optimizer) implicitJoin(t *ImplicitJoinNode) PlanNode {
	conjs := splitConjuncts(t.Where)
	qsets := make([]map[string]bool, len(t.Inputs))
	csets := make([][]Col, len(t.Inputs))
	cok := make([]bool, len(t.Inputs))
	analyzable := true
	for i, in := range t.Inputs {
		qs, ok := nodeQualifiers(in)
		if !ok {
			analyzable = false
			break
		}
		for j := 0; j < i; j++ {
			if qualsOverlap(qsets[j], qs) {
				analyzable = false
			}
		}
		qsets[i] = qs
		// Undeterminable columns (CTE scan, missing table) only block pushes
		// into that input; qualifier disjointness keeps other inputs' refs
		// from matching it.
		csets[i], cok[i] = o.nodeColumns(in)
	}
	perInput := make([][]sqlast.Expr, len(t.Inputs))
	var rest []sqlast.Expr
	if analyzable {
		wide, wideOK := o.concatColumns(t.Inputs)
		barrier := false
		for _, c := range conjs {
			qs := conjQualifiers(c)
			target := -1
			if qs != nil && len(qs) == 1 && !barrier {
				for i, set := range qsets {
					if qualsSubset(qs, set) {
						target = i
						break
					}
				}
			}
			// The refs must also resolve uniquely against the target input's
			// columns: a qualifier-matched conjunct naming a column the input
			// does not have would error below the join, while above it the
			// residual might never evaluate it (see pushJoin).
			if target < 0 || !cok[target] || !refsResolve(c, csets[target]) {
				rest = append(rest, c)
				if !barrier && conjCanError(c, wide, wideOK) {
					barrier = true
				}
				continue
			}
			perInput[target] = append(perInput[target], c)
		}
	} else {
		rest = conjs
	}
	inputs := make([]PlanNode, len(t.Inputs))
	for i, in := range t.Inputs {
		inputs[i] = o.node(wrapFilter(in, perInput[i]))
	}
	if len(rest) == 0 {
		// Every conjunct moved below: none of them connected two inputs, so
		// the default execution was cross products in input order plus a
		// filter — exactly what CrossNode over the filtered inputs runs.
		return &CrossNode{Inputs: inputs}
	}
	return &ImplicitJoinNode{Inputs: inputs, Where: sqlast.And(rest...)}
}

// wrapFilter pushes conjuncts onto a node as a FilterNode (no-op for an
// empty list).
func wrapFilter(n PlanNode, conjs []sqlast.Expr) PlanNode {
	if len(conjs) == 0 {
		return n
	}
	return &FilterNode{Input: n, Cond: sqlast.And(conjs...)}
}

// nodeQualifiers returns the set of lower-cased column qualifiers a node's
// output columns carry, and whether the set is exhaustive (false for nodes
// whose output columns cannot be known at plan time).
func nodeQualifiers(n PlanNode) (map[string]bool, bool) {
	switch t := n.(type) {
	case *ScanNode:
		return map[string]bool{strings.ToLower(t.Qualifier): true}, true
	case *SubqueryScanNode:
		return map[string]bool{strings.ToLower(t.Qualifier): true}, true
	case *FilterNode:
		return nodeQualifiers(t.Input)
	case *JoinNode:
		lq, lok := nodeQualifiers(t.Left)
		rq, rok := nodeQualifiers(t.Right)
		if !lok || !rok {
			return nil, false
		}
		return qualsUnion(lq, rq), true
	case *CrossNode:
		return inputQualifiers(t.Inputs)
	case *ImplicitJoinNode:
		return inputQualifiers(t.Inputs)
	default:
		return nil, false
	}
}

func inputQualifiers(inputs []PlanNode) (map[string]bool, bool) {
	out := map[string]bool{}
	for _, in := range inputs {
		qs, ok := nodeQualifiers(in)
		if !ok {
			return nil, false
		}
		out = qualsUnion(out, qs)
	}
	return out, true
}

func qualsUnion(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func qualsOverlap(a, b map[string]bool) bool {
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}

func qualsSubset(sub, super map[string]bool) bool {
	for k := range sub {
		if !super[k] {
			return false
		}
	}
	return true
}

// nodeColumns returns the columns a node's operator will expose at execution
// time, or ok=false when they cannot be determined at plan time. Qualifier
// sets alone are not enough to vet a pushed conjunct: a ref with a valid
// qualifier but a name the subtree does not produce would raise "unknown
// column" where the unoptimized plan — which might never evaluate the
// conjunct at all (empty join output, AND short-circuit) — raises nothing.
// Scans whose bare name is bound to an in-scope CTE are undeterminable: the
// executor resolves CTEs before base tables, and CTE columns are only known
// at execution time. (A correlated subquery planned on its own cannot see
// its parent statement's CTEs here; a parent CTE shadowing a base-table
// name could make these columns wrong. That needs shadowing plus a
// same-name conjunct that the unoptimized plan never evaluates — accepted.)
func (o *optimizer) nodeColumns(n PlanNode) ([]Col, bool) {
	switch t := n.(type) {
	case *ScanNode:
		if o.ctes[strings.ToLower(catalog.BareName(t.Name))] {
			return nil, false
		}
		if o.e == nil || o.e.DB == nil {
			return nil, false
		}
		rel, ok := o.e.DB.Table(t.Name)
		if !ok || rel.Cols == nil {
			return nil, false
		}
		cols := make([]Col, len(rel.Cols))
		for i, c := range rel.Cols {
			cols[i] = Col{Qualifier: t.Qualifier, Name: c.Name, Type: c.Type}
		}
		return cols, true
	case *SubqueryScanNode:
		names, ok := subqueryOutputNames(t.Plan.Root)
		if !ok {
			return nil, false
		}
		cols := make([]Col, len(names))
		for i, name := range names {
			cols[i] = Col{Qualifier: t.Qualifier, Name: name}
		}
		return cols, true
	case *FilterNode:
		return o.nodeColumns(t.Input)
	case *JoinNode:
		return o.concatColumns([]PlanNode{t.Left, t.Right})
	case *CrossNode:
		return o.concatColumns(t.Inputs)
	case *ImplicitJoinNode:
		// The joined column multiset is the inputs' columns regardless of the
		// join sequence; resolution counts only the multiset.
		return o.concatColumns(t.Inputs)
	default:
		return nil, false
	}
}

func (o *optimizer) concatColumns(inputs []PlanNode) ([]Col, bool) {
	var out []Col
	for _, in := range inputs {
		cols, ok := o.nodeColumns(in)
		if !ok {
			return nil, false
		}
		out = append(out, cols...)
	}
	return out, true
}

// subqueryOutputNames mirrors projectionHeader's naming for a derived
// table's visible output: alias, else the ref's column name, else "expr".
// Star items and non-projection roots are undeterminable.
func subqueryOutputNames(root PlanNode) ([]string, bool) {
	switch t := root.(type) {
	case *SortNode:
		return subqueryOutputNames(t.Input)
	case *LimitNode:
		return subqueryOutputNames(t.Input)
	case *DistinctNode:
		return subqueryOutputNames(t.Input)
	case *ProjectNode:
		names := make([]string, 0, len(t.Items))
		for _, it := range t.Items {
			if _, isStar := it.Expr.(*sqlast.Star); isStar {
				return nil, false
			}
			name := it.Alias
			if name == "" {
				if cr, ok := it.Expr.(*sqlast.ColumnRef); ok {
					name = cr.Name
				} else {
					name = "expr"
				}
			}
			names = append(names, name)
		}
		return names, true
	default:
		return nil, false
	}
}

// conjCanError reports whether a residual conjunct could raise an execution
// error when evaluated: it is not total, or one of its refs does not resolve
// uniquely against the columns the residual filter sees (wideOK false means
// those columns are unknown and the conjunct must be assumed fallible).
// Push sites use it as an ordering barrier: the unoptimized plan evaluates
// conjuncts in order with AND short-circuiting, so once a fallible conjunct
// stays behind, pushing any LATER conjunct below could drop rows before the
// fallible one runs and suppress an error the unoptimized plan raises.
func conjCanError(c sqlast.Expr, wide []Col, wideOK bool) bool {
	if !safeTotalExpr(c, nil, false) {
		return true
	}
	return !wideOK || !refsResolve(c, wide)
}

// refsResolve reports whether every column reference in a vetted expression
// resolves to exactly one of cols under the evaluator's rules: names and
// qualifiers compare case-insensitively, an unqualified ref matches any
// qualifier, and anything but exactly one match errors at evaluation time
// ("unknown column" / "ambiguous column"). Callers must have passed the
// expression through safeTotalExpr first — the walk covers exactly that
// grammar. Hidden \x00-prefixed columns are unreferencable from SQL and are
// skipped.
func refsResolve(e sqlast.Expr, cols []Col) bool {
	ok := true
	rewriteExpr(e, func(cr *sqlast.ColumnRef) sqlast.Expr {
		n := 0
		for _, c := range cols {
			if strings.HasPrefix(c.Name, "\x00") || !strings.EqualFold(c.Name, cr.Name) {
				continue
			}
			if cr.Table == "" || strings.EqualFold(c.Qualifier, cr.Table) {
				n++
			}
		}
		if n != 1 {
			ok = false
		}
		return cr
	})
	return ok
}

// conjQualifiers returns the set of qualifiers a conjunct references when
// the conjunct is safe to push — a total expression over fully qualified
// column refs — and nil otherwise.
func conjQualifiers(c sqlast.Expr) map[string]bool {
	quals := map[string]bool{}
	if !safeTotalExpr(c, quals, true) {
		return nil
	}
	if len(quals) == 0 {
		// Constant conjuncts stay put: pushing them is pointless and keeping
		// them in the residual preserves evaluation counts.
		return nil
	}
	return quals
}

// safeTotalExpr reports whether an expression is total — it cannot raise an
// execution error however it is evaluated — so moving it to a position
// where it sees more or fewer rows can never change error presence.
// Comparisons, LIKE, and || are total by construction (Compare is a total
// order, String never fails); arithmetic, function calls, casts, variables,
// CASE, and subqueries are excluded. When quals is non-nil, the lower-cased
// qualifier of every column ref is collected into it; requireQualified
// additionally rejects unqualified refs (pushdown across joins needs every
// ref attributable to one side).
func safeTotalExpr(e sqlast.Expr, quals map[string]bool, requireQualified bool) bool {
	switch t := e.(type) {
	case *sqlast.ColumnRef:
		if requireQualified && t.Table == "" && quals != nil {
			return false
		}
		if quals != nil && t.Table != "" {
			quals[strings.ToLower(t.Table)] = true
		}
		return true
	case *sqlast.Literal:
		return t.Kind != sqlast.LitNumber || numericLiteralOK(t.Text)
	case *sqlast.Binary:
		switch t.Op {
		case "=", "<>", "<", ">", "<=", ">=", "LIKE", "||", "AND", "OR":
			return safeTotalExpr(t.L, quals, requireQualified) &&
				safeTotalExpr(t.R, quals, requireQualified)
		}
		return false
	case *sqlast.Unary:
		return t.Op == "NOT" && safeTotalExpr(t.X, quals, requireQualified)
	case *sqlast.Between:
		return safeTotalExpr(t.X, quals, requireQualified) &&
			safeTotalExpr(t.Lo, quals, requireQualified) &&
			safeTotalExpr(t.Hi, quals, requireQualified)
	case *sqlast.IsNull:
		return safeTotalExpr(t.X, quals, requireQualified)
	case *sqlast.In:
		if t.Sub != nil {
			return false
		}
		if !safeTotalExpr(t.X, quals, requireQualified) {
			return false
		}
		for _, el := range t.List {
			if !safeTotalExpr(el, quals, requireQualified) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// numericLiteralOK mirrors the literal evaluator's parse: a number literal
// it cannot parse errors at evaluation time, making the literal non-total.
func numericLiteralOK(text string) bool {
	_, err := strconv.ParseFloat(text, 64)
	return err == nil
}

// rewriteExpr rebuilds an expression with every column ref replaced by
// repl's result. Only the node types safeTotalExpr admits are handled;
// callers must have vetted the expression first.
func rewriteExpr(e sqlast.Expr, repl func(*sqlast.ColumnRef) sqlast.Expr) sqlast.Expr {
	switch t := e.(type) {
	case *sqlast.ColumnRef:
		return repl(t)
	case *sqlast.Literal:
		return t
	case *sqlast.Binary:
		return &sqlast.Binary{Op: t.Op, L: rewriteExpr(t.L, repl), R: rewriteExpr(t.R, repl)}
	case *sqlast.Unary:
		return &sqlast.Unary{Op: t.Op, X: rewriteExpr(t.X, repl)}
	case *sqlast.Between:
		return &sqlast.Between{X: rewriteExpr(t.X, repl), Not: t.Not,
			Lo: rewriteExpr(t.Lo, repl), Hi: rewriteExpr(t.Hi, repl)}
	case *sqlast.IsNull:
		return &sqlast.IsNull{X: rewriteExpr(t.X, repl), Not: t.Not}
	case *sqlast.In:
		list := make([]sqlast.Expr, len(t.List))
		for i, el := range t.List {
			list[i] = rewriteExpr(el, repl)
		}
		return &sqlast.In{X: rewriteExpr(t.X, repl), Not: t.Not, List: list}
	default:
		return e
	}
}
