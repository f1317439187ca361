package engine

// The plan optimizer: a pure plan→plan rewrite between BuildPlan and
// execution, applied by planFor to every plan (only the unoptimized
// test oracle skips it). Its one rewrite is predicate pushdown across joins:
// Filter conjuncts over an explicit Join that mention one side move below
// the join, and single-input conjuncts of an ImplicitJoinNode's WHERE (the
// one node every comma join lowers to) move below the comma join, which
// keeps its node even when no conjunct is left. Both go through partition.
// A filter over anything else, a derived table included, stays where
// BuildPlan put it. Pushed filters see fewer columns but the same values,
// so joins build and probe smaller inputs.
//
// Byte-identity contract: for every statement, the optimized plan yields
// the same columns, rows, and row order as the unoptimized plan. Error
// *presence* is also preserved; pushdown is restricted to total predicates
// (comparisons, LIKE, BETWEEN, IS NULL, IN-list, boolean combinators over
// column refs and literals — nothing that can fail at evaluation time) so a
// pushed filter can never raise a value error on rows the unoptimized plan
// would not have evaluated, and every moved expression's column refs are
// verified to resolve uniquely at their destination (nodeColumns/refsResolve)
// so moving one can never raise — or suppress — an unknown- or
// ambiguous-column error either. Because the residual evaluates in original
// order with AND short-circuiting, pushing stops at the first fallible
// residual conjunct (conjCanError): a later conjunct moved below could drop
// rows before the fallible one runs and suppress its error. The ops counter
// may legitimately count fewer row operations under optimization; its
// semantics (one count per row touched) are unchanged.

import (
	"maps"
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

// filter pushes what it can of a filter over an explicit join below the
// join and keeps the rest, in conjunct order, above it. BuildPlan never
// stacks filters, and a filter over any other node stays as it is.
func (o *optimizer) filter(t *FilterNode) PlanNode {
	in, rest := t.Input, sqlast.Flatten("AND", t.Cond)
	if j, ok := in.(*JoinNode); ok {
		in, rest = o.pushJoin(j, rest)
	}
	return wrapFilter(o.node(in), rest)
}

// pushJoin sinks single-side conjuncts below an explicit join. Outer joins
// only accept pushdown on their row-preserving side's opposite: a LEFT
// join's left input (dropping left rows there drops exactly the output rows
// the filter would have dropped), a RIGHT join's right input; FULL joins
// accept none.
func (o *optimizer) pushJoin(t *JoinNode, conjs []sqlast.Expr) (PlanNode, []sqlast.Expr) {
	open := []bool{t.Type != "RIGHT" && t.Type != "FULL", t.Type != "LEFT" && t.Type != "FULL"}
	per, rest := o.partition([]PlanNode{t.Left, t.Right}, open, conjs)
	return &JoinNode{
		Left:  wrapFilter(t.Left, per[0]),
		Right: wrapFilter(t.Right, per[1]),
		Type:  t.Type,
		On:    t.On,
	}, rest
}

// implicitJoin sinks single-input WHERE conjuncts below a comma join.
// Single-input conjuncts are never join conditions (connects() requires a
// column on each side of the joined frontier), so removing them from WHERE
// provably leaves the greedy join sequence unchanged — the filtered inputs
// join in the same order into the same column layout. When every conjunct
// moves below, the node stays with no WHERE: its inputs then join by cross
// products in input order.
func (o *optimizer) implicitJoin(t *ImplicitJoinNode) PlanNode {
	open := make([]bool, len(t.Inputs))
	for i := range open {
		open[i] = true
	}
	per, rest := o.partition(t.Inputs, open, sqlast.Flatten("AND", t.Where))
	inputs := make([]PlanNode, len(t.Inputs))
	for i, in := range t.Inputs {
		inputs[i] = o.node(wrapFilter(in, per[i]))
	}
	return &ImplicitJoinNode{Inputs: inputs, Where: sqlast.And(rest...)}
}

// partition assigns conjuncts to the join inputs they can move below and
// returns each input's conjuncts and the residual, all in their original
// order. Nothing moves unless every input's qualifier set is exhaustive and
// no two overlap. A conjunct moves to input i when it is total and fully
// qualified, its qualifiers all belong to input i, open[i] allows pushdown
// into that input, and its refs resolve to exactly one of input i's columns:
// a qualifier-matched ref naming a column the input lacks would error below
// the join, while above it the residual might never evaluate it. With
// disjoint qualifier sets, unique-in-input then implies unique-in-join, so
// a moved conjunct resolves identically above and below. Moving stops at
// the first residual conjunct that can fail (conjCanError).
func (o *optimizer) partition(inputs []PlanNode, open []bool, conjs []sqlast.Expr) ([][]sqlast.Expr, []sqlast.Expr) {
	per := make([][]sqlast.Expr, len(inputs))
	qsets := make([]map[string]bool, len(inputs))
	cols := make([][]Col, len(inputs))
	known := make([]bool, len(inputs))
	var wide []Col
	wideOK := true
	for i, in := range inputs {
		qs, ok := nodeQualifiers(in)
		if !ok {
			return per, conjs
		}
		for _, prev := range qsets[:i] {
			if qualsOverlap(prev, qs) {
				return per, conjs
			}
		}
		qsets[i] = qs
		// Undeterminable columns (CTE scan, derived table, missing table)
		// only block pushes into that input; qualifier disjointness keeps
		// other inputs' refs from matching it.
		cols[i], known[i] = o.nodeColumns(in)
		wide = append(wide, cols[i]...)
		wideOK = wideOK && known[i]
	}
	var rest []sqlast.Expr
	barrier := false
	for _, c := range conjs {
		if !barrier {
			if i := owner(c, qsets); i >= 0 && open[i] && known[i] && refsResolve(c, cols[i]) {
				per[i] = append(per[i], c)
				continue
			}
		}
		rest = append(rest, c)
		barrier = barrier || conjCanError(c, wide, wideOK)
	}
	return per, rest
}

// owner returns the index of the qualifier set holding every qualifier of a
// pushable conjunct (see conjQualifiers), or -1.
func owner(c sqlast.Expr, qsets []map[string]bool) int {
	qs := conjQualifiers(c)
	if qs == nil {
		return -1
	}
	for i, set := range qsets {
		if qualsSubset(qs, set) {
			return i
		}
	}
	return -1
}

// wrapFilter pushes conjuncts onto a node as a FilterNode (no-op for an
// empty list).
func wrapFilter(n PlanNode, conjs []sqlast.Expr) PlanNode {
	if len(conjs) == 0 {
		return n
	}
	return &FilterNode{Input: n, Cond: sqlast.And(conjs...)}
}

// nodeQualifiers returns the set of lower-cased column qualifiers a join
// input's output columns carry, and whether the set is exhaustive (false
// for inputs whose output columns cannot be known at plan time). Join
// inputs are FROM references as BuildPlan lowers them.
func nodeQualifiers(n PlanNode) (map[string]bool, bool) {
	switch t := n.(type) {
	case *ScanNode:
		return map[string]bool{strings.ToLower(t.Qualifier): true}, true
	case *SubqueryScanNode:
		return map[string]bool{strings.ToLower(t.Qualifier): true}, true
	case *JoinNode:
		lq, lok := nodeQualifiers(t.Left)
		rq, rok := nodeQualifiers(t.Right)
		if !lok || !rok {
			return nil, false
		}
		maps.Copy(lq, rq)
		return lq, true
	default:
		return nil, false
	}
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

// nodeColumns returns the columns a join input's node will expose at
// execution time, or ok=false when they cannot be determined at plan time.
// Qualifier sets alone are not enough to vet a pushed conjunct: a ref with
// a valid qualifier but a name the subtree does not produce would raise
// "unknown column" where the unoptimized plan — which might never evaluate
// the conjunct at all (empty join output, AND short-circuit) — raises
// nothing. Derived tables are undeterminable, and so are scans whose bare
// name is bound to an in-scope CTE: the executor resolves CTEs before base
// tables, and CTE columns are only known at execution time. (A correlated
// subquery planned on its own cannot see its parent statement's CTEs here;
// a parent CTE shadowing a base-table name could make these columns wrong.
// That needs shadowing plus a same-name conjunct that the unoptimized plan
// never evaluates — accepted.)
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
	case *JoinNode:
		l, lok := o.nodeColumns(t.Left)
		r, rok := o.nodeColumns(t.Right)
		return append(l, r...), lok && rok
	default:
		return nil, false
	}
}

// conjCanError reports whether a residual conjunct could raise an execution
// error when evaluated: it is not total, or one of its refs does not resolve
// uniquely against the columns the residual filter sees (wideOK false means
// those columns are unknown and the conjunct must be assumed fallible).
// partition uses it as an ordering barrier: the unoptimized plan evaluates
// conjuncts in order with AND short-circuiting, so once a fallible conjunct
// stays behind, pushing any LATER conjunct below could drop rows before the
// fallible one runs and suppress an error the unoptimized plan raises.
func conjCanError(c sqlast.Expr, wide []Col, wideOK bool) bool {
	if !safeTotalExpr(c, nil, false) {
		return true
	}
	return !wideOK || !refsResolve(c, wide)
}

// refsResolve reports whether every column reference in an expression
// resolves to exactly one of cols under Relation.find's rule: names and
// qualifiers compare case-insensitively and an unqualified ref matches any
// qualifier. Anything but exactly one match errors at evaluation time
// ("unknown column" / "ambiguous column").
func refsResolve(e sqlast.Expr, cols []Col) bool {
	ok := true
	sqlast.Walk(e, func(n sqlast.Node) bool {
		if cr, isRef := n.(*sqlast.ColumnRef); isRef {
			matches := 0
			for _, c := range cols {
				if strings.EqualFold(c.Name, cr.Name) && (cr.Table == "" || strings.EqualFold(c.Qualifier, cr.Table)) {
					matches++
				}
			}
			ok = ok && matches == 1
		}
		return ok
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
	// Walk visits the siblings of a node the visitor rejects, so ok only
	// ever turns false.
	ok := true
	sqlast.Walk(e, func(n sqlast.Node) bool {
		switch t := n.(type) {
		case *sqlast.ColumnRef:
			if requireQualified && t.Table == "" && quals != nil {
				ok = false
			}
			if quals != nil && t.Table != "" {
				quals[strings.ToLower(t.Table)] = true
			}
		case *sqlast.Literal:
			if t.Kind == sqlast.LitNumber && !numericLiteralOK(t.Text) {
				ok = false
			}
		case *sqlast.Binary:
			switch t.Op {
			case "=", "<>", "<", ">", "<=", ">=", "LIKE", "||", "AND", "OR":
			default:
				ok = false
			}
		case *sqlast.Unary:
			if t.Op != "NOT" {
				ok = false
			}
		case *sqlast.Between, *sqlast.IsNull, *sqlast.In:
		default: // an IN subquery's SELECT lands here too
			ok = false
		}
		return ok
	})
	return ok
}

// numericLiteralOK mirrors the literal evaluator's parse: a number literal
// it cannot parse errors at evaluation time, making the literal non-total.
func numericLiteralOK(text string) bool {
	_, err := strconv.ParseFloat(text, 64)
	return err == nil
}
