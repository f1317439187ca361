package engine

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlast"
)

// This file is the engine's logical-plan layer. BuildPlan lowers one SELECT
// statement (one query block) into a tree of relational plan nodes:
//
//	scan → join → filter → group/aggregate → distinct → set-op → sort → limit
//
// The plan is purely structural — it holds AST expressions but no data — so
// it is shared by the two downstream layers: the executor (exec.go, with the
// per-node work in operator.go and the op_*.go files) runs each node to a
// materialized Relation, and the cost model (cost.go) walks the same nodes
// to estimate work without touching any rows. Plans are immutable once built
// and safe to share across goroutines.

// PlanNode is one node of a logical query plan.
type PlanNode interface {
	// Describe returns the node's one-line label for plan printing.
	Describe() string
}

// Plan is the logical plan of one SELECT statement: its WITH bindings, in
// order, plus the root of the node tree.
type Plan struct {
	CTEs []CTEPlan
	Root PlanNode
}

// CTEPlan is one planned WITH binding.
type CTEPlan struct {
	Name    string
	Columns []string // optional explicit column list
	Plan    *Plan
}

// OneRowNode produces a single zero-width row (SELECT without FROM).
type OneRowNode struct{}

// ScanNode reads a named base table or CTE.
type ScanNode struct {
	Name      string // table name as written (possibly qualified)
	Qualifier string // alias, or the bare table name
}

// SubqueryScanNode executes a derived table.
type SubqueryScanNode struct {
	Plan      *Plan
	Qualifier string
}

// JoinNode is an explicit join of two inputs.
type JoinNode struct {
	Left, Right PlanNode
	Type        string // INNER, LEFT, RIGHT, FULL, CROSS
	On          sqlast.Expr
}

// ImplicitJoinNode joins comma-separated FROM inputs using the equality
// conjuncts of Where, which may be nil; the greedy left-deep join ordering
// is picked at execution time (it depends on resolved column sets), inputs
// that no conjunct connects are cross-producted in, and conjuncts not
// consumed as join conditions become a residual filter over the result.
type ImplicitJoinNode struct {
	Inputs []PlanNode
	Where  sqlast.Expr
}

// FilterNode keeps the input rows whose condition is truthy.
type FilterNode struct {
	Input PlanNode
	Cond  sqlast.Expr
}

// ProjectNode evaluates the SELECT items for each input row. When OrderBy is
// non-empty it also evaluates the ORDER BY expressions in the same row
// context (so keys may reference non-projected columns and projection
// aliases) and emits them as trailing hidden key columns for a SortNode
// above to consume.
type ProjectNode struct {
	Input   PlanNode
	Items   []sqlast.SelectItem
	OrderBy []sqlast.OrderItem
}

// GroupNode evaluates grouped aggregation: rows are hashed into groups by
// the GroupBy keys (one global group when GroupBy is empty), HAVING filters
// groups, and the SELECT items fold aggregates over each group. Like
// ProjectNode it emits ORDER BY keys as trailing hidden columns.
type GroupNode struct {
	Input   PlanNode
	GroupBy []sqlast.Expr
	Items   []sqlast.SelectItem
	Having  sqlast.Expr
	OrderBy []sqlast.OrderItem
}

// DistinctNode removes duplicate rows (comparing visible columns only).
type DistinctNode struct {
	Input PlanNode
}

// SetOpNode combines the input with a second query block under
// UNION/INTERSECT/EXCEPT. Hidden key columns of the input are dropped before
// combining; Right is a full plan (its CTE scope is the parent query's, not
// the left block's).
type SetOpNode struct {
	Left  PlanNode
	Op    string
	All   bool
	Right *Plan
}

// SortNode orders rows. With KeysFromInput the sort keys are the input's
// trailing hidden columns (emitted by Project/Group), which are pruned from
// the output; otherwise — after a set operation — the ORDER BY expressions
// are resolved against the output columns themselves.
type SortNode struct {
	Input         PlanNode
	Order         []sqlast.OrderItem
	KeysFromInput bool
}

// LimitNode applies OFFSET/LIMIT/TOP. Limit -1 means no limit.
type LimitNode struct {
	Input  PlanNode
	Offset int
	Limit  int
}

// BuildPlan lowers a SELECT statement into a logical plan. The lowering is
// syntax-directed and total: every statement the parser accepts plans, and
// semantic errors (unknown tables, width mismatches) surface at execution.
// A FROM list of more than one item lowers to one ImplicitJoinNode, WHERE
// or not; otherwise the WHERE is a FilterNode over the one input.
func BuildPlan(sel *sqlast.SelectStmt) *Plan {
	p := &Plan{}
	for _, cte := range sel.With {
		p.CTEs = append(p.CTEs, CTEPlan{
			Name:    cte.Name,
			Columns: cte.Columns,
			Plan:    BuildPlan(cte.Select),
		})
	}

	var root PlanNode
	if len(sel.From) > 1 {
		root = &ImplicitJoinNode{Inputs: planRefs(sel.From), Where: sel.Where}
	} else {
		root = &OneRowNode{}
		if len(sel.From) == 1 {
			root = planRef(sel.From[0])
		}
		if sel.Where != nil {
			root = &FilterNode{Input: root, Cond: sel.Where}
		}
	}

	if grouped(sel) {
		root = &GroupNode{Input: root, GroupBy: sel.GroupBy, Items: sel.Items,
			Having: sel.Having, OrderBy: sel.OrderBy}
	} else {
		root = &ProjectNode{Input: root, Items: sel.Items, OrderBy: sel.OrderBy}
	}
	if sel.Distinct {
		root = &DistinctNode{Input: root}
	}
	if sel.SetOp != nil {
		root = &SetOpNode{Left: root, Op: sel.SetOp.Op, All: sel.SetOp.All,
			Right: BuildPlan(sel.SetOp.Right)}
	}
	if len(sel.OrderBy) > 0 {
		root = &SortNode{Input: root, Order: sel.OrderBy, KeysFromInput: sel.SetOp == nil}
	}
	offset, limit := 0, -1
	if sel.Offset != nil {
		offset = *sel.Offset
	}
	if sel.Limit != nil {
		limit = *sel.Limit
	}
	if sel.Top != nil && (limit < 0 || *sel.Top < limit) {
		limit = *sel.Top
	}
	if offset > 0 || limit >= 0 {
		root = &LimitNode{Input: root, Offset: offset, Limit: limit}
	}
	p.Root = root
	return p
}

// grouped reports whether a query block lowers to grouped aggregation: it
// has GROUP BY or HAVING, or calls an aggregate at its own level in its
// items or ORDER BY.
func grouped(sel *sqlast.SelectStmt) bool {
	return len(sel.GroupBy) > 0 || sel.Having != nil || sqlast.SelectHasAggregate(sel)
}

func planRefs(refs []sqlast.TableRef) []PlanNode {
	out := make([]PlanNode, len(refs))
	for i, ref := range refs {
		out[i] = planRef(ref)
	}
	return out
}

func planRef(ref sqlast.TableRef) PlanNode {
	switch t := ref.(type) {
	case *sqlast.TableName:
		qualifier := t.Alias
		if qualifier == "" {
			qualifier = catalog.BareName(t.Name)
		}
		return &ScanNode{Name: t.Name, Qualifier: qualifier}
	case *sqlast.SubqueryTable:
		return &SubqueryScanNode{Plan: BuildPlan(t.Select), Qualifier: t.Alias}
	case *sqlast.Join:
		return &JoinNode{
			Left:  planRef(t.Left),
			Right: planRef(t.Right),
			Type:  t.Type,
			On:    t.On,
		}
	default:
		return &unsupportedRefNode{ref: ref}
	}
}

// unsupportedRefNode defers "unsupported table reference" errors to
// execution, keeping BuildPlan total.
type unsupportedRefNode struct{ ref sqlast.TableRef }

func (n *unsupportedRefNode) Describe() string { return fmt.Sprintf("Unsupported(%T)", n.ref) }

// ---------------------------------------------------------------------------
// Plan printing (EXPLAIN-style)

func (*OneRowNode) Describe() string { return "OneRow" }
func (n *ScanNode) Describe() string {
	if n.Qualifier != catalog.BareName(n.Name) {
		return fmt.Sprintf("Scan %s AS %s", n.Name, n.Qualifier)
	}
	return "Scan " + n.Name
}
func (n *SubqueryScanNode) Describe() string { return "SubqueryScan AS " + n.Qualifier }
func (n *JoinNode) Describe() string {
	if n.On == nil || n.Type == "CROSS" {
		return "CrossJoin"
	}
	return fmt.Sprintf("%s Join ON %s", n.Type, sqlast.PrintExpr(n.On))
}
func (n *ImplicitJoinNode) Describe() string {
	s := fmt.Sprintf("ImplicitJoin (%d inputs)", len(n.Inputs))
	if n.Where != nil {
		s += " WHERE " + sqlast.PrintExpr(n.Where)
	}
	return s
}
func (n *FilterNode) Describe() string { return "Filter " + sqlast.PrintExpr(n.Cond) }
func (n *ProjectNode) Describe() string {
	return fmt.Sprintf("Project (%d items, %d order keys)", len(n.Items), len(n.OrderBy))
}
func (n *GroupNode) Describe() string {
	return fmt.Sprintf("GroupAggregate (%d keys, %d items)", len(n.GroupBy), len(n.Items))
}
func (n *DistinctNode) Describe() string { return "Distinct" }
func (n *SetOpNode) Describe() string {
	op := n.Op
	if n.All {
		op += " ALL"
	}
	return op
}
func (n *SortNode) Describe() string {
	src := "output columns"
	if n.KeysFromInput {
		src = "precomputed keys"
	}
	return fmt.Sprintf("Sort (%d keys from %s)", len(n.Order), src)
}
func (n *LimitNode) Describe() string {
	return fmt.Sprintf("Limit offset=%d limit=%d", n.Offset, n.Limit)
}

// String renders the plan as an indented tree, one node per line.
func (p *Plan) String() string {
	var b strings.Builder
	p.format(&b, 0)
	return b.String()
}

func (p *Plan) format(b *strings.Builder, depth int) {
	for _, cte := range p.CTEs {
		indent(b, depth)
		fmt.Fprintf(b, "With %s:\n", cte.Name)
		cte.Plan.format(b, depth+1)
	}
	formatNode(b, p.Root, depth)
}

func formatNode(b *strings.Builder, n PlanNode, depth int) {
	indent(b, depth)
	b.WriteString(n.Describe())
	b.WriteByte('\n')
	for _, child := range planChildren(n) {
		formatNode(b, child, depth+1)
	}
	switch t := n.(type) {
	case *SubqueryScanNode:
		t.Plan.format(b, depth+1)
	case *SetOpNode:
		t.Right.format(b, depth+1)
	}
}

// planChildren returns a node's same-block inputs (sub-plans of
// SubqueryScanNode/SetOpNode are printed separately).
func planChildren(n PlanNode) []PlanNode {
	switch t := n.(type) {
	case *JoinNode:
		return []PlanNode{t.Left, t.Right}
	case *ImplicitJoinNode:
		return t.Inputs
	case *FilterNode:
		return []PlanNode{t.Input}
	case *ProjectNode:
		return []PlanNode{t.Input}
	case *GroupNode:
		return []PlanNode{t.Input}
	case *DistinctNode:
		return []PlanNode{t.Input}
	case *SetOpNode:
		return []PlanNode{t.Left}
	case *SortNode:
		return []PlanNode{t.Input}
	case *LimitNode:
		return []PlanNode{t.Input}
	default:
		return nil
	}
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}
