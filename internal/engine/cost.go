package engine

import (
	"hash/fnv"
	"math"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlast"
)

// Stats holds the table statistics the cost model estimates against. Row
// counts can reflect production-scale tables (hundreds of millions of rows
// for SDSS) without materializing them.
type Stats struct {
	RowCounts map[string]int64 // keyed by lowercase bare table name
}

// NewStats returns empty statistics.
func NewStats() Stats { return Stats{RowCounts: make(map[string]int64)} }

// Set records a table's row count.
func (s Stats) Set(table string, rows int64) {
	s.RowCounts[strings.ToLower(catalog.BareName(table))] = rows
}

// Rows returns a table's row count, defaulting to 1000 for unknown tables.
func (s Stats) Rows(table string) int64 {
	if n, ok := s.RowCounts[strings.ToLower(catalog.BareName(table))]; ok {
		return n
	}
	return 1000
}

// SDSSStats returns production-scale row counts for the SDSS schema,
// mirroring the published DR table sizes in spirit (PhotoObj is by far the
// largest relation).
func SDSSStats() Stats {
	s := NewStats()
	s.Set("PhotoObj", 80_000_000)
	s.Set("PhotoTag", 80_000_000)
	s.Set("SpecObj", 4_000_000)
	s.Set("SpecPhotoAll", 4_000_000)
	s.Set("PlateX", 3_000)
	s.Set("Field", 900_000)
	s.Set("Neighbors", 200_000_000)
	s.Set("galSpecLine", 1_800_000)
	return s
}

// CostModel estimates plan execution cost. SELECT statements are lowered to
// the same logical plan the executor runs (BuildPlan), and cost is computed
// bottom-up over the plan nodes — the model never re-walks the AST. The
// per-node formulas follow the classic textbook shape: scans cost their
// input cardinality, equi-joins hash in linear time, non-equi joins cost a
// capped product, predicates reduce cardinality by fixed selectivities, and
// correlated subqueries multiply by the outer cardinality.
type CostModel struct {
	Stats Stats
}

// NewCostModel returns a cost model over the given statistics.
func NewCostModel(stats Stats) *CostModel {
	return &CostModel{Stats: stats}
}

// The conversion from estimated row operations to simulated milliseconds.
const (
	rowsPerMS = 1_000_000
	// costNoise is the deterministic per-query perturbation, a fraction of
	// the estimate keyed by the query text, standing in for run-to-run
	// variance in the SDSS logs.
	costNoise = 0.2
)

// Selectivities assumed by the estimator.
const (
	selEquality = 0.001 // col = literal
	selRange    = 0.30  // col > literal etc.
	selLike     = 0.10
	selIn       = 0.02
	selDefault  = 0.25
	joinFanout  = 1.2 // avg matches per outer row on an equi-join
)

// planCost is the estimator's intermediate result.
type planCost struct {
	outRows float64 // estimated output cardinality
	work    float64 // estimated row operations
}

// EstimateCost returns estimated row operations for a statement.
func (m *CostModel) EstimateCost(stmt sqlast.Stmt) float64 {
	switch t := stmt.(type) {
	case *sqlast.SelectStmt:
		return m.selectCost(t).work
	case *sqlast.CreateTableStmt:
		if t.AsSelect != nil {
			return m.selectCost(t.AsSelect).work
		}
		return 100
	case *sqlast.CreateViewStmt:
		return 100 // metadata only
	case *sqlast.InsertStmt:
		if t.Select != nil {
			return m.selectCost(t.Select).work
		}
		return float64(100 * (len(t.Rows) + 1))
	case *sqlast.UpdateStmt:
		return float64(m.Stats.Rows(t.Table))
	case *sqlast.DeleteStmt:
		return float64(m.Stats.Rows(t.Table))
	default:
		return 50 // DECLARE/SET/EXEC/DROP/WAITFOR: negligible
	}
}

// ElapsedMS converts a statement's estimated cost to simulated elapsed
// milliseconds, applying the deterministic noise channel.
func (m *CostModel) ElapsedMS(stmt sqlast.Stmt, sql string) float64 {
	ms := m.EstimateCost(stmt)/rowsPerMS + 0.2 // fixed per-query overhead
	h := fnv.New64a()
	h.Write([]byte(sql))
	frac := float64(h.Sum64()%2048)/1024 - 1 // [-1, 1)
	ms *= 1 + costNoise*frac
	if ms < 0.1 {
		ms = 0.1
	}
	return ms
}

func (m *CostModel) selectCost(sel *sqlast.SelectStmt) planCost {
	return m.costPlan(BuildPlan(sel), costScope{})
}

// costScope carries the estimated cardinality of in-scope CTEs down the
// plan walk.
type costScope struct {
	cteRows map[string]float64
}

func (s costScope) child(extra map[string]float64) costScope {
	if len(extra) == 0 {
		return s
	}
	merged := make(map[string]float64, len(s.cteRows)+len(extra))
	for k, v := range s.cteRows {
		merged[k] = v
	}
	for k, v := range extra {
		merged[k] = v
	}
	return costScope{cteRows: merged}
}

// costPlan estimates a full plan: CTEs are charged once each, then the node
// tree is costed with their cardinalities in scope.
func (m *CostModel) costPlan(p *Plan, scope costScope) planCost {
	var work float64
	local := make(map[string]float64, len(p.CTEs))
	for _, cte := range p.CTEs {
		pc := m.costPlan(cte.Plan, scope.child(local))
		work += pc.work
		local[strings.ToLower(cte.Name)] = pc.outRows
	}
	pc := m.costNode(p.Root, scope.child(local))
	pc.work += work
	return pc
}

// costNode estimates one plan node bottom-up.
func (m *CostModel) costNode(n PlanNode, scope costScope) planCost {
	switch t := n.(type) {
	case *OneRowNode:
		return planCost{outRows: 1}
	case *ScanNode:
		if r, ok := scope.cteRows[strings.ToLower(catalog.BareName(t.Name))]; ok {
			return planCost{outRows: r, work: r}
		}
		rows := float64(m.Stats.Rows(t.Name))
		return planCost{outRows: rows, work: rows} // full scan
	case *SubqueryScanNode:
		return m.costPlan(t.Plan, scope)
	case *JoinNode:
		return m.costJoin(t, scope)
	case *ImplicitJoinNode:
		return m.costCommaJoin(t.Inputs, t.Where, scope)
	case *FilterNode:
		in := m.costNode(t.Input, scope)
		return m.costPredicate(t.Cond, in)
	case *ProjectNode:
		return m.costNode(t.Input, scope) // projection is free in this model
	case *GroupNode:
		in := m.costNode(t.Input, scope)
		in.work += in.outRows * math.Log2(math.Max(in.outRows, 2)) * 0.1 // hash/sort aggregation
		if len(t.GroupBy) > 0 {
			in.outRows = math.Max(1, in.outRows*0.1)
		} else {
			in.outRows = 1
		}
		return in
	case *DistinctNode:
		return m.costNode(t.Input, scope)
	case *SetOpNode:
		left := m.costNode(t.Left, scope)
		right := m.costPlan(t.Right, scope)
		return planCost{outRows: left.outRows + right.outRows, work: left.work + right.work}
	case *SortNode:
		in := m.costNode(t.Input, scope)
		in.work += in.outRows * math.Log2(math.Max(in.outRows, 2)) * 0.05
		return in
	case *LimitNode:
		in := m.costNode(t.Input, scope)
		if t.Limit >= 0 && float64(t.Limit) < in.outRows {
			in.outRows = float64(t.Limit)
		}
		return in
	default:
		return planCost{outRows: 1000, work: 1000}
	}
}

// costCommaJoin estimates a comma-joined FROM list: join predicates in the
// WHERE clause are assumed to keep each step linear in the larger side
// rather than a full cross product, and the WHERE clause, when present, then
// filters the joined result.
func (m *CostModel) costCommaJoin(inputs []PlanNode, where sqlast.Expr, scope costScope) planCost {
	var work float64
	rows := 1.0
	for i, in := range inputs {
		pc := m.costNode(in, scope)
		work += pc.work
		if i == 0 {
			rows = pc.outRows
		} else {
			rows = math.Max(rows, pc.outRows) * joinFanout
			work += rows
		}
	}
	out := planCost{outRows: rows, work: work}
	if where != nil {
		out = m.costPredicate(where, out)
	}
	return out
}

// costPredicate charges one evaluation pass plus any subquery work over the
// input, and reduces cardinality by the predicate's selectivity.
func (m *CostModel) costPredicate(cond sqlast.Expr, in planCost) planCost {
	sel, subWork := m.predicateCost(cond, in.outRows)
	in.work += in.outRows // predicate evaluation pass
	in.work += subWork
	in.outRows *= sel
	return in
}

func (m *CostModel) costJoin(j *JoinNode, scope costScope) planCost {
	left := m.costNode(j.Left, scope)
	right := m.costNode(j.Right, scope)
	work := left.work + right.work
	var rows float64
	if isEquiOn(j.On) {
		// Hash join: build + probe.
		work += left.outRows + right.outRows
		rows = math.Max(left.outRows, right.outRows) * joinFanout
	} else {
		// Nested loop, capped so a single pathological query does not
		// dominate the scale.
		product := left.outRows * right.outRows
		work += math.Min(product, 1e12)
		rows = math.Min(product*selDefault, 1e9)
	}
	if j.Type == "LEFT" || j.Type == "FULL" {
		rows = math.Max(rows, left.outRows)
	}
	if j.Type == "RIGHT" || j.Type == "FULL" {
		rows = math.Max(rows, right.outRows)
	}
	return planCost{outRows: rows, work: work}
}

func isEquiOn(on sqlast.Expr) bool {
	bin, ok := on.(*sqlast.Binary)
	if !ok {
		return false
	}
	if bin.Op == "AND" {
		return isEquiOn(bin.L) || isEquiOn(bin.R)
	}
	if bin.Op != "=" {
		return false
	}
	_, l := bin.L.(*sqlast.ColumnRef)
	_, r := bin.R.(*sqlast.ColumnRef)
	return l && r
}

// predicateCost returns the combined selectivity of a WHERE expression and
// any extra work from subqueries it contains (correlated subqueries cost
// their body once per outer row).
func (m *CostModel) predicateCost(e sqlast.Expr, outerRows float64) (selectivity, work float64) {
	switch t := e.(type) {
	case *sqlast.Binary:
		switch t.Op {
		case "AND":
			s1, w1 := m.predicateCost(t.L, outerRows)
			s2, w2 := m.predicateCost(t.R, outerRows)
			return s1 * s2, w1 + w2
		case "OR":
			s1, w1 := m.predicateCost(t.L, outerRows)
			s2, w2 := m.predicateCost(t.R, outerRows)
			s := s1 + s2 - s1*s2
			return s, w1 + w2
		case "=":
			return selEquality, m.sideSubqueryWork(t.L, t.R)
		case "<", ">", "<=", ">=", "<>":
			return selRange, m.sideSubqueryWork(t.L, t.R)
		case "LIKE":
			return selLike, 0
		default:
			return selDefault, 0
		}
	case *sqlast.Unary:
		if t.Op == "NOT" {
			s, w := m.predicateCost(t.X, outerRows)
			return 1 - s, w
		}
		return selDefault, 0
	case *sqlast.In:
		var w float64
		if t.Sub != nil {
			pc := m.selectCost(t.Sub)
			w = pc.work // uncorrelated IN evaluates once (semi-join)
		}
		return selIn * math.Max(1, float64(len(t.List))), w
	case *sqlast.Exists:
		pc := m.selectCost(t.Sub)
		// EXISTS subqueries in the workloads are typically correlated:
		// charge a per-outer-row probe against the subquery's input.
		return 0.5, pc.work + outerRows*math.Sqrt(math.Max(pc.work, 1))
	case *sqlast.Between:
		return selRange, 0
	case *sqlast.IsNull:
		return 0.05, 0
	default:
		return selDefault, 0
	}
}

// sideSubqueryWork charges scalar subqueries appearing on either side of a
// comparison; they evaluate once (uncorrelated scalar subqueries dominate in
// the workloads).
func (m *CostModel) sideSubqueryWork(l, r sqlast.Expr) float64 {
	var w float64
	for _, side := range []sqlast.Expr{l, r} {
		if sub, ok := side.(*sqlast.Subquery); ok {
			pc := m.selectCost(sub.Select)
			w += pc.work
		}
	}
	return w
}
