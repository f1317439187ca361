package engine

// The executor: Engine holds the database and its limits, lowers each
// SELECT into a cached logical plan (plan.go) and runs that plan as lowered,
// with one recursive executor: run takes a plan node and returns its
// materialized Relation, running the node's inputs first. The per-node work
// lives in operator.go (scan, filter, sort, limit) and op_*.go (joins,
// projection, grouping, distinct and set operations). Expression
// evaluation, grouped or not, lives in eval.go; aggregate folding in agg.go.

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
)

// Engine executes SELECT statements against a DB. An Engine is safe for
// concurrent use by multiple goroutines (it never mutates base tables); each
// query runs on the calling goroutine.
type Engine struct {
	DB *DB
	// MaxRows caps intermediate result sizes; exceeding it aborts the query.
	// Zero means the default of 1,000,000.
	MaxRows int

	ops atomic.Int64

	planMu sync.RWMutex
	plans  map[*sqlast.SelectStmt]*Plan
}

// New returns an Engine over the database.
func New(db *DB) *Engine { return &Engine{DB: db} }

// Ops returns the number of row operations performed since construction;
// a cheap proxy for work done. For a given database and sequence of
// queries the count is deterministic.
func (e *Engine) Ops() int64 { return e.ops.Load() }

func (e *Engine) maxRows() int {
	if e.MaxRows > 0 {
		return e.MaxRows
	}
	return 1_000_000
}

// QuerySQL parses and executes a SELECT statement.
func (e *Engine) QuerySQL(sql string) (*Relation, error) {
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	return e.Query(sel)
}

// Query executes a SELECT statement.
func (e *Engine) Query(sel *sqlast.SelectStmt) (*Relation, error) {
	return e.execSelect(sel, nil, nil)
}

// QueryCtx is Query wrapped in an "engine.exec" span when a tracer rides the
// context: the span records whether the logical plan came from the cache,
// the row operations the query performed (an ops-counter delta, approximate
// when other queries run concurrently on the same engine), and the result
// row count. Without a tracer it is exactly Query.
func (e *Engine) QueryCtx(ctx context.Context, sel *sqlast.SelectStmt) (*Relation, error) {
	_, span := obs.Start(ctx, "engine.exec")
	if span == nil {
		return e.Query(sel)
	}
	p, cached := e.planForHit(sel)
	span.SetBool("plan_cached", cached)
	span.SetString("plan", p.String())
	opsBefore := e.ops.Load()
	rel, err := e.execPlan(p, nil, nil)
	span.SetInt("row_ops", e.ops.Load()-opsBefore)
	if err == nil {
		span.SetInt("rows", int64(len(rel.Rows)))
	}
	span.EndErr(err)
	return rel, err
}

// maxCachedPlans bounds the per-Engine plan cache. Long-lived engines that
// parse fresh SQL per call (every statement is a new AST pointer) would
// otherwise grow the cache — and GC scan work — without limit; on overflow
// the whole map is dropped, which at worst costs a cheap re-plan.
const maxCachedPlans = 4096

// planFor returns the cached logical plan for a statement, building it on
// first use. Plans are immutable and shared across concurrent executions
// (correlated subqueries re-plan per statement pointer, not per row).
func (e *Engine) planFor(sel *sqlast.SelectStmt) *Plan {
	p, _ := e.planForHit(sel)
	return p
}

// planForHit is planFor additionally reporting whether the plan was served
// from the cache — the plan_cached attribute on engine.exec spans.
func (e *Engine) planForHit(sel *sqlast.SelectStmt) (*Plan, bool) {
	e.planMu.RLock()
	p := e.plans[sel]
	e.planMu.RUnlock()
	if p != nil {
		return p, true
	}
	p = BuildPlan(sel)
	e.planMu.Lock()
	if e.plans == nil || len(e.plans) >= maxCachedPlans {
		e.plans = make(map[*sqlast.SelectStmt]*Plan)
	}
	hit := false
	if cached, ok := e.plans[sel]; ok {
		p, hit = cached, true
	} else {
		e.plans[sel] = p
	}
	e.planMu.Unlock()
	return p, hit
}

// env is the row-evaluation context: the current relation and row, an
// optional outer context for correlated subqueries, and visible CTEs. In a
// grouping context (grouped set) it also carries the current group's rows:
// aggregates fold over them, and everything else evaluates on the group's
// first row, which is nil for an empty global group.
type env struct {
	rel   *Relation
	row   []Value
	outer *env
	ctes  map[string]*Relation

	group   [][]Value
	grouped bool
}

func (v *env) lookupCTE(name string) (*Relation, bool) {
	for cur := v; cur != nil; cur = cur.outer {
		if cur.ctes != nil {
			if rel, ok := cur.ctes[strings.ToLower(name)]; ok {
				return rel, true
			}
		}
	}
	return nil, false
}

// execSelect plans (or reuses the plan of) one query block and executes it.
func (e *Engine) execSelect(sel *sqlast.SelectStmt, outer *env, parentCTEs map[string]*Relation) (*Relation, error) {
	return e.execPlan(e.planFor(sel), outer, parentCTEs)
}

// execPlan executes a logical plan: CTEs are materialized first (each
// seeing the bindings before it), then the node tree runs.
func (e *Engine) execPlan(p *Plan, outer *env, parentCTEs map[string]*Relation) (*Relation, error) {
	ctes := make(map[string]*Relation, len(parentCTEs)+len(p.CTEs))
	for k, v := range parentCTEs {
		ctes[k] = v
	}
	for _, cte := range p.CTEs {
		rel, err := e.execPlan(cte.Plan, outer, ctes)
		if err != nil {
			return nil, err
		}
		if len(cte.Columns) > 0 {
			if len(cte.Columns) != len(rel.Cols) {
				return nil, execErrorf("CTE %s declares %d columns but its query yields %d",
					cte.Name, len(cte.Columns), len(rel.Cols))
			}
			renamed := &Relation{Rows: rel.Rows}
			for i, c := range rel.Cols {
				renamed.Cols = append(renamed.Cols, Col{Name: cte.Columns[i], Type: c.Type})
			}
			rel = renamed
		}
		ctes[strings.ToLower(cte.Name)] = rel
	}
	if hiddenCols(p.Root) != 0 {
		// Cannot happen: every Project/Group with ORDER BY keys sits under a
		// SortNode or SetOpNode that consumes them.
		return nil, execErrorf("internal: hidden columns escaped the plan root")
	}
	x := &executor{e: e, outer: outer, ctes: ctes, parentCTEs: parentCTEs}
	return x.run(p.Root)
}

// executor is the context of one plan run, shared by every node of the
// plan: the engine, the outer row context for correlated subqueries, and
// the CTE scopes.
type executor struct {
	e     *Engine
	outer *env
	// ctes are the bindings visible to this query block (parent scope plus
	// this block's WITH clause).
	ctes map[string]*Relation
	// parentCTEs is the enclosing scope only; the right side of a set
	// operation resolves against it, not against the left block's WITH
	// bindings.
	parentCTEs map[string]*Relation
}

// evalEnv returns a row-evaluation env over the given header (rows are
// plugged in via env.row).
func (x *executor) evalEnv(cols []Col) *env {
	return &env{rel: &Relation{Cols: cols}, outer: x.outer, ctes: x.ctes}
}

// run executes one plan node and returns its materialized result. A node
// runs its inputs to completion, left before right, and then does its own
// work, so the first input to fail decides the query's error.
func (x *executor) run(n PlanNode) (*Relation, error) {
	switch t := n.(type) {
	case *OneRowNode:
		return &Relation{Rows: [][]Value{{}}}, nil
	case *ScanNode:
		return x.scan(t)
	case *SubqueryScanNode:
		rel, err := x.e.execPlan(t.Plan, x.outer, x.ctes)
		if err != nil {
			return nil, err
		}
		return requalify(rel, t.Qualifier), nil
	case *JoinNode:
		return x.join(t)
	case *ImplicitJoinNode:
		return x.implicitJoin(t)
	case *FilterNode:
		in, err := x.run(t.Input)
		if err != nil {
			return nil, err
		}
		return x.filter(in, t.Cond)
	case *ProjectNode:
		in, err := x.run(t.Input)
		if err != nil {
			return nil, err
		}
		return x.project(t, in)
	case *GroupNode:
		in, err := x.run(t.Input)
		if err != nil {
			return nil, err
		}
		return x.group(t, in)
	case *DistinctNode:
		in, err := x.run(t.Input)
		if err != nil {
			return nil, err
		}
		return distinct(in, hiddenCols(t.Input)), nil
	case *SetOpNode:
		return x.setOp(t)
	case *SortNode:
		in, err := x.run(t.Input)
		if err != nil {
			return nil, err
		}
		return x.sort(t, in)
	case *LimitNode:
		in, err := x.run(t.Input)
		if err != nil {
			return nil, err
		}
		return limit(t, in), nil
	case *unsupportedRefNode:
		return nil, execErrorf("unsupported table reference %T", t.ref)
	default:
		return nil, execErrorf("unsupported plan node %T", n)
	}
}

// hiddenCols is the number of trailing hidden ORDER BY key columns in a
// node's output: Project and Group append one per ORDER BY item, Distinct
// passes its input's through, and every other node emits none (Sort and
// SetOp consume them).
func hiddenCols(n PlanNode) int {
	switch t := n.(type) {
	case *ProjectNode:
		return len(t.OrderBy)
	case *GroupNode:
		return len(t.OrderBy)
	case *DistinctNode:
		return hiddenCols(t.Input)
	}
	return 0
}

// requalify stamps every column of rel with the given qualifier.
func requalify(rel *Relation, qualifier string) *Relation {
	out := &Relation{Rows: rel.Rows}
	out.Cols = make([]Col, len(rel.Cols))
	for i, c := range rel.Cols {
		out.Cols[i] = Col{Qualifier: qualifier, Name: c.Name, Type: c.Type}
	}
	return out
}

// sortRelation stably orders rel's rows by the per-row key vectors.
func sortRelation(rel *Relation, keys [][]Value, order []sqlast.OrderItem) *Relation {
	idx := make([]int, len(rel.Rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		for j := range order {
			c := Compare(ka[j], kb[j])
			if c == 0 {
				continue
			}
			if order[j].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out := &Relation{Cols: rel.Cols, Rows: make([][]Value, len(rel.Rows))}
	for i, j := range idx {
		out.Rows[i] = rel.Rows[j]
	}
	return out
}
