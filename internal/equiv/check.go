package equiv

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/runner"
	"repro/internal/sqlast"
)

// RuleEquivalent reports whether two SELECTs are equivalent under the
// rule-based normalizer: both are normalized (conjunct sorting, BETWEEN and
// IN-list expansion, double-negation elimination, DISTINCT/GROUP BY
// canonicalization, trivial CTE inlining) and compared by printed form.
// It is sound but incomplete: a false result only means "not provably
// equivalent by rules".
func RuleEquivalent(a, b *sqlast.SelectStmt) bool {
	return Normalize(a) == Normalize(b)
}

// Normalize renders a SELECT into its canonical comparison form.
func Normalize(sel *sqlast.SelectStmt) string {
	n := sqlast.CloneSelect(sel)
	n = inlineTrivialCTE(n)
	normalizeSelect(n)
	return sqlast.Print(n)
}

func normalizeSelect(sel *sqlast.SelectStmt) {
	// DISTINCT over plain columns == GROUP BY those columns: canonicalize to
	// the GROUP BY form.
	if sel.Distinct && len(sel.GroupBy) == 0 && sel.Having == nil {
		allCols := true
		for _, item := range sel.Items {
			if _, ok := item.Expr.(*sqlast.ColumnRef); !ok {
				allCols = false
				break
			}
		}
		if allCols && len(sel.Items) > 0 {
			sel.Distinct = false
			for _, item := range sel.Items {
				sel.GroupBy = append(sel.GroupBy, sqlast.CloneExpr(item.Expr))
			}
		}
	}
	sel.Where = normalizeExpr(sel.Where)
	sel.Having = normalizeExpr(sel.Having)
	// Sort GROUP BY keys (grouping is order-insensitive).
	sortByPrint(sel.GroupBy)
	for i := range sel.With {
		normalizeSelect(sel.With[i].Select)
	}
	for _, ref := range sel.From {
		normalizeRef(ref)
	}
	for _, item := range sel.Items {
		normalizeItemExpr(item.Expr)
	}
	if sel.SetOp != nil {
		normalizeSelect(sel.SetOp.Right)
	}
}

func normalizeRef(ref sqlast.TableRef) {
	switch t := ref.(type) {
	case *sqlast.Join:
		t.On = normalizeExpr(t.On)
		normalizeRef(t.Left)
		normalizeRef(t.Right)
		// Inner joins commute: order operands canonically.
		if t.Type == "INNER" && sqlast.PrintTableRef(t.Left) > sqlast.PrintTableRef(t.Right) {
			t.Left, t.Right = t.Right, t.Left
		}
	case *sqlast.SubqueryTable:
		normalizeSelect(t.Select)
	}
}

func normalizeItemExpr(e sqlast.Expr) {
	if sub, ok := e.(*sqlast.Subquery); ok {
		normalizeSelect(sub.Select)
	}
}

// normalizeExpr canonicalizes a boolean expression: BETWEEN and IN-lists
// expand, NOT pushes through comparisons, equality operands order
// canonically, and AND/OR conjunct lists sort by printed form.
func normalizeExpr(e sqlast.Expr) sqlast.Expr {
	if e == nil {
		return nil
	}
	switch t := e.(type) {
	case *sqlast.Between:
		if !t.Not {
			return normalizeExpr(sqlast.And(
				&sqlast.Binary{Op: ">=", L: t.X, R: t.Lo},
				&sqlast.Binary{Op: "<=", L: sqlast.CloneExpr(t.X), R: t.Hi},
			))
		}
		return t
	case *sqlast.In:
		if t.Sub == nil && !t.Not && len(t.List) > 0 {
			var ors []sqlast.Expr
			for _, v := range t.List {
				ors = append(ors, sqlast.Eq(sqlast.CloneExpr(t.X), v))
			}
			return normalizeExpr(sqlast.Or(ors...))
		}
		if t.Sub != nil {
			normalizeSelect(t.Sub)
		}
		return t
	case *sqlast.Exists:
		normalizeSelect(t.Sub)
		return t
	case *sqlast.Unary:
		if t.Op == "NOT" {
			inner := normalizeExpr(t.X)
			if bin, ok := inner.(*sqlast.Binary); ok {
				if neg, found := negations[bin.Op]; found {
					return normalizeExpr(&sqlast.Binary{Op: neg, L: bin.L, R: bin.R})
				}
			}
			if u, ok := inner.(*sqlast.Unary); ok && u.Op == "NOT" {
				return u.X // double negation
			}
			return &sqlast.Unary{Op: "NOT", X: inner}
		}
		return t
	case *sqlast.Binary:
		switch t.Op {
		case "AND", "OR":
			parts := flatten(nil, t, t.Op)
			// Normalization can introduce nested conjunctions (BETWEEN
			// expansion); re-flatten to a fixpoint before sorting.
			var flat []sqlast.Expr
			for _, p := range parts {
				flat = flatten(flat, normalizeExpr(p), t.Op)
			}
			sortByPrint(flat)
			if t.Op == "AND" {
				return sqlast.And(flat...)
			}
			return sqlast.Or(flat...)
		case "=", "<>":
			l, r := t.L, t.R
			if sqlast.PrintExpr(l) > sqlast.PrintExpr(r) {
				l, r = r, l
			}
			return &sqlast.Binary{Op: t.Op, L: l, R: r}
		case "<", "<=":
			// Canonicalize direction: a < b stays; but b > a becomes a < b.
			return t
		case ">", ">=":
			return &sqlast.Binary{Op: flips[t.Op], L: t.R, R: t.L}
		default:
			return t
		}
	case *sqlast.Subquery:
		normalizeSelect(t.Select)
		return t
	default:
		return e
	}
}

var negations = map[string]string{
	">": "<=", "<": ">=", ">=": "<", "<=": ">", "=": "<>", "<>": "=",
}

// flips turns a greater-than comparison into the less-than one with its
// operands swapped.
var flips = map[string]string{">": "<", ">=": "<="}

// flatten appends to dst the operands of e's maximal chain of op.
func flatten(dst []sqlast.Expr, e sqlast.Expr, op string) []sqlast.Expr {
	if bin, ok := e.(*sqlast.Binary); ok && bin.Op == op {
		return flatten(flatten(dst, bin.L, op), bin.R, op)
	}
	return append(dst, e)
}

// printedExpr is an expression with its printed form.
type printedExpr struct {
	key  string
	expr sqlast.Expr
}

// sortByPrint sorts exprs by their printed form, printing each expression
// once. The comparator is the same < over the same strings as a sort.Slice
// whose comparator prints both operands, so the sort sees the same outcome
// for every comparison and leaves the same order.
func sortByPrint(exprs []sqlast.Expr) {
	if len(exprs) < 2 {
		return
	}
	keyed := make([]printedExpr, len(exprs))
	for i, e := range exprs {
		keyed[i] = printedExpr{sqlast.PrintExpr(e), e}
	}
	sort.Slice(keyed, func(i, j int) bool { return keyed[i].key < keyed[j].key })
	for i, k := range keyed {
		exprs[i] = k.expr
	}
}

// inlineTrivialCTE unwraps WITH c AS ( q ) SELECT * FROM c into q.
func inlineTrivialCTE(sel *sqlast.SelectStmt) *sqlast.SelectStmt {
	if len(sel.With) != 1 || len(sel.Items) != 1 || len(sel.From) != 1 {
		return sel
	}
	star, isStar := sel.Items[0].Expr.(*sqlast.Star)
	if !isStar || star.Table != "" {
		return sel
	}
	tn, isName := sel.From[0].(*sqlast.TableName)
	if !isName || !strings.EqualFold(tn.Name, sel.With[0].Name) || tn.Alias != "" {
		return sel
	}
	if sel.Where != nil || len(sel.GroupBy) > 0 || sel.Having != nil ||
		len(sel.OrderBy) > 0 || sel.Distinct || sel.SetOp != nil ||
		sel.Limit != nil || sel.Offset != nil || sel.Top != nil {
		return sel
	}
	return sel.With[0].Select
}

// Checker validates candidate pairs empirically by executing both queries
// over seeded synthetic instances of a schema. Instances are generated once
// per (seed, rows) and reused across pairs — the engine never mutates base
// tables, so a cached instance is safe to share, including across
// goroutines. A Checker is safe for concurrent use.
type Checker struct {
	Schema *catalog.Schema
	// Seeds are the instance seeds to test against (more seeds, higher
	// confidence). Defaults to three instances.
	Seeds []int64
	// Rows per generated table (default 24; kept small so wide joins stay
	// fast).
	Rows int

	instances runner.Flight[instanceKey, *engine.DB]
	engineOps atomic.Int64
}

// Ops returns the total engine row operations executed by this checker's
// query runs — the work the CLI reports per dataset so engine speedups are
// visible end to end.
func (c *Checker) Ops() int64 { return c.engineOps.Load() }

type instanceKey struct {
	seed int64
	rows int
}

// NewChecker returns an engine-backed checker over the schema.
func NewChecker(schema *catalog.Schema) *Checker {
	return &Checker{Schema: schema, Seeds: []int64{11, 29, 47}, Rows: 24}
}

// instance returns the cached synthetic database for a seed, generating it
// on first use. Concurrent requests for the same seed coalesce.
func (c *Checker) instance(seed int64, rows int) *engine.DB {
	db, _ := c.instances.Do(instanceKey{seed, rows}, func() (*engine.DB, error) {
		return datagen.Instance(c.Schema, datagen.Config{Seed: seed, Rows: rows}), nil
	})
	return db
}

// Equivalent executes both queries on the seeded instances, in seed order,
// and reports whether the results always match (as multisets, or ordered
// when the queries declare ORDER BY). It stops at the first seed whose
// results differ or whose execution fails; an execution error on either
// side is returned.
func (c *Checker) Equivalent(a, b *sqlast.SelectStmt) (bool, error) {
	return c.EquivalentCtx(context.Background(), a, b)
}

// EquivalentCtx is Equivalent threading the caller's context into each
// engine execution, so a tracer riding the context produces per-seed
// engine.exec child spans (plan-cache hits, row operations, result sizes).
// The context does not cancel the check: the seeds run in order up to the
// first mismatch or error, so the verdict and the work done depend only on
// the queries and the seeds.
func (c *Checker) EquivalentCtx(ctx context.Context, a, b *sqlast.SelectStmt) (bool, error) {
	rows := c.Rows
	if rows <= 0 {
		rows = 24
	}
	check := func(seed int64) (bool, error) {
		e := engine.New(c.instance(seed, rows))
		defer func() { c.engineOps.Add(e.Ops()) }()
		ra, err := e.QueryCtx(ctx, a)
		if err != nil {
			return false, fmt.Errorf("left query failed: %w", err)
		}
		rb, err := e.QueryCtx(ctx, b)
		if err != nil {
			return false, fmt.Errorf("right query failed: %w", err)
		}
		ordered := len(a.OrderBy) > 0 && len(b.OrderBy) > 0
		return engine.EqualRelations(ra, rb, ordered), nil
	}
	for _, seed := range c.Seeds {
		equal, err := check(seed)
		if err != nil || !equal {
			return false, err
		}
	}
	return true, nil
}
