// Package workload defines the benchmark's query workloads and shared
// generator machinery. Each concrete generator (subpackages sdss, sqlshare,
// joborder, spider) emits a deterministic sampled workload whose marginal
// statistics are tuned to the paper's Table 2 and Figures 1-3.
package workload

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/analyze"
	"repro/internal/catalog"
	"repro/internal/sqlast"
	"repro/internal/sqllex"
)

// Query is one workload member.
type Query struct {
	ID          string // stable identifier, e.g. "sdss-0042"
	Dataset     string // "SDSS", "SQLShare", "Join-Order", "Spider"
	SQL         string
	Stmt        sqlast.Stmt
	Props       analyze.Properties
	ElapsedMS   float64 // simulated log runtime; > 0 only for SDSS
	Description string  // ground-truth NL description; Spider only
	SchemaName  string  // tenant schema for multi-schema workloads
}

// Workload is a named set of queries plus the schema its oracle resolves
// against.
type Workload struct {
	Name          string
	Queries       []Query
	Schema        *catalog.Schema
	OriginalCount int // the pre-sampling size reported in Table 2
}

// Finalize fills in parsed statements and properties for every query and
// assigns IDs. Generators call it once after emitting SQL text.
func (w *Workload) Finalize(prefix string) {
	for i := range w.Queries {
		q := &w.Queries[i]
		q.ID = fmt.Sprintf("%s-%04d", prefix, i)
		q.Dataset = w.Name
		q.Props = analyze.Compute(q.SQL)
	}
}

// ByType counts queries per QueryType.
func (w *Workload) ByType() map[string]int {
	out := map[string]int{}
	for _, q := range w.Queries {
		out[q.Props.QueryType]++
	}
	return out
}

// AggregateSplit returns (withAggregates, withoutAggregates).
func (w *Workload) AggregateSplit() (yes, no int) {
	for _, q := range w.Queries {
		if q.Props.Aggregate {
			yes++
		} else {
			no++
		}
	}
	return yes, no
}

// ---------------------------------------------------------------------------
// Generator helpers shared by the concrete workload generators.

// JoinEdge is one joinable pair in a schema's join graph.
type JoinEdge struct {
	LeftTable, LeftCol   string
	RightTable, RightCol string
}

// Gen wraps a seeded source with SQL-building helpers.
type Gen struct {
	R *rand.Rand
}

// NewGen returns a generator seeded deterministically.
func NewGen(seed int64) *Gen { return &Gen{R: rand.New(rand.NewSource(seed))} }

// Pick returns a uniformly random element.
func Pick[T any](g *Gen, items []T) T { return items[g.R.Intn(len(items))] }

// IntLit returns a random integer literal in [lo, hi].
func (g *Gen) IntLit(lo, hi int) *sqlast.Literal {
	return sqlast.Number(strconv.Itoa(lo + g.R.Intn(hi-lo+1)))
}

// FloatLit returns a random one-decimal float literal in [lo, hi).
func (g *Gen) FloatLit(lo, hi float64) *sqlast.Literal {
	v := lo + g.R.Float64()*(hi-lo)
	return sqlast.Number(strconv.FormatFloat(float64(int(v*10))/10, 'f', 1, 64))
}

// Predicate builds a random predicate over a typed column reference.
func (g *Gen) Predicate(qualifier string, col catalog.Column) sqlast.Expr {
	ref := sqlast.Col(qualifier, col.Name)
	switch col.Type {
	case catalog.TypeInt:
		ops := []string{">", "<", ">=", "=", "<>"}
		return &sqlast.Binary{Op: Pick(g, ops), L: ref, R: g.IntLit(1, 5000)}
	case catalog.TypeFloat:
		if g.R.Intn(4) == 0 {
			return &sqlast.Between{X: ref, Lo: g.FloatLit(0, 10), Hi: g.FloatLit(10, 400)}
		}
		ops := []string{">", "<", ">=", "<="}
		return &sqlast.Binary{Op: Pick(g, ops), L: ref, R: g.FloatLit(0, 300)}
	case catalog.TypeText:
		if g.R.Intn(3) == 0 {
			return &sqlast.Binary{Op: "LIKE", L: ref, R: sqlast.Str("%" + textWords[g.R.Intn(len(textWords))] + "%")}
		}
		return &sqlast.Binary{Op: "=", L: ref, R: sqlast.Str(textWords[g.R.Intn(len(textWords))])}
	case catalog.TypeBool:
		return &sqlast.Binary{Op: "=", L: ref, R: &sqlast.Literal{Kind: sqlast.LitBool, Text: "TRUE"}}
	default:
		return &sqlast.IsNull{X: ref, Not: true}
	}
}

var textWords = []string{"GALAXY", "STAR", "QSO", "alpha", "beta", "north", "primary", "red"}

// EqualityPredicate builds a highly selective equality on an int column,
// which the cost model treats as cheap.
func (g *Gen) EqualityPredicate(qualifier string, col catalog.Column) sqlast.Expr {
	return sqlast.Eq(sqlast.Col(qualifier, col.Name), g.IntLit(1, 100000))
}

// WordCount reports the whitespace word count of a statement's printed form.
func WordCount(stmt sqlast.Stmt) int {
	return sqllex.WordCount(sqlast.Print(stmt))
}

// PadProjection appends additional projection columns to a SELECT until its
// printed word count reaches at least target. Columns cycle through the pool
// of (qualifier, column) pairs; scalar function wrapping adds variety. The
// pad never touches FROM/WHERE, so table, join, and predicate counts are
// preserved.
func (g *Gen) PadProjection(sel *sqlast.SelectStmt, pool []sqlast.Expr, target int) {
	if len(pool) == 0 {
		return
	}
	guard := 0
	for WordCount(sel) < target && guard < 400 {
		guard++
		src := pool[guard%len(pool)]
		var item sqlast.Expr = sqlast.CloneExpr(src)
		switch guard % 5 {
		case 1:
			item = &sqlast.FuncCall{Name: "ABS", Args: []sqlast.Expr{item}}
		case 3:
			item = &sqlast.Binary{Op: "*", L: item, R: sqlast.Number("2")}
		}
		alias := ""
		if guard%4 == 0 {
			alias = "c" + strconv.Itoa(guard)
		}
		sel.Items = append(sel.Items, sqlast.SelectItem{Expr: item, Alias: alias})
	}
}

// Bucket returns the histogram bucket index for a value given ascending
// bucket lower bounds. E.g. bounds [1,30,60,90,120] maps 45 to 1.
func Bucket(v int, bounds []int) int {
	idx := 0
	for i, b := range bounds {
		if v >= b {
			idx = i
		}
	}
	return idx
}

// Quota tracks remaining per-class generation budgets.
type Quota struct {
	counts []int
	total  int
}

// NewQuota returns a quota with the given per-class counts.
func NewQuota(counts ...int) *Quota {
	q := &Quota{counts: append([]int{}, counts...)}
	for _, c := range counts {
		q.total += c
	}
	return q
}

// Total returns the remaining total.
func (q *Quota) Total() int { return q.total }

// Take draws one unit from class i; it returns false when exhausted.
func (q *Quota) Take(i int) bool {
	if i < 0 || i >= len(q.counts) || q.counts[i] == 0 {
		return false
	}
	q.counts[i]--
	q.total--
	return true
}

// Draw removes and returns a class index with remaining budget, preferring
// classes proportionally to their remaining counts (deterministic given g).
func (q *Quota) Draw(g *Gen) int {
	if q.total == 0 {
		return -1
	}
	n := g.R.Intn(q.total)
	for i, c := range q.counts {
		if n < c {
			q.counts[i]--
			q.total--
			return i
		}
		n -= c
	}
	return -1
}

// Remaining returns a copy of the per-class counts.
func (q *Quota) Remaining() []int { return append([]int{}, q.counts...) }
