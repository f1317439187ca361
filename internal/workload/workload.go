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

// Finalize assigns IDs and computes every query's properties from its kept
// tree and its text, so no query is parsed again: Stmt must be the tree SQL
// prints from or parses to. Generators call it once after emitting their
// queries.
func (w *Workload) Finalize(prefix string) {
	for i := range w.Queries {
		q := &w.Queries[i]
		q.ID = fmt.Sprintf("%s-%04d", prefix, i)
		q.Dataset = w.Name
		q.Props = analyze.ComputeStmt(q.Stmt, q.SQL)
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

// WordCount reports the whitespace word count of a statement's printed form.
func WordCount(stmt sqlast.Stmt) int {
	return sqllex.WordCount(sqlast.Print(stmt))
}

// PadProjection appends additional projection columns to a SELECT until its
// printed word count reaches at least target. Columns cycle through the pool
// of (qualifier, column) pairs; scalar function wrapping adds variety. The
// pad never touches FROM/WHERE, so table, join, and predicate counts are
// preserved. The statement is counted once; each item then adds its own
// words, one for the " , " before it when items precede it, and two for
// " AS cN", which is how the printer writes a select list.
func (g *Gen) PadProjection(sel *sqlast.SelectStmt, pool []sqlast.Expr, target int) {
	if len(pool) == 0 {
		return
	}
	words := WordCount(sel)
	guard := 0
	for words < target && guard < 400 {
		guard++
		src := pool[guard%len(pool)]
		var item sqlast.Expr = sqlast.CloneExpr(src)
		switch guard % 5 {
		case 1:
			item = &sqlast.FuncCall{Name: "ABS", Args: []sqlast.Expr{item}}
		case 3:
			item = &sqlast.Binary{Op: "*", L: item, R: sqlast.Number("2")}
		}
		words += sqllex.WordCount(sqlast.PrintExpr(item))
		if len(sel.Items) > 0 {
			words++
		}
		alias := ""
		if guard%4 == 0 {
			alias = "c" + strconv.Itoa(guard)
			words += 2
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
