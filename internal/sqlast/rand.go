package sqlast

import (
	"math/rand"
	"strconv"
)

// The vocabulary and shape bounds of RandSelect's statements.
var (
	randTables  = []string{"t1", "t2", "t3", "orders", "parts"}
	randColumns = []string{"a", "b", "c", "id", "qty", "price", "name"}
	randFuncs   = []string{"abs", "round", "upper", "lower"}
)

const (
	randMaxDepth = 3 // maximum subquery nesting depth
	randMaxItems = 4 // maximum projection items
)

// RandSelect generates a random, structurally valid SELECT statement. It is
// used by property-based tests (printer/parser round-trips) and stress tests.
func RandSelect(r *rand.Rand) *SelectStmt {
	g := &randGen{r: r}
	return g.selectStmt(randMaxDepth)
}

type randGen struct {
	r *rand.Rand
}

func (g *randGen) pick(ss []string) string { return ss[g.r.Intn(len(ss))] }

func (g *randGen) selectStmt(depth int) *SelectStmt {
	s := &SelectStmt{}
	if depth == randMaxDepth && g.r.Intn(6) == 0 {
		s.With = []CTE{{Name: "cte" + strconv.Itoa(g.r.Intn(3)), Select: g.selectStmt(depth - 1)}}
	}
	s.Distinct = g.r.Intn(8) == 0
	n := 1 + g.r.Intn(randMaxItems)
	grouped := g.r.Intn(4) == 0
	if grouped {
		col := g.pick(randColumns)
		s.Items = []SelectItem{
			{Expr: Col("", col)},
			{Expr: &FuncCall{Name: "COUNT", Star: true}, Alias: "n"},
		}
		s.GroupBy = []Expr{Col("", col)}
		if g.r.Intn(2) == 0 {
			s.Having = &Binary{Op: ">", L: &FuncCall{Name: "COUNT", Star: true}, R: Number(strconv.Itoa(1 + g.r.Intn(9)))}
		}
	} else {
		for i := 0; i < n; i++ {
			item := SelectItem{Expr: g.expr(depth, false)}
			if g.r.Intn(5) == 0 {
				item.Alias = "x" + strconv.Itoa(i)
			}
			s.Items = append(s.Items, item)
		}
	}
	s.From = []TableRef{g.tableRef(depth)}
	if g.r.Intn(3) > 0 {
		s.Where = g.boolExpr(depth, 2)
	}
	if !grouped && g.r.Intn(5) == 0 {
		s.OrderBy = []OrderItem{{Expr: Col("", g.pick(randColumns)), Desc: g.r.Intn(2) == 0}}
	}
	if g.r.Intn(7) == 0 {
		lim := 1 + g.r.Intn(100)
		s.Limit = &lim
	}
	return s
}

func (g *randGen) tableRef(depth int) TableRef {
	switch {
	case depth > 0 && g.r.Intn(6) == 0:
		return &SubqueryTable{Select: g.selectStmt(depth - 1), Alias: "sq" + strconv.Itoa(g.r.Intn(5))}
	case g.r.Intn(3) == 0:
		left := &TableName{Name: g.pick(randTables), Alias: "l"}
		right := &TableName{Name: g.pick(randTables), Alias: "r"}
		types := []string{"INNER", "LEFT", "RIGHT", "FULL"}
		return &Join{
			Left:  left,
			Right: right,
			Type:  types[g.r.Intn(len(types))],
			On:    Eq(Col("l", g.pick(randColumns)), Col("r", g.pick(randColumns))),
		}
	default:
		tn := &TableName{Name: g.pick(randTables)}
		if g.r.Intn(2) == 0 {
			tn.Alias = "t" + strconv.Itoa(g.r.Intn(5))
		}
		return tn
	}
}

// boolExpr builds a boolean expression with at most width conjuncts.
func (g *randGen) boolExpr(depth, width int) Expr {
	var conj []Expr
	n := 1 + g.r.Intn(width)
	for i := 0; i < n; i++ {
		conj = append(conj, g.predicate(depth))
	}
	if g.r.Intn(3) == 0 {
		return Or(conj...)
	}
	return And(conj...)
}

func (g *randGen) predicate(depth int) Expr {
	col := Col("", g.pick(randColumns))
	switch g.r.Intn(8) {
	case 0:
		return &Between{X: col, Lo: Number(strconv.Itoa(g.r.Intn(10))), Hi: Number(strconv.Itoa(10 + g.r.Intn(90)))}
	case 1:
		return &IsNull{X: col, Not: g.r.Intn(2) == 0}
	case 2:
		return &In{X: col, List: []Expr{Number("1"), Number("2"), Number("3")}}
	case 3:
		if depth > 0 {
			return &In{X: col, Sub: g.scalarSubquery(depth - 1)}
		}
		return &Binary{Op: "LIKE", L: col, R: Str("%" + g.pick(randColumns) + "%")}
	case 4:
		if depth > 0 {
			return &Exists{Sub: g.selectStmt(depth - 1)}
		}
		fallthrough
	default:
		ops := []string{"=", "<>", "<", ">", "<=", ">="}
		return &Binary{Op: ops[g.r.Intn(len(ops))], L: col, R: g.scalar()}
	}
}

// scalarSubquery builds a single-column SELECT for use inside IN.
func (g *randGen) scalarSubquery(depth int) *SelectStmt {
	s := &SelectStmt{
		Items: []SelectItem{{Expr: Col("", g.pick(randColumns))}},
		From:  []TableRef{&TableName{Name: g.pick(randTables)}},
	}
	if g.r.Intn(2) == 0 && depth >= 0 {
		s.Where = g.predicate(0)
	}
	return s
}

func (g *randGen) scalar() Expr {
	switch g.r.Intn(5) {
	case 0:
		return Str(g.pick(randColumns))
	case 1:
		return &FuncCall{Name: g.pick(randFuncs), Args: []Expr{Col("", g.pick(randColumns))}}
	default:
		if g.r.Intn(4) == 0 {
			return Number(strconv.FormatFloat(float64(g.r.Intn(1000))/10, 'f', 1, 64))
		}
		return Number(strconv.Itoa(g.r.Intn(1000)))
	}
}

func (g *randGen) expr(depth int, agg bool) Expr {
	switch g.r.Intn(6) {
	case 0:
		return g.scalar()
	case 1:
		return &Binary{Op: "+", L: Col("", g.pick(randColumns)), R: g.scalar()}
	case 2:
		return &Case{
			Whens: []When{{Cond: &Binary{Op: ">", L: Col("", g.pick(randColumns)), R: Number("0")}, Result: Number("1")}},
			Else:  Number("0"),
		}
	default:
		return Col("", g.pick(randColumns))
	}
}
