package workload

import (
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqlast"
)

func TestBucket(t *testing.T) {
	bounds := []int{1, 30, 60, 90, 120}
	cases := map[int]int{1: 0, 29: 0, 30: 1, 59: 1, 60: 2, 89: 2, 90: 3, 120: 4, 500: 4}
	for v, want := range cases {
		if got := Bucket(v, bounds); got != want {
			t.Errorf("Bucket(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestPadProjectionReachesTarget(t *testing.T) {
	g := NewGen(5)
	sel := &sqlast.SelectStmt{
		Items: []sqlast.SelectItem{{Expr: sqlast.Col("", "a")}},
		From:  []sqlast.TableRef{&sqlast.TableName{Name: "t"}},
	}
	pool := []sqlast.Expr{sqlast.Col("", "a"), sqlast.Col("", "b"), sqlast.Col("", "c")}
	g.PadProjection(sel, pool, 60)
	if got := WordCount(sel); got < 60 {
		t.Errorf("padded word count = %d, want >= 60", got)
	}
	// Padding must not add predicates or tables.
	if sel.Where != nil || len(sel.From) != 1 {
		t.Error("padding touched FROM/WHERE")
	}
}

// TestPadProjectionMatchesRecount checks PadProjection's running word count
// against a full recount of the printed statement: padding stops at the
// first item that reaches the target (or at the 400-item guard), so the
// result reaches it and the result without its last item does not.
func TestPadProjectionMatchesRecount(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pools := [][]sqlast.Expr{
		{sqlast.Col("", "a")},
		{sqlast.Col("t", "b"), sqlast.Str("north pole"), &sqlast.FuncCall{Name: "COUNT", Star: true}},
		nil, // filled from each random tree's own items
	}
	for i := 0; i < 200; i++ {
		tree := sqlast.RandSelect(r)
		if i%10 == 0 {
			tree.Items = nil // no item precedes the first pad item
		}
		pools[2] = pools[2][:0]
		for _, item := range sqlast.RandSelect(r).Items {
			pools[2] = append(pools[2], item.Expr)
		}
		base := WordCount(tree)
		for p, pool := range pools {
			for _, extra := range []int{0, 1, 7, 60, 5000} {
				sel := sqlast.CloneSelect(tree)
				target := base + extra
				NewGen(1).PadProjection(sel, pool, target)
				added := len(sel.Items) - len(tree.Items)
				if got := WordCount(sel); got < target && added < 400 {
					t.Fatalf("tree %d pool %d: %d words after %d items, want >= %d", i, p, got, added, target)
				}
				if added == 0 {
					continue
				}
				sel.Items = sel.Items[:len(sel.Items)-1]
				if got := WordCount(sel); got >= target {
					t.Fatalf("tree %d pool %d: %d words without the last of %d items, want < %d", i, p, got, added, target)
				}
			}
		}
	}
}

func TestPadProjectionEmptyPool(t *testing.T) {
	g := NewGen(5)
	sel := &sqlast.SelectStmt{Items: []sqlast.SelectItem{{Expr: sqlast.Col("", "a")}}}
	g.PadProjection(sel, nil, 100)
	if len(sel.Items) != 1 {
		t.Error("empty pool should leave items unchanged")
	}
}

func TestPredicateTypesMatchColumn(t *testing.T) {
	g := NewGen(9)
	intCol := catalog.Column{Name: "n", Type: catalog.TypeInt}
	for i := 0; i < 50; i++ {
		p := g.Predicate("t", intCol)
		switch e := p.(type) {
		case *sqlast.Binary:
			if lit, ok := e.R.(*sqlast.Literal); ok && lit.Kind != sqlast.LitNumber {
				t.Fatalf("int predicate got literal %v", lit)
			}
		}
	}
	textCol := catalog.Column{Name: "s", Type: catalog.TypeText}
	for i := 0; i < 50; i++ {
		p := g.Predicate("t", textCol)
		if bin, ok := p.(*sqlast.Binary); ok {
			if lit, ok := bin.R.(*sqlast.Literal); ok && lit.Kind != sqlast.LitString {
				t.Fatalf("text predicate got literal kind %v", lit.Kind)
			}
		}
	}
}

func TestFinalizeAssignsIDs(t *testing.T) {
	w := &Workload{Name: "X", Queries: []Query{
		{SQL: "SELECT 1"}, {SQL: "SELECT 2"},
	}}
	w.Finalize("x")
	if w.Queries[0].ID != "x-0000" || w.Queries[1].ID != "x-0001" {
		t.Errorf("ids = %q %q", w.Queries[0].ID, w.Queries[1].ID)
	}
	if w.Queries[0].Dataset != "X" {
		t.Error("dataset not stamped")
	}
	if w.Queries[0].Props.QueryType != "SELECT" {
		t.Error("props not computed")
	}
}
