package sqlast

import (
	"math/rand"
	"slices"
	"testing"
)

// walkOrder lists the nodes Walk visits from n, in visit order.
func walkOrder(n Node) []Node {
	var out []Node
	Walk(n, func(m Node) bool {
		out = append(out, m)
		return true
	})
	return out
}

// levelOrder is WalkLevel's specification: the nodes Walk visits from n,
// minus those strictly inside a SELECT nested below n, in Walk's order.
func levelOrder(n Node) []Node {
	all := walkOrder(n)
	inside := map[Node]bool{}
	for _, m := range all {
		if _, ok := m.(*SelectStmt); ok && m != n && !inside[m] {
			for _, c := range walkOrder(m)[1:] {
				inside[c] = true
			}
		}
	}
	var out []Node
	for _, m := range all {
		if !inside[m] {
			out = append(out, m)
		}
	}
	return out
}

// refHasAggregate is HasAggregate written out per node type: an aggregate
// call anywhere in e, not counting the bodies of nested SELECTs.
func refHasAggregate(e Expr) bool {
	switch t := e.(type) {
	case *FuncCall:
		return IsAggregate(t.Name) || slices.ContainsFunc(t.Args, refHasAggregate)
	case *Binary:
		return refHasAggregate(t.L) || refHasAggregate(t.R)
	case *Unary:
		return refHasAggregate(t.X)
	case *In:
		return refHasAggregate(t.X) || slices.ContainsFunc(t.List, refHasAggregate)
	case *Between:
		return refHasAggregate(t.X) || refHasAggregate(t.Lo) || refHasAggregate(t.Hi)
	case *IsNull:
		return refHasAggregate(t.X)
	case *Cast:
		return refHasAggregate(t.X)
	case *Case:
		for _, w := range t.Whens {
			if refHasAggregate(w.Cond) || refHasAggregate(w.Result) {
				return true
			}
		}
		return refHasAggregate(t.Operand) || refHasAggregate(t.Else)
	}
	return false
}

// From every node of a random tree, WalkLevel visits exactly its level in
// Walk's order, and HasAggregate agrees with the reference on every
// expression.
func TestWalkLevelMatchesWalk(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	nested, aggs := 0, 0
	for i := 0; i < 500; i++ {
		s := RandSelect(r)
		for _, n := range walkOrder(s) {
			var got []Node
			WalkLevel(n, func(m Node) bool {
				got = append(got, m)
				return true
			})
			want := levelOrder(n)
			if !slices.Equal(got, want) {
				t.Fatalf("tree %d: WalkLevel from %T visits %d nodes, want %d:\n%s", i, n, len(got), len(want), Print(s))
			}
			if len(want) < len(walkOrder(n)) {
				nested++
			}
			if e, ok := n.(Expr); ok {
				if got, want := HasAggregate(e), refHasAggregate(e); got != want {
					t.Fatalf("tree %d: HasAggregate(%s) = %v, want %v", i, PrintExpr(e), got, want)
				}
				if refHasAggregate(e) {
					aggs++
				}
			}
		}
	}
	if nested == 0 || aggs == 0 {
		t.Fatalf("random trees never nest (%d) or aggregate (%d)", nested, aggs)
	}
}

func TestHasAggregateStopsAtNestedSelects(t *testing.T) {
	count := &FuncCall{Name: "count", Star: true}
	sub := &SelectStmt{Items: []SelectItem{{Expr: count}}}
	for _, c := range []struct {
		e    Expr
		want bool
	}{
		{&In{X: count, List: []Expr{Number("10"), Number("11")}}, true},
		{&Unary{Op: "NOT", X: &In{X: Col("", "a"), List: []Expr{count}}}, true},
		{&FuncCall{Name: "ABS", Args: []Expr{&FuncCall{Name: "MAX", Args: []Expr{Col("", "a")}}}}, true},
		{&In{X: Col("", "a"), Sub: sub}, false},
		{&Exists{Sub: sub}, false},
		{&Binary{Op: ">", L: Col("", "a"), R: &Subquery{Select: sub}}, false},
		{&FuncCall{Name: "ABS", Args: []Expr{Col("", "a")}}, false},
		{nil, false},
	} {
		if got := HasAggregate(c.e); got != c.want {
			t.Errorf("HasAggregate(%s) = %v, want %v", PrintExpr(c.e), got, c.want)
		}
	}
}

func TestSelectHasAggregate(t *testing.T) {
	count := &FuncCall{Name: "COUNT", Star: true}
	a := Col("", "a")
	sub := &SelectStmt{Items: []SelectItem{{Expr: count}}}
	for _, c := range []struct {
		sel  *SelectStmt
		want bool
	}{
		{&SelectStmt{Items: []SelectItem{{Expr: a}, {Expr: count}}}, true},
		{&SelectStmt{Items: []SelectItem{{Expr: a}}, OrderBy: []OrderItem{{Expr: count}}}, true},
		{&SelectStmt{Items: []SelectItem{{Expr: a}}, Where: &Binary{Op: ">", L: count, R: Number("1")}}, false},
		{&SelectStmt{Items: []SelectItem{{Expr: a}}, Having: &Binary{Op: ">", L: count, R: Number("1")}}, false},
		{&SelectStmt{Items: []SelectItem{{Expr: &Subquery{Select: sub}}}, OrderBy: []OrderItem{{Expr: &Exists{Sub: sub}}}}, false},
		{&SelectStmt{Items: []SelectItem{{Expr: a}}, GroupBy: []Expr{a}}, false},
	} {
		if got := SelectHasAggregate(c.sel); got != c.want {
			t.Errorf("SelectHasAggregate(%s) = %v, want %v", Print(c.sel), got, c.want)
		}
	}
}

func TestFlatten(t *testing.T) {
	a, b, c := Col("", "a"), Col("", "b"), Col("", "c")
	or := Or(b, c)
	andOr := And(a, or)
	for _, tc := range []struct {
		e    Expr
		op   string
		want []Expr
	}{
		{nil, "AND", nil},
		{a, "AND", []Expr{a}},
		{And(a, b, c), "AND", []Expr{a, b, c}},
		{&Binary{Op: "AND", L: a, R: And(b, c)}, "AND", []Expr{a, b, c}},
		{andOr, "AND", []Expr{a, or}},
		{andOr, "OR", []Expr{andOr}},
	} {
		got := Flatten(tc.op, tc.e)
		if !slices.EqualFunc(got, tc.want, func(x, y Expr) bool { return x == y }) {
			t.Errorf("Flatten(%s, %s) = %d operands, want %d", tc.op, PrintExpr(tc.e), len(got), len(tc.want))
		}
	}
	// Several roots flatten in turn.
	if got := Flatten("AND", And(a, b), nil, c); !slices.EqualFunc(got, []Expr{a, b, c}, func(x, y Expr) bool { return x == y }) {
		t.Errorf("Flatten over three roots = %d operands, want 3", len(got))
	}
}
