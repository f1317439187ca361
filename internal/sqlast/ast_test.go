package sqlast

import (
	"math/rand"
	"strings"
	"testing"
)

func TestPrintSimple(t *testing.T) {
	s := &SelectStmt{
		Items: []SelectItem{{Expr: Col("", "plate")}, {Expr: Col("", "mjd")}},
		From:  []TableRef{&TableName{Name: "SpecObj"}},
		Where: &Binary{Op: ">", L: Col("", "z"), R: Number("0.5")},
	}
	got := Print(s)
	want := "SELECT plate , mjd FROM SpecObj WHERE z > 0.5"
	if got != want {
		t.Errorf("Print = %q, want %q", got, want)
	}
}

func TestPrintPrecedenceParens(t *testing.T) {
	// (a OR b) AND c must keep its parentheses.
	e := &Binary{
		Op: "AND",
		L:  &Binary{Op: "OR", L: Col("", "a"), R: Col("", "b")},
		R:  Col("", "c"),
	}
	got := PrintExpr(e)
	if !strings.Contains(got, "(") {
		t.Errorf("PrintExpr = %q, expected parentheses", got)
	}
	// a OR (b AND c) needs no parentheses.
	e2 := &Binary{
		Op: "OR",
		L:  Col("", "a"),
		R:  &Binary{Op: "AND", L: Col("", "b"), R: Col("", "c")},
	}
	got2 := PrintExpr(e2)
	if strings.Contains(got2, "(") {
		t.Errorf("PrintExpr = %q, expected no parentheses", got2)
	}
}

func TestPrintStringEscaping(t *testing.T) {
	got := PrintExpr(Str("it's"))
	if got != "'it''s'" {
		t.Errorf("PrintExpr = %q", got)
	}
}

func TestPrintJoinVariants(t *testing.T) {
	j := &Join{
		Left:  &TableName{Name: "a"},
		Right: &TableName{Name: "b"},
		Type:  "LEFT",
		On:    Eq(Col("a", "x"), Col("b", "x")),
	}
	s := &SelectStmt{Items: []SelectItem{{Expr: &Star{}}}, From: []TableRef{j}}
	got := Print(s)
	if !strings.Contains(got, "LEFT JOIN") {
		t.Errorf("Print = %q", got)
	}
	j.Type = "CROSS"
	j.On = nil
	got = Print(s)
	if !strings.Contains(got, "CROSS JOIN") || strings.Contains(got, "ON") {
		t.Errorf("Print = %q", got)
	}
}

func TestPrintNullAndBool(t *testing.T) {
	if got := PrintExpr(Null()); got != "NULL" {
		t.Errorf("NULL prints as %q", got)
	}
	if got := PrintExpr(&Literal{Kind: LitBool, Text: "true"}); got != "TRUE" {
		t.Errorf("bool prints as %q", got)
	}
}

func TestAndOrFold(t *testing.T) {
	if And() != nil {
		t.Error("And() should be nil")
	}
	a, b, c := Col("", "a"), Col("", "b"), Col("", "c")
	e := And(a, nil, b, c)
	bin, ok := e.(*Binary)
	if !ok || bin.Op != "AND" {
		t.Fatalf("And = %#v", e)
	}
	if PrintExpr(e) != "a AND b AND c" {
		t.Errorf("fold = %q", PrintExpr(e))
	}
	if PrintExpr(Or(a, b)) != "a OR b" {
		t.Errorf("or fold = %q", PrintExpr(Or(a, b)))
	}
	if Or(a) != Expr(a) {
		t.Error("single-arg Or should return the arg")
	}
}

func TestIsAggregate(t *testing.T) {
	for _, name := range []string{"COUNT", "count", "Avg", "SUM", "min", "MAX"} {
		if !IsAggregate(name) {
			t.Errorf("IsAggregate(%q) = false", name)
		}
	}
	for _, name := range []string{"abs", "ROUND", "fGetNearbyObjEq"} {
		if IsAggregate(name) {
			t.Errorf("IsAggregate(%q) = true", name)
		}
	}
}

func TestWalkVisitsAllNodes(t *testing.T) {
	s := &SelectStmt{
		With: []CTE{{Name: "c", Select: &SelectStmt{Items: []SelectItem{{Expr: Number("1")}}}}},
		Items: []SelectItem{
			{Expr: &FuncCall{Name: "COUNT", Star: true}},
			{Expr: &Case{Whens: []When{{Cond: Eq(Col("", "a"), Number("1")), Result: Str("x")}}, Else: Null()}},
		},
		From: []TableRef{&Join{
			Left:  &TableName{Name: "t"},
			Right: &SubqueryTable{Select: &SelectStmt{Items: []SelectItem{{Expr: Col("", "b")}}}, Alias: "s"},
			Type:  "INNER",
			On:    Eq(Col("t", "x"), Col("s", "b")),
		}},
		Where: &In{X: Col("", "a"), Sub: &SelectStmt{Items: []SelectItem{{Expr: Col("", "z")}}}},
	}
	counts := map[string]int{}
	Walk(s, func(n Node) bool {
		switch n.(type) {
		case *SelectStmt:
			counts["select"]++
		case *Join:
			counts["join"]++
		case *ColumnRef:
			counts["col"]++
		case *FuncCall:
			counts["func"]++
		case *Case:
			counts["case"]++
		}
		return true
	})
	if counts["select"] != 4 {
		t.Errorf("select visits = %d, want 4", counts["select"])
	}
	if counts["join"] != 1 || counts["func"] != 1 || counts["case"] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if counts["col"] < 5 {
		t.Errorf("col visits = %d, want >= 5", counts["col"])
	}
}

func TestWalkStopsDescent(t *testing.T) {
	s := &SelectStmt{
		Items: []SelectItem{{Expr: Col("", "a")}},
		From:  []TableRef{&SubqueryTable{Select: &SelectStmt{Items: []SelectItem{{Expr: Col("", "b")}}}, Alias: "s"}},
	}
	var cols int
	Walk(s, func(n Node) bool {
		if _, ok := n.(*SubqueryTable); ok {
			return false // don't descend into the derived table
		}
		if _, ok := n.(*ColumnRef); ok {
			cols++
		}
		return true
	})
	if cols != 1 {
		t.Errorf("cols = %d, want 1 (descent should have stopped)", cols)
	}
}

func TestCloneNils(t *testing.T) {
	if CloneExpr(nil) != nil {
		t.Error("CloneExpr(nil) != nil")
	}
	if CloneSelect(nil) != nil {
		t.Error("CloneSelect(nil) != nil")
	}
}

func TestRandSelectDeterministic(t *testing.T) {
	a := Print(RandSelect(rand.New(rand.NewSource(7))))
	b := Print(RandSelect(rand.New(rand.NewSource(7))))
	if a != b {
		t.Errorf("same seed produced different ASTs:\n%s\n%s", a, b)
	}
	c := Print(RandSelect(rand.New(rand.NewSource(8))))
	if a == c {
		t.Log("different seeds produced equal ASTs (possible but unlikely)")
	}
}

func TestPrintExecAndInsert(t *testing.T) {
	got := Print(&ExecStmt{Proc: "dbo.sp", Args: []Expr{Number("1"), Number("2")}})
	if got != "EXEC dbo.sp 1 , 2" {
		t.Errorf("exec prints as %q", got)
	}
	ins := &InsertStmt{Table: "t", Select: &SelectStmt{Items: []SelectItem{{Expr: Col("", "a")}}, From: []TableRef{&TableName{Name: "u"}}}}
	if got := Print(ins); got != "INSERT INTO t SELECT a FROM u" {
		t.Errorf("insert-select prints as %q", got)
	}
}
