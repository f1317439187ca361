package equiv

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
)

func parse(t *testing.T, sql string) *sqlast.SelectStmt {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return sel
}

func sdssChecker() *Checker { return NewChecker(catalog.SDSS()) }

// Each equivalence transformation, applied to a suitable query, must produce
// a pair the execution engine confirms equivalent on every test instance.
func TestEquivalenceTransformsVerify(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	cases := map[Type]string{
		ReorderConditions: "SELECT plate FROM SpecObj WHERE z > 0.5 AND mjd > 55000 AND plate < 3000",
		CTEWrap:           "SELECT plate , mjd FROM SpecObj WHERE z > 0.5",
		NestedJoin:        "SELECT plate FROM SpecObj WHERE bestobjid IN ( SELECT objid FROM PhotoObj WHERE ra > 180 )",
		SwapSubqueries:    "SELECT s.plate FROM SpecObj AS s WHERE s.bestobjid IN ( SELECT p.objid FROM PhotoObj AS p WHERE p.ra > 180 )",
		BetweenSplit:      "SELECT plate FROM SpecObj WHERE z BETWEEN 0.5 AND 1.5",
		InListOr:          "SELECT plate FROM SpecObj WHERE plate IN ( 1 , 2 , 3 )",
		NotPushdown:       "SELECT plate FROM SpecObj WHERE z > 0.5",
		DistinctGroupBy:   "SELECT DISTINCT plate , mjd FROM SpecObj",
		CommuteJoin:       "SELECT s.plate , p.ra FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = p.objid",
	}
	checker := sdssChecker()
	for typ, sql := range cases {
		sel := parse(t, sql)
		out, ok := Transform(sel, typ, r)
		if !ok {
			t.Errorf("Transform(%s) not applicable to %q", typ, sql)
			continue
		}
		if sqlast.Print(out) == sqlast.Print(sel) {
			t.Errorf("Transform(%s) produced an identical query", typ)
			continue
		}
		equal, err := checker.Equivalent(sel, out)
		if err != nil {
			t.Errorf("Transform(%s) execution failed: %v\n left: %s\nright: %s", typ, err, sql, sqlast.Print(out))
			continue
		}
		if !equal {
			t.Errorf("Transform(%s) is not empirically equivalent\n left: %s\nright: %s", typ, sql, sqlast.Print(out))
		}
	}
}

// join-nested can change multiplicity in general; on a key-joined pair it
// must verify.
func TestJoinNestedTransform(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	sql := "SELECT s.plate FROM SpecObj AS s JOIN PlateX AS px ON s.plate = px.plate WHERE s.z > 0.5"
	sel := parse(t, sql)
	out, ok := Transform(sel, JoinNested, r)
	if !ok {
		t.Fatal("join-nested not applicable")
	}
	if _, isIn := findIn(out); !isIn {
		t.Errorf("expected IN subquery in %s", sqlast.Print(out))
	}
}

func findIn(sel *sqlast.SelectStmt) (*sqlast.In, bool) {
	var in *sqlast.In
	sqlast.Walk(sel, func(n sqlast.Node) bool {
		if x, ok := n.(*sqlast.In); ok {
			in = x
		}
		return true
	})
	return in, in != nil
}

// Non-equivalence transformations must change semantics on at least one test
// instance (for the value classes where the difference is data-visible).
// Each base query selects rows on both instances: two queries that select
// nothing compare equal whatever their projections.
func TestNonEquivalenceTransformsDiffer(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	cases := map[Type]string{
		AggFunction:       "SELECT plate , AVG( z ) FROM SpecObj GROUP BY plate",
		LogicalConditions: "SELECT plate FROM SpecObj WHERE z > 0.5 AND mjd > 55000",
		ValueChange:       "SELECT plate FROM SpecObj WHERE z > 0.5",
		DropPredicate:     "SELECT plate FROM SpecObj WHERE z > 0.5 AND z < 2.5",
		ProjectionChange:  "SELECT plate FROM SpecObj WHERE mjd > 100",
		DistinctToggle:    "SELECT class FROM SpecObj",
	}
	checker := sdssChecker()
	for typ, sql := range cases {
		sel := parse(t, sql)
		out, ok := Transform(sel, typ, r)
		if !ok {
			t.Errorf("Transform(%s) not applicable to %q", typ, sql)
			continue
		}
		equal, err := checker.Equivalent(sel, out)
		if err != nil {
			t.Errorf("Transform(%s) execution failed: %v", typ, err)
			continue
		}
		if equal {
			t.Errorf("Transform(%s) produced an empirically equal pair\n left: %s\nright: %s", typ, sql, sqlast.Print(out))
		}
	}
}

func TestChangeJoinTypeTransform(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	sql := "SELECT s.plate , p.ra FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = p.objid"
	out, ok := Transform(parse(t, sql), ChangeJoinCondition, r)
	if !ok {
		t.Fatal("change-join-condition not applicable")
	}
	printed := sqlast.Print(out)
	if want := "LEFT JOIN"; !contains(printed, want) {
		t.Errorf("expected %q in %q", want, printed)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})())
}

func TestComparisonOpTransform(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	sql := "SELECT plate FROM SpecObj WHERE plate > 100"
	out, ok := Transform(parse(t, sql), ComparisonOp, r)
	if !ok {
		t.Fatal("comparison-op not applicable")
	}
	if !contains(sqlast.Print(out), ">=") {
		t.Errorf("expected >= in %q", sqlast.Print(out))
	}
}

func TestTransformNotApplicable(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	sel := parse(t, "SELECT plate FROM SpecObj")
	for _, typ := range []Type{ReorderConditions, BetweenSplit, InListOr, AggFunction, LogicalConditions, DropPredicate, ChangeJoinCondition} {
		if _, ok := Transform(sel, typ, r); ok {
			t.Errorf("Transform(%s) should not apply to a bare select", typ)
		}
	}
}

func TestTransformDoesNotMutateInput(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	sql := "SELECT plate FROM SpecObj WHERE z > 0.5 AND mjd > 55000"
	sel := parse(t, sql)
	before := sqlast.Print(sel)
	for _, typ := range append(EquivTypes(), NonEquivTypes()...) {
		Transform(sel, typ, r)
		if sqlast.Print(sel) != before {
			t.Fatalf("Transform(%s) mutated its input", typ)
		}
	}
}

func TestRuleEquivalentNormalization(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{
			"SELECT plate FROM SpecObj WHERE z > 0.5 AND mjd > 55000",
			"SELECT plate FROM SpecObj WHERE mjd > 55000 AND z > 0.5",
			true,
		},
		{
			"SELECT plate FROM SpecObj WHERE z BETWEEN 0.5 AND 1.5",
			"SELECT plate FROM SpecObj WHERE z >= 0.5 AND z <= 1.5",
			true,
		},
		{
			"SELECT plate FROM SpecObj WHERE plate IN ( 1 , 2 )",
			"SELECT plate FROM SpecObj WHERE plate = 1 OR plate = 2",
			true,
		},
		{
			"SELECT plate FROM SpecObj WHERE NOT ( z <= 0.5 )",
			"SELECT plate FROM SpecObj WHERE z > 0.5",
			true,
		},
		{
			"SELECT DISTINCT plate , mjd FROM SpecObj",
			"SELECT plate , mjd FROM SpecObj GROUP BY plate , mjd",
			true,
		},
		{
			"WITH sub_q AS ( SELECT plate FROM SpecObj WHERE z > 0.5 ) SELECT * FROM sub_q",
			"SELECT plate FROM SpecObj WHERE z > 0.5",
			true,
		},
		{
			"SELECT plate FROM SpecObj WHERE z > 0.5",
			"SELECT plate FROM SpecObj WHERE 0.5 < z",
			true,
		},
		{
			"SELECT plate FROM SpecObj WHERE z > 0.5",
			"SELECT plate FROM SpecObj WHERE z > 5",
			false,
		},
		{
			"SELECT plate FROM SpecObj WHERE z > 0.5 AND mjd > 1",
			"SELECT plate FROM SpecObj WHERE z > 0.5 OR mjd > 1",
			false,
		},
		{
			"SELECT plate , AVG( z ) FROM SpecObj GROUP BY plate",
			"SELECT plate , SUM( z ) FROM SpecObj GROUP BY plate",
			false,
		},
	}
	for _, c := range cases {
		a, b := parse(t, c.a), parse(t, c.b)
		if got := RuleEquivalent(a, b); got != c.want {
			t.Errorf("RuleEquivalent(\n %s,\n %s) = %v, want %v\nnormA: %s\nnormB: %s",
				c.a, c.b, got, c.want, Normalize(a), Normalize(b))
		}
	}
}

func TestTypeLists(t *testing.T) {
	if len(EquivTypes()) != 10 {
		t.Errorf("EquivTypes = %d, want 10", len(EquivTypes()))
	}
	if len(NonEquivTypes()) != 8 {
		t.Errorf("NonEquivTypes = %d, want 8", len(NonEquivTypes()))
	}
	if !slices.Contains(EquivTypes(), CTEWrap) || slices.Contains(EquivTypes(), ValueChange) {
		t.Error("EquivTypes misclassifies CTEWrap or ValueChange")
	}
}

func TestCheckerReportsExecutionErrors(t *testing.T) {
	checker := sdssChecker()
	bad := parse(t, "SELECT nosuchcolumn FROM SpecObj")
	good := parse(t, "SELECT plate FROM SpecObj")
	if _, err := checker.Equivalent(bad, good); err == nil {
		t.Error("expected execution error for unknown column")
	}
}
