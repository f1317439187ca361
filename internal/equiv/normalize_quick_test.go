package equiv

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sqlast"
	"repro/internal/sqlparse"
)

// Property: Normalize is idempotent — normalizing an already-normalized
// query changes nothing — over a large population of random ASTs.
func TestNormalizeIdempotentRandom(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 300; i++ {
		sel := sqlast.RandSelect(r)
		once := Normalize(sel)
		reparsed, err := sqlparse.ParseSelect(once)
		if err != nil {
			t.Fatalf("iteration %d: normalized form does not parse: %v\n%s", i, err, once)
		}
		twice := Normalize(reparsed)
		if once != twice {
			t.Fatalf("iteration %d: Normalize not idempotent:\n once: %s\ntwice: %s", i, once, twice)
		}
	}
}

// Property: Normalize never changes query semantics — the original and the
// normalized form are empirically equivalent on the engine.
func TestNormalizePreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	checker := sdssChecker()
	queries := []string{
		"SELECT plate FROM SpecObj WHERE z BETWEEN 0.5 AND 1.5 AND plate IN ( 1 , 2 , 3 )",
		"SELECT plate FROM SpecObj WHERE NOT ( z <= 0.5 ) AND mjd > 55000",
		"SELECT DISTINCT plate , mjd FROM SpecObj WHERE class = 'GALAXY'",
		"SELECT s.plate , p.ra FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = p.objid WHERE p.dec > 0",
		"WITH sub_q AS ( SELECT plate FROM SpecObj WHERE z > 1 ) SELECT * FROM sub_q",
	}
	for _, sql := range queries {
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		normalized, err := sqlparse.ParseSelect(Normalize(sel))
		if err != nil {
			t.Fatalf("normalized form of %q does not parse: %v", sql, err)
		}
		equal, err := checker.Equivalent(sel, normalized)
		if err != nil {
			t.Fatalf("executing %q: %v", sql, err)
		}
		if !equal {
			t.Errorf("Normalize changed semantics of %q ->\n%s", sql, Normalize(sel))
		}
	}
	_ = r
}

// Property: rule equivalence is symmetric.
func TestRuleEquivalentSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 150; i++ {
		a := sqlast.RandSelect(r)
		b := sqlast.RandSelect(r)
		if RuleEquivalent(a, b) != RuleEquivalent(b, a) {
			t.Fatalf("asymmetric rule equivalence:\nA: %s\nB: %s", sqlast.Print(a), sqlast.Print(b))
		}
		// Self-equivalence must always hold.
		if !RuleEquivalent(a, a) {
			t.Fatalf("self-equivalence failed for %s", sqlast.Print(a))
		}
	}
}

// Property: every equivalence transformation yields a pair the classifier
// maps to *some* type and Similarity stays within [0,1].
func TestSimilarityBoundsAndClassifier(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	base := "SELECT s.plate FROM SpecObj AS s JOIN PlateX AS px ON s.plate = px.plate WHERE s.z > 0.5 AND s.mjd BETWEEN 50000 AND 58000 AND s.plate IN ( 1 , 2 )"
	sel, err := sqlparse.ParseSelect(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range append(EquivTypes(), NonEquivTypes()...) {
		out, ok := Transform(sel, typ, r)
		if !ok {
			continue
		}
		if got := ClassifyPair(sel, out); got == "" {
			t.Errorf("ClassifyPair returned empty for %s", typ)
		}
	}
	if added, removed := DiffStats(base, base); added != 0 || removed != 0 {
		t.Errorf("self-diff = +%d -%d, want none", added, removed)
	}
}

// DiffStats must be symmetric under operand swap (added/removed exchange).
func TestDiffStatsSymmetry(t *testing.T) {
	a := "SELECT plate FROM SpecObj WHERE z > 0.5"
	b := "SELECT plate , mjd FROM SpecObj"
	add1, rem1 := DiffStats(a, b)
	add2, rem2 := DiffStats(b, a)
	if add1 != rem2 || rem1 != add2 {
		t.Errorf("DiffStats not symmetric: (%d,%d) vs (%d,%d)", add1, rem1, add2, rem2)
	}
	if add, rem := DiffStats(a, a); add != 0 || rem != 0 {
		t.Errorf("self diff = (%d,%d)", add, rem)
	}
}

// Property: sortByPrint leaves exactly the order that sort.Slice leaves with
// a comparator printing both operands, equal keys included (clones of one
// expression, the same expression twice, and equal expressions built apart:
// column names are narrowed to three), over lists of random expressions long
// enough to take the sort past insertion sort.
func TestSortByPrintMatchesPrintComparator(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	narrow := map[string]string{"id": "a", "qty": "b", "price": "c", "name": "a"}
	var pool []sqlast.Expr
	for len(pool) < 400 {
		sel := sqlast.RandSelect(r)
		sqlast.Walk(sel, func(n sqlast.Node) bool {
			if c, ok := n.(*sqlast.ColumnRef); ok && narrow[c.Name] != "" {
				c.Name = narrow[c.Name]
			}
			if e, ok := n.(sqlast.Expr); ok {
				pool = append(pool, e)
			}
			return true
		})
	}
	for i := 0; i < 500; i++ {
		exprs := make([]sqlast.Expr, r.Intn(80))
		for j := range exprs {
			e := pool[r.Intn(len(pool))]
			if r.Intn(4) == 0 {
				e = sqlast.CloneExpr(e)
			}
			exprs[j] = e
		}
		want := append([]sqlast.Expr(nil), exprs...)
		sort.Slice(want, func(a, b int) bool {
			return sqlast.PrintExpr(want[a]) < sqlast.PrintExpr(want[b])
		})
		sortByPrint(exprs)
		for j := range exprs {
			if exprs[j] != want[j] {
				t.Fatalf("list %d (%d exprs): position %d holds %s (%p), want %s (%p)", i, len(exprs), j,
					sqlast.PrintExpr(exprs[j]), exprs[j], sqlast.PrintExpr(want[j]), want[j])
			}
		}
	}
}
