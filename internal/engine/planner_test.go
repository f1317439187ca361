package engine_test

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/sqlparse"
)

func jobDB() *engine.DB {
	return datagen.Instance(catalog.IMDB(), datagen.Config{Seed: 42, Rows: 40})
}

// A JOB-style implicit join over several relations must run without
// materializing the cross product.
func TestPlannerHandlesImplicitJoins(t *testing.T) {
	e := engine.New(jobDB())
	e.MaxRows = 200_000 // would be exceeded instantly by a cross product
	sql := "SELECT MIN( t.title ) FROM title AS t , movie_companies AS mc , company_name AS cn , kind_type AS kt " +
		"WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND t.kind_id = kt.id AND t.production_year > 1950"
	if _, err := e.QuerySQL(sql); err != nil {
		t.Fatalf("planned query failed: %v", err)
	}
}

// The planned comma join agrees with the same query written as cross
// products plus a filter, run without the optimizer.
func TestPlannerMatchesCrossProductSemantics(t *testing.T) {
	db := datagen.Instance(catalog.IMDB(), datagen.Config{Seed: 7, Rows: 12})
	where := "WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND t.production_year > 1960"
	planned, err := engine.New(db).QuerySQL(
		"SELECT t.id , cn.name FROM title AS t , movie_companies AS mc , company_name AS cn " + where)
	if err != nil {
		t.Fatal(err)
	}
	unplanned, err := engine.NewUnoptimized(db).QuerySQL(
		"SELECT t.id , cn.name FROM title AS t CROSS JOIN movie_companies AS mc CROSS JOIN company_name AS cn " + where)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.EqualRelations(planned, unplanned, false) {
		t.Errorf("planner changed semantics: %d vs %d rows", len(planned.Rows), len(unplanned.Rows))
	}
}

// Residual predicates (non-join conjuncts) still filter.
func TestPlannerKeepsResidualFilters(t *testing.T) {
	db := jobDB()
	e := engine.New(db)
	all, err := e.QuerySQL("SELECT t.id FROM title AS t , kind_type AS kt WHERE t.kind_id = kt.id")
	if err != nil {
		t.Fatal(err)
	}
	some, err := e.QuerySQL("SELECT t.id FROM title AS t , kind_type AS kt WHERE t.kind_id = kt.id AND t.production_year > 1975")
	if err != nil {
		t.Fatal(err)
	}
	if len(some.Rows) >= len(all.Rows) {
		t.Errorf("residual filter had no effect: %d >= %d", len(some.Rows), len(all.Rows))
	}
}

// The logical plan mirrors the paper pipeline: scan → join → filter →
// group → distinct → set-op → sort → limit.
func TestLogicalPlanShape(t *testing.T) {
	sel, err := sqlparse.ParseSelect(
		"SELECT kind_id , COUNT(*) FROM title WHERE production_year > 1950 " +
			"GROUP BY kind_id HAVING COUNT(*) > 2 ORDER BY kind_id ASC LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	plan := engine.New(jobDB()).PlanOf(sel)
	got := plan.String()
	for _, line := range []string{"Limit", "Sort", "GroupAggregate", "Filter", "Scan title"} {
		if !strings.Contains(got, line) {
			t.Errorf("plan missing %q:\n%s", line, got)
		}
	}
	// Node order: limit above sort above group above filter above scan.
	order := []string{"Limit", "Sort", "GroupAggregate", "Filter", "Scan"}
	last := -1
	for _, label := range order {
		i := strings.Index(got, label)
		if i < last {
			t.Fatalf("plan nodes out of order (%s):\n%s", label, got)
		}
		last = i
	}

	sel, err = sqlparse.ParseSelect(
		"SELECT id FROM title UNION SELECT movie_id FROM movie_companies ORDER BY id DESC")
	if err != nil {
		t.Fatal(err)
	}
	got = engine.New(jobDB()).PlanOf(sel).String()
	for _, line := range []string{"Sort", "UNION", "Project"} {
		if !strings.Contains(got, line) {
			t.Errorf("set-op plan missing %q:\n%s", line, got)
		}
	}
	if strings.Index(got, "Sort") > strings.Index(got, "UNION") {
		t.Errorf("ORDER BY after a set operation must sort above the set op:\n%s", got)
	}

	// Comma joins plan as an implicit-join node carrying the WHERE clause;
	// the greedy ordering happens at execution.
	sel, err = sqlparse.ParseSelect(
		"SELECT t.id FROM title AS t , movie_companies AS mc WHERE t.id = mc.movie_id")
	if err != nil {
		t.Fatal(err)
	}
	got = engine.New(jobDB()).PlanOf(sel).String()
	if !strings.Contains(got, "ImplicitJoin (2 inputs)") {
		t.Errorf("comma join did not plan as ImplicitJoin:\n%s", got)
	}
}

// Disconnected relations (no join predicate) still cross-product.
func TestPlannerFallsBackToCross(t *testing.T) {
	db := datagen.Instance(catalog.IMDB(), datagen.Config{Seed: 3, Rows: 5})
	e := engine.New(db)
	rel, err := e.QuerySQL("SELECT t.id FROM title AS t , keyword AS k WHERE t.production_year > 0 AND k.keyword LIKE '%a%'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) == 0 {
		t.Log("cross product yielded zero rows (acceptable if filters pruned everything)")
	}
}
