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
// products plus a filter.
func TestPlannerMatchesCrossProductSemantics(t *testing.T) {
	db := datagen.Instance(catalog.IMDB(), datagen.Config{Seed: 7, Rows: 12})
	where := "WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND t.production_year > 1960"
	planned, err := engine.New(db).QuerySQL(
		"SELECT t.id , cn.name FROM title AS t , movie_companies AS mc , company_name AS cn " + where)
	if err != nil {
		t.Fatal(err)
	}
	unplanned, err := engine.New(db).QuerySQL(
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

// TestExplainGolden pins the plan the engine executes, as -explain-plan
// prints it, for an explicit join, comma joins and a derived table. Every
// filter stays where BuildPlan puts it.
func TestExplainGolden(t *testing.T) {
	cases := []struct {
		name, sql string
		want      []string
	}{{
		name: "join",
		sql:  "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name WHERE e.salary > 75 AND d.budget >= 500",
		want: []string{
			"Project (1 items, 0 order keys)",
			"  Filter e.salary > 75 AND d.budget >= 500",
			"    INNER Join ON e.dept = d.name",
			"      Scan emp AS e",
			"      Scan dept AS d",
			"",
		},
	}, {
		name: "comma join",
		sql:  "SELECT e.name FROM emp e, dept d WHERE e.dept = d.name AND e.salary > 75",
		want: []string{
			"Project (1 items, 0 order keys)",
			"  ImplicitJoin (2 inputs) WHERE e.dept = d.name AND e.salary > 75",
			"    Scan emp AS e",
			"    Scan dept AS d",
			"",
		},
	}, {
		name: "comma join over a join",
		sql:  "SELECT e.name, f.name FROM emp e JOIN dept d ON e.dept = d.name, emp f WHERE e.id = f.id AND e.salary < d.budget",
		want: []string{
			"Project (2 items, 0 order keys)",
			"  ImplicitJoin (2 inputs) WHERE e.id = f.id AND e.salary < d.budget",
			"    INNER Join ON e.dept = d.name",
			"      Scan emp AS e",
			"      Scan dept AS d",
			"    Scan emp AS f",
			"",
		},
	}, {
		// A comma join without WHERE is the same node with no conjuncts.
		name: "comma join without where",
		sql:  "SELECT e.name FROM emp e, dept d",
		want: []string{
			"Project (1 items, 0 order keys)",
			"  ImplicitJoin (2 inputs)",
			"    Scan emp AS e",
			"    Scan dept AS d",
			"",
		},
	}, {
		name: "derived table",
		sql:  "SELECT t.name FROM (SELECT name, salary FROM emp) AS t WHERE t.salary > 75",
		want: []string{
			"Project (1 items, 0 order keys)",
			"  Filter t.salary > 75",
			"    SubqueryScan AS t",
			"      Project (2 items, 0 order keys)",
			"        Scan emp",
			"",
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sel, err := sqlparse.ParseSelect(tc.sql)
			if err != nil {
				t.Fatalf("parse %q: %v", tc.sql, err)
			}
			if got, want := engine.BuildPlan(sel).String(), strings.Join(tc.want, "\n"); got != want {
				t.Errorf("plan:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
