package engine

import (
	"strings"
	"testing"
)

// TestGroupedEvaluation checks grouped expressions against hand-computed
// results on testDB. The groups of "GROUP BY dept", in first-appearance
// order, are eng (ann 100, bob 80), ops (cat 90, dan 70) and hr (eve, NULL
// salary). Aggregates nest under any expression form, three-valued logic
// is the same as in a row context, and a case with a nil want must fail
// because no group is in scope for its aggregate.
func TestGroupedEvaluation(t *testing.T) {
	for _, c := range []struct {
		name, sql string
		want      []string
	}{
		{"IN over an aggregate",
			"SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) IN (1, 3)",
			[]string{"hr"}},
		{"NOT IN over an aggregate",
			"SELECT dept, COUNT(*) NOT IN (1) FROM emp GROUP BY dept",
			[]string{"eng|true", "ops|true", "hr|false"}},
		{"BETWEEN over an aggregate",
			"SELECT dept FROM emp GROUP BY dept HAVING SUM(salary) BETWEEN 150 AND 170",
			[]string{"ops"}},
		{"IS NOT NULL over an aggregate",
			"SELECT dept FROM emp GROUP BY dept HAVING MAX(salary) IS NOT NULL",
			[]string{"eng", "ops"}},
		{"IS NULL over an aggregate of an empty global group",
			"SELECT COUNT(*), MAX(salary) IS NULL FROM emp WHERE id > 10",
			[]string{"0|true"}},
		{"CAST over an aggregate",
			"SELECT dept, CAST(AVG(salary) AS INT) FROM emp GROUP BY dept",
			[]string{"eng|90", "ops|80", "hr|NULL"}},
		{"NULL AND FALSE is FALSE",
			"SELECT dept, MAX(salary) > 0 AND COUNT(*) > 1 FROM emp GROUP BY dept",
			[]string{"eng|true", "ops|true", "hr|false"}},
		{"NOT keeps the group whose conjunction is FALSE",
			"SELECT dept FROM emp GROUP BY dept HAVING NOT (MAX(salary) > 0 AND COUNT(*) > 1)",
			[]string{"hr"}},
		{"searched CASE over aggregates",
			"SELECT dept, CASE WHEN SUM(salary) > 170 THEN 'big' WHEN COUNT(*) IN (1) THEN 'one' ELSE 'small' END FROM emp GROUP BY dept",
			[]string{"eng|big", "ops|small", "hr|one"}},
		{"simple CASE over an aggregate",
			"SELECT dept, CASE COUNT(*) WHEN 2 THEN 'pair' ELSE 'other' END FROM emp GROUP BY dept",
			[]string{"eng|pair", "ops|pair", "hr|other"}},
		{"scalar functions over aggregates",
			"SELECT dept, ROUND(AVG(salary) / 3), UPPER(MIN(name)), COALESCE(MAX(salary), -1) FROM emp GROUP BY dept",
			[]string{"eng|30|ANN|100", "ops|27|CAT|90", "hr|NULL|EVE|-1"}},
		{"arithmetic keeps a float aggregate float, so its zero negates to -0",
			"SELECT dept, -(SUM(salary) - SUM(salary)), COUNT(*) * 2 FROM emp GROUP BY dept HAVING COUNT(*) > 1",
			[]string{"eng|-0|4", "ops|-0|4"}},
		{"ORDER BY a projection alias",
			"SELECT dept, SUM(salary) AS total FROM emp GROUP BY dept ORDER BY total DESC",
			[]string{"eng|180", "ops|160", "hr|NULL"}},
		{"ORDER BY aggregates",
			"SELECT dept FROM emp GROUP BY dept ORDER BY COUNT(*) ASC, MIN(salary) DESC",
			[]string{"hr", "eng", "ops"}},
		{"ORDER BY a CASE over IS NULL of an aggregate",
			"SELECT dept FROM emp GROUP BY dept ORDER BY CASE WHEN MAX(salary) IS NULL THEN 0 ELSE 1 END, dept",
			[]string{"hr", "eng", "ops"}},
		// No group is in scope in WHERE, in another aggregate's argument,
		// or in a subquery, whose own rows are not the outer group.
		{"aggregate in WHERE",
			"SELECT dept FROM emp WHERE COUNT(*) > 1 GROUP BY dept",
			nil},
		{"aggregate nested in an aggregate",
			"SELECT SUM(COUNT(*)) FROM emp",
			nil},
		{"aggregate in a subquery of HAVING",
			"SELECT dept FROM emp GROUP BY dept HAVING EXISTS (SELECT 1 FROM dept WHERE budget > MAX(salary))",
			nil},
	} {
		rel, err := New(testDB()).QuerySQL(c.sql)
		if c.want == nil {
			if err == nil || !strings.Contains(err.Error(), "used outside grouping context") {
				t.Errorf("%s: %q: error %v, want an aggregate used outside grouping context", c.name, c.sql, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %q: %v", c.name, c.sql, err)
			continue
		}
		if got := rowStrings(rel); strings.Join(got, ";") != strings.Join(c.want, ";") {
			t.Errorf("%s: %q = %v, want %v", c.name, c.sql, got, c.want)
		}
	}
}
