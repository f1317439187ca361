package engine

import (
	"strings"
	"testing"
)

// TestOpsPerQuery pins the exact row-operation count of one query per plan
// node kind over the engine test DB. The count is the engine's proxy for work
// done, and verification reports it per dataset; a change to how a node
// touches rows moves it here first, one node kind at a time.
func TestOpsPerQuery(t *testing.T) {
	for _, tc := range []struct {
		name string
		sql  string
		ops  int64
	}{
		{"scan+filter", "SELECT name FROM emp WHERE salary > 75", 8},
		{"hash join", "SELECT e.name, d.budget FROM emp e JOIN dept d ON e.dept = d.name", 12},
		{"left hash join", "SELECT e.name, d.budget FROM emp e LEFT JOIN dept d ON e.dept = d.name", 13},
		{"full hash join", "SELECT e.name, d.budget FROM emp e FULL JOIN dept d ON e.dept = d.name", 14},
		{"nested loop", "SELECT e.name, d.budget FROM emp e JOIN dept d ON e.salary * 5 > d.budget", 19},
		{"comma join residual", "SELECT e.name FROM emp e, dept d WHERE e.dept = d.name AND e.salary + d.budget > 600", 14},
		{"group by having", "SELECT dept, COUNT(*) AS c FROM emp GROUP BY dept HAVING COUNT(*) > 1", 5},
		{"distinct", "SELECT DISTINCT dept FROM emp", 5},
		{"union", "SELECT name FROM emp UNION SELECT name FROM dept", 16},
		{"order by limit", "SELECT name FROM emp ORDER BY salary DESC LIMIT 2", 5},
		{"correlated exists", "SELECT d.name FROM dept d WHERE EXISTS (SELECT 1 FROM emp e WHERE e.dept = d.name)", 24},
	} {
		e := New(testDB())
		if _, err := e.QuerySQL(tc.sql); err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := e.Ops(); got != tc.ops {
			t.Errorf("%s: %q touched %d rows, want %d", tc.name, tc.sql, got, tc.ops)
		}
	}
}

// TestErrorOrder pins which error a query raises when two of its parts
// fail. A node runs its inputs to completion, left before right, before it
// does its own work, so a join raises its left input's error, whether that
// comes from a derived table or from a hash join below that exceeds the row
// cap, a comma join raises any input's error before its first product, and a
// projection raises its input's error before it resolves a star
// qualifier, unless the input has no row to fail on.
func TestErrorOrder(t *testing.T) {
	for _, tc := range []struct {
		name, sql, want string
		maxRows         int
	}{
		{
			name: "join of failing derived tables",
			sql:  "SELECT * FROM (SELECT nosuch_l FROM emp) a JOIN (SELECT nosuch_r FROM dept) b ON a.x = b.y",
			want: "unknown column nosuch_l",
		},
		{
			name:    "join with the row cap exceeded on the left",
			sql:     "SELECT * FROM emp a JOIN emp b ON a.dept = b.dept JOIN (SELECT nosuch_r FROM dept) d ON a.id = d.x",
			want:    "join result exceeds row cap",
			maxRows: 5,
		},
		{
			name:    "projection over a join that exceeds the row cap",
			sql:     "SELECT q.* FROM emp a JOIN emp b ON a.dept = b.dept",
			want:    "join result exceeds row cap",
			maxRows: 5,
		},
		{
			name:    "comma join without WHERE over a failing derived table",
			sql:     "SELECT * FROM emp a, emp b, (SELECT nosuch_r FROM dept) d",
			want:    "unknown column nosuch_r",
			maxRows: 5,
		},
		{
			name: "projection over a failing filter",
			sql:  "SELECT q.* FROM emp e WHERE e.nosuch = 1",
			want: "unknown column e.nosuch",
		},
		{
			name: "projection over an empty input",
			sql:  "SELECT q.* FROM (SELECT * FROM emp WHERE 1 = 0) e WHERE e.nosuch = 1",
			want: `star qualifier "q" matches no table`,
		},
	} {
		e := New(testDB())
		e.MaxRows = tc.maxRows
		_, err := e.QuerySQL(tc.sql)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}
