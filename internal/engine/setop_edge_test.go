package engine

// Set-operation edge cases: NULL rows, ALL multiplicities, width mismatches
// and ORDER BY after a set operation.

import (
	"strings"
	"testing"

	"repro/internal/catalog"
)

// setOpDB builds two tables with overlapping values, duplicates, and NULL
// rows on both sides.
func setOpDB() *DB {
	schema := catalog.NewSchema("setops")
	schema.Add(catalog.T("a", "x", catalog.TypeInt, "y", catalog.TypeText))
	schema.Add(catalog.T("b", "x", catalog.TypeInt, "y", catalog.TypeText))
	db := NewDB()
	cols := []Col{{Name: "x", Type: catalog.TypeInt}, {Name: "y", Type: catalog.TypeText}}
	db.Put("a", &Relation{Cols: cols, Rows: [][]Value{
		{IntVal(1), TextVal("one")},
		{NullValue, TextVal("null-x")},
		{IntVal(2), TextVal("two")},
		{IntVal(2), TextVal("two")}, // duplicate
		{NullValue, NullValue},      // all-NULL row
		{IntVal(3), TextVal("three")},
		{NullValue, NullValue}, // duplicate all-NULL row
	}})
	db.Put("b", &Relation{Cols: cols, Rows: [][]Value{
		{IntVal(2), TextVal("two")},
		{NullValue, NullValue}, // all-NULL row on the right too
		{IntVal(4), TextVal("four")},
		{NullValue, TextVal("null-x")},
	}})
	return db
}

// query runs sql on a fresh engine over db and fails the test on error.
func query(t *testing.T, db *DB, sql string) *Relation {
	t.Helper()
	rel, err := New(db).QuerySQL(sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	return rel
}

// formattedRows renders each row of rel in FormatRow's tuple form.
func formattedRows(rel *Relation) []string {
	out := make([]string, len(rel.Rows))
	for i, row := range rel.Rows {
		out[i] = FormatRow(row)
	}
	return out
}

func TestIntersectWithNullRows(t *testing.T) {
	rel := query(t, setOpDB(), "SELECT x , y FROM a INTERSECT SELECT x , y FROM b")
	got := formattedRows(rel)
	// Set operations treat NULLs as equal (unlike = comparison), so the
	// all-NULL row and (2, two) intersect; first-occurrence order of a.
	want := []string{"( NULL , 'null-x' )", "( 2 , 'two' )", "( NULL , NULL )"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("INTERSECT rows = %q, want %q", got, want)
	}
}

func TestExceptWithNullRows(t *testing.T) {
	rel := query(t, setOpDB(), "SELECT x , y FROM a EXCEPT SELECT x , y FROM b")
	got := formattedRows(rel)
	want := []string{"( 1 , 'one' )", "( 3 , 'three' )"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("EXCEPT rows = %q, want %q", got, want)
	}
	// EXCEPT ALL consumes right-side multiplicities: the second all-NULL
	// left row survives because b has only one.
	rel = query(t, setOpDB(), "SELECT x , y FROM a EXCEPT ALL SELECT x , y FROM b")
	got = formattedRows(rel)
	want = []string{"( 1 , 'one' )", "( 2 , 'two' )", "( 3 , 'three' )", "( NULL , NULL )"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("EXCEPT ALL rows = %q, want %q", got, want)
	}
}

func TestUnionWithNullRowsDeduplicates(t *testing.T) {
	rel := query(t, setOpDB(), "SELECT x , y FROM a UNION SELECT x , y FROM b")
	got := formattedRows(rel)
	want := []string{
		"( 1 , 'one' )", "( NULL , 'null-x' )", "( 2 , 'two' )", "( NULL , NULL )", "( 3 , 'three' )", "( 4 , 'four' )",
	}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("UNION rows = %q, want %q", got, want)
	}
	rel = query(t, setOpDB(), "SELECT x , y FROM a UNION ALL SELECT x , y FROM b")
	if len(rel.Rows) != 11 {
		t.Errorf("UNION ALL rows = %d, want 11", len(rel.Rows))
	}
}

func TestUnionColumnCountMismatchErrors(t *testing.T) {
	e := New(setOpDB())
	for _, sql := range []string{
		"SELECT x , y FROM a UNION SELECT x FROM b",
		"SELECT x FROM a INTERSECT SELECT x , y FROM b",
		"SELECT x , y FROM a EXCEPT SELECT y FROM b",
	} {
		_, err := e.QuerySQL(sql)
		if err == nil {
			t.Errorf("%q should fail on width mismatch", sql)
			continue
		}
		if !strings.Contains(err.Error(), "different widths") {
			t.Errorf("%q error = %v, want width mismatch", sql, err)
		}
	}
}

func TestOrderByAfterSetOps(t *testing.T) {
	rel := query(t, setOpDB(),
		"SELECT x FROM a UNION SELECT x FROM b ORDER BY x DESC")
	got := formattedRows(rel)
	// NULLs sort first, so descending puts them last.
	want := []string{"( 4 )", "( 3 )", "( 2 )", "( 1 )", "( NULL )"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("ORDER BY after UNION = %q, want %q", got, want)
	}
	rel = query(t, setOpDB(),
		"SELECT x , y FROM a INTERSECT SELECT x , y FROM b ORDER BY y ASC")
	got = formattedRows(rel)
	want = []string{"( NULL , NULL )", "( NULL , 'null-x' )", "( 2 , 'two' )"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("ORDER BY after INTERSECT = %q, want %q", got, want)
	}
	// ORDER BY must resolve against the set operation's output columns, not
	// the left block's scan scope.
	e := New(setOpDB())
	if _, err := e.QuerySQL("SELECT x FROM a UNION SELECT x FROM b ORDER BY y ASC"); err == nil {
		t.Error("ORDER BY on a non-output column after UNION should fail")
	}
}

// LIKE regression: the recursive matcher was exponential on patterns
// alternating % with literals; the iterative matcher must answer instantly.
func TestLikePathologicalPattern(t *testing.T) {
	s := strings.Repeat("a", 64)
	evil := strings.Repeat("%a", 24) + "%b" // never matches
	if likeMatch(s, evil) {
		t.Error("pathological pattern should not match")
	}
	if !likeMatch(s+"b", evil) {
		t.Error("pathological pattern should match when the tail is present")
	}
	// Semantics spot-checks against the old matcher's behavior.
	cases := []struct {
		s, p string
		want bool
	}{
		{"", "", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "abc", true},
		{"abc", "ABC", true}, // case-insensitive
		{"abc", "a%", true},
		{"abc", "%c", true},
		{"abc", "%b%", true},
		{"abc", "_b_", true},
		{"abc", "a_c", true},
		{"abc", "a__d", false},
		{"abc", "%%%", true},
		{"aaa", "a%a", true},
		{"ab", "b%a", false},
		{"mississippi", "%iss%ppi", true},
		{"mississippi", "%iss%ippi%", true},
		{"mississippi", "m%i%s%p_", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}
