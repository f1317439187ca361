package engine

// Equality end to end: the hash join, the nested loop and every keyed
// operator agree with Equal over the edge values of value_quick_test.go.

import (
	"slices"
	"testing"

	"repro/internal/catalog"
)

// edgeDB holds vals twice: a(i, x) in order and b(j, y) in reverse, each
// row numbered by the value's position in vals.
func edgeDB(vals []Value) *DB {
	schema := catalog.NewSchema("edges")
	schema.Add(catalog.T("a", "i", catalog.TypeInt, "x", catalog.TypeAny))
	schema.Add(catalog.T("b", "j", catalog.TypeInt, "y", catalog.TypeAny))
	db := NewDB()
	var a, b [][]Value
	for i, v := range vals {
		a = append(a, []Value{IntVal(int64(i)), v})
		b = append(b, []Value{IntVal(int64(len(vals) - 1 - i)), vals[len(vals)-1-i]})
	}
	db.Put("a", &Relation{Cols: []Col{{Name: "i", Type: catalog.TypeInt}, {Name: "x"}}, Rows: a})
	db.Put("b", &Relation{Cols: []Col{{Name: "j", Type: catalog.TypeInt}, {Name: "y"}}, Rows: b})
	return db
}

// formatted runs sql and renders its rows with FormatRow.
func formatted(t *testing.T, e *Engine, sql string) []string {
	t.Helper()
	rel, err := e.QuerySQL(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return formattedRows(rel)
}

// Every join type returns the same rows in the same order through the hash
// join (ON a plain column equality, or a comma-join step) as through the
// nested loop (the same ON with AND 1 = 1), and the nested loop matches
// exactly the pairs Equal admits: over all edge values, and over the edge
// values of one kind, whose key columns hold that kind alone.
func TestJoinParityOverEdgeValues(t *testing.T) {
	sets := map[string][]Value{"all": edgeValues}
	for _, v := range edgeValues {
		if !v.Null {
			sets[v.Kind.String()] = append(sets[v.Kind.String()], v)
		}
	}
	for name, vals := range sets {
		e := New(edgeDB(vals))
		var pairs int
		for _, x := range vals {
			for _, y := range vals {
				if Equal(x, y) {
					pairs++
				}
			}
		}
		for _, jt := range []string{"JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL JOIN"} {
			hash := formatted(t, e, "SELECT a.i , b.j FROM a "+jt+" b ON a.x = b.y")
			loop := formatted(t, e, "SELECT a.i , b.j FROM a "+jt+" b ON a.x = b.y AND 1 = 1")
			if !slices.Equal(hash, loop) {
				t.Errorf("%s values, %s: hash join rows %v, nested loop rows %v", name, jt, hash, loop)
			}
			if jt == "JOIN" && len(loop) != pairs {
				t.Errorf("%s values, inner join: %d rows, want the %d pairs that are Equal", name, len(loop), pairs)
			}
		}
		comma := formatted(t, e, "SELECT a.i , b.j FROM a , b WHERE a.x = b.y")
		if loop := formatted(t, e, "SELECT a.i , b.j FROM a JOIN b ON a.x = b.y AND 1 = 1"); !slices.Equal(comma, loop) {
			t.Errorf("%s values: comma join rows %v, nested loop rows %v", name, comma, loop)
		}
	}
}

// Distinct ints past 2^53 round to one float64; they must stay distinct in
// comparisons and in both join paths.
func TestIntsPast2To53StayDistinct(t *testing.T) {
	schema := catalog.NewSchema("big")
	schema.Add(catalog.T("a", "i", catalog.TypeInt))
	schema.Add(catalog.T("b", "j", catalog.TypeInt))
	db := NewDB()
	db.Put("a", &Relation{Cols: []Col{{Name: "i", Type: catalog.TypeInt}}, Rows: [][]Value{{IntVal(9007199254740992)}}})
	db.Put("b", &Relation{Cols: []Col{{Name: "j", Type: catalog.TypeInt}}, Rows: [][]Value{{IntVal(9007199254740993)}}})
	for _, tc := range []struct {
		sql  string
		want int
	}{
		{"SELECT a.i , b.j FROM a JOIN b ON a.i = b.j", 0},
		{"SELECT a.i , b.j FROM a JOIN b ON a.i = b.j AND 1 = 1", 0},
		{"SELECT a.i FROM a WHERE a.i = 9007199254740993", 0},
		{"SELECT a.i FROM a WHERE a.i < 9007199254740993", 1},
		{"SELECT a.i FROM a WHERE a.i = 9007199254740992", 1},
		{"SELECT x FROM (SELECT i AS x FROM a UNION SELECT j FROM b) t", 2},
	} {
		if got := formatted(t, New(db), tc.sql); len(got) != tc.want {
			t.Errorf("%s: rows %v, want %d", tc.sql, got, tc.want)
		}
	}
}

// Text holding a byte that some row encoding uses as a separator or a NULL
// marker must not make two different rows one: DISTINCT, set operations,
// GROUP BY and EqualRelations all keep them apart.
func TestRowKeysKeepSeparatorTextApart(t *testing.T) {
	schema := catalog.NewSchema("sep")
	schema.Add(catalog.T("p", "x", catalog.TypeText, "y", catalog.TypeText))
	schema.Add(catalog.T("q", "z", catalog.TypeText))
	db := NewDB()
	db.Put("p", &Relation{
		Cols: []Col{{Name: "x", Type: catalog.TypeText}, {Name: "y", Type: catalog.TypeText}},
		Rows: [][]Value{{TextVal("a\x1f"), TextVal("b")}, {TextVal("a"), TextVal("\x1fb")}},
	})
	db.Put("q", &Relation{
		Cols: []Col{{Name: "z", Type: catalog.TypeText}},
		Rows: [][]Value{{NullValue}, {TextVal("\x00N")}, {TextVal("\x00")}},
	})
	for _, tc := range []struct {
		sql  string
		want int
	}{
		{"SELECT DISTINCT x , y FROM p", 2},
		{"SELECT x , y FROM p UNION SELECT x , y FROM p", 2},
		{"SELECT x , y , COUNT(*) FROM p GROUP BY x , y", 2},
		{"SELECT DISTINCT z FROM q", 3},
		{"SELECT z FROM q INTERSECT SELECT z FROM q WHERE z IS NULL", 1},
	} {
		if got := formatted(t, New(db), tc.sql); len(got) != tc.want {
			t.Errorf("%s: rows %q, want %d", tc.sql, got, tc.want)
		}
	}
	p, _ := db.Table("p")
	swapped := &Relation{Cols: p.Cols, Rows: [][]Value{p.Rows[0], p.Rows[0]}}
	if EqualRelations(p, swapped, false) {
		t.Error("EqualRelations treats the rows (a\\x1f, b) and (a, \\x1fb) as one")
	}
	q, _ := db.Table("q")
	nulls := &Relation{Cols: q.Cols, Rows: [][]Value{{NullValue}, {NullValue}, {TextVal("\x00")}}}
	if EqualRelations(q, nulls, true) {
		t.Error("EqualRelations treats NULL and the text \\x00N as one value")
	}
}

// COUNT(DISTINCT) counts the values Equal tells apart: 1000000 and 1e6 are
// one value, and so are 0 and -0.
func TestCountDistinctFollowsEqual(t *testing.T) {
	sql := "SELECT COUNT(DISTINCT x) FROM (SELECT i AS x FROM a UNION ALL SELECT f FROM b) t"
	if got := formatted(t, New(numKeysDB()), sql); !slices.Equal(got, []string{"( 2 )"}) {
		t.Errorf("%s = %v, want ( 2 )", sql, got)
	}
}
