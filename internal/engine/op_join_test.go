package engine

import (
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
)

// The arena's blocks start at arenaFirstRows rows and double up to
// arenaBlockRows; every row it hands out is capacity-clipped, so appending to
// one row, across any block boundary, never writes into the next.
func TestRowArenaGrowth(t *testing.T) {
	const width = 3
	a := newRowArena(width)
	const count = 2*arenaBlockRows + arenaBlockRows/2
	var rows [][]Value
	var blocks []int // rows per block, in allocation order
	for i := 0; i < count; i++ {
		fresh := cap(a.buf)-len(a.buf) < width
		row := a.next()
		if fresh {
			blocks = append(blocks, cap(a.buf)/width)
		}
		if len(row) != width || cap(row) != width {
			t.Fatalf("row %d: len %d cap %d, want both %d", i, len(row), cap(row), width)
		}
		for j := range row {
			row[j] = IntVal(int64(i))
		}
		rows = append(rows, row)
	}
	var want []int
	for n, total := arenaFirstRows, 0; total < count; n = min(2*n, arenaBlockRows) {
		want = append(want, n)
		total += n
	}
	if !slices.Equal(blocks, want) {
		t.Errorf("block sizes = %v, want %v", blocks, want)
	}
	if blocks[0] > 8 {
		t.Errorf("first block holds %d rows; a one-row join should not pay for more than a few", blocks[0])
	}
	for i := 0; i+1 < len(rows); i++ {
		_ = append(rows[i], IntVal(-1))
		if got := rows[i+1][0]; got.I != int64(i+1) {
			t.Fatalf("append to row %d changed row %d: got %v", i, i+1, got)
		}
	}
}

// A zero-width arena hands out nil rows and allocates nothing.
func TestRowArenaZeroWidth(t *testing.T) {
	a := newRowArena(0)
	for i := 0; i < 3; i++ {
		if row := a.next(); row != nil {
			t.Fatalf("next() = %v, want nil", row)
		}
	}
	if row := a.concat(nil, nil); row != nil {
		t.Fatalf("concat(nil, nil) = %v, want nil", row)
	}
	if a.buf != nil {
		t.Errorf("zero-width arena allocated a block of cap %d", cap(a.buf))
	}
}

// Only LEFT and FULL joins pad the unmatched left row, and only RIGHT and
// FULL joins append the unmatched right row.
func TestHashJoinPadsOnlyOuterJoins(t *testing.T) {
	left := &Relation{
		Cols: []Col{{Name: "k", Type: catalog.TypeInt}},
		Rows: [][]Value{{IntVal(1)}, {IntVal(9)}},
	}
	right := &Relation{
		Cols: []Col{{Name: "k", Type: catalog.TypeInt}, {Name: "v", Type: catalog.TypeInt}},
		Rows: [][]Value{{IntVal(1), IntVal(2)}, {IntVal(5), IntVal(6)}},
	}
	e := New(NewDB())
	for jt, want := range map[string]int{"INNER": 1, "LEFT": 2, "RIGHT": 2, "FULL": 3} {
		out, err := e.hashJoin(left, right, 0, 0, jt, concatCols(left.Cols, right.Cols))
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Rows) != want {
			t.Errorf("%s join: %d rows out, want %d", jt, len(out.Rows), want)
		}
	}
}

// An implicit join over four relations, one of them reachable only by a cross
// product, grows the header of its steps in step order, returns its columns
// in FROM order (the order SELECT * reads), and leaves every input's header
// untouched, including the spare capacity of the first input's, which the
// growing header must not write into.
func TestImplicitJoinHeaderFollowsSteps(t *testing.T) {
	col := func(q, n string) Col { return Col{Qualifier: q, Name: n, Type: catalog.TypeInt} }
	ints := func(vs ...int64) []Value {
		row := make([]Value, len(vs))
		for i, v := range vs {
			row[i] = IntVal(v)
		}
		return row
	}
	aCols := make([]Col, 2, 8)
	aCols[0], aCols[1] = col("a", "id"), col("a", "x")
	rels := []*Relation{
		{Cols: aCols, Rows: [][]Value{ints(1, 10), ints(2, 20)}},
		{Cols: []Col{col("b", "c_id"), col("b", "y")}, Rows: [][]Value{ints(5, 50), ints(6, 60)}},
		{Cols: []Col{col("c", "id"), col("c", "a_id")}, Rows: [][]Value{ints(5, 1), ints(6, 2), ints(7, 2)}},
		{Cols: []Col{col("d", "w")}, Rows: [][]Value{ints(100), ints(200)}},
	}
	before := make([][]Col, len(rels))
	for i, rel := range rels {
		before[i] = slices.Clone(rel.Cols[:cap(rel.Cols)])
	}
	// c joins a first, then b joins c, and d connects to nothing.
	sel, err := sqlparse.ParseSelect("SELECT * FROM a , b , c , d WHERE c.a_id = a.id AND b.c_id = c.id")
	if err != nil {
		t.Fatal(err)
	}
	e := New(NewDB())
	steps, _ := e.planJoins(rels, sqlast.Flatten("AND", sel.Where))
	if got := []int{steps[0].target, steps[1].target, steps[2].target}; !slices.Equal(got, []int{2, 1, 3}) || steps[2].conj >= 0 {
		t.Fatalf("step targets = %v (last conj %d), want [2 1 3] ending in a cross product", got, steps[2].conj)
	}
	out, residual, err := e.orderImplicitJoins(rels, sel.Where)
	if err != nil {
		t.Fatal(err)
	}
	if residual != nil {
		t.Errorf("residual = %v, want none", residual)
	}
	if want := slices.Concat(rels[0].Cols, rels[2].Cols, rels[1].Cols, rels[3].Cols); !slices.Equal(steps[2].cols, want) {
		t.Errorf("sequence header = %v, want %v", steps[2].cols, want)
	}
	if want := slices.Concat(rels[0].Cols, rels[1].Cols, rels[2].Cols, rels[3].Cols); !slices.Equal(out.Cols, want) {
		t.Errorf("header = %v, want %v", out.Cols, want)
	}
	for i, rel := range rels {
		if got := rel.Cols[:cap(rel.Cols)]; !slices.Equal(got, before[i]) {
			t.Errorf("input %d header changed: %v, was %v", i, got, before[i])
		}
	}
	if &out.Cols[0] == &rels[0].Cols[0] {
		t.Error("the joined header aliases the first input's header")
	}
	// a⋈c matches (1,5), (2,6), (2,7); b matches c 5 and 6; d doubles it.
	wantRows := [][]Value{
		ints(1, 10, 5, 50, 5, 1, 100), ints(1, 10, 5, 50, 5, 1, 200),
		ints(2, 20, 6, 60, 6, 2, 100), ints(2, 20, 6, 60, 6, 2, 200),
	}
	if len(out.Rows) != len(wantRows) {
		t.Fatalf("got %d rows, want %d", len(out.Rows), len(wantRows))
	}
	for i, row := range out.Rows {
		if !slices.EqualFunc(row, wantRows[i], Equal) {
			t.Errorf("row %d = %v, want %v", i, row, wantRows[i])
		}
	}
}

// An ON clause that is a plain column equality takes the hash join; "AND 1
// = 1" keeps it from being one, so the same join takes the nested loop.
// Both must return the same rows in the same order, outer padding
// included, under every join flavor and beside a WHERE.
func TestForceNestedLoopFallbackParity(t *testing.T) {
	e := New(testDB())
	for _, jt := range []string{"JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL JOIN"} {
		for _, where := range []string{"", " WHERE e.salary > 75", " WHERE d.budget IS NULL OR e.salary NOT IN (80, NULL)"} {
			sql := "SELECT e.name, d.budget FROM emp e " + jt + " dept d ON e.dept = d.name"
			hash := formatted(t, e, sql+where)
			loop := formatted(t, e, sql+" AND 1 = 1"+where)
			if !slices.Equal(hash, loop) {
				t.Errorf("%s%s: hash join rows %v, nested loop rows %v", jt, where, hash, loop)
			}
		}
	}
}
