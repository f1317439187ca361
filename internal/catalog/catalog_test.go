package catalog

import "testing"

func TestTypeComparable(t *testing.T) {
	cases := []struct {
		a, b Type
		want bool
	}{
		{TypeInt, TypeInt, true},
		{TypeInt, TypeFloat, true},
		{TypeFloat, TypeInt, true},
		{TypeInt, TypeText, false},
		{TypeText, TypeText, true},
		{TypeAny, TypeText, true},
		{TypeBool, TypeInt, false},
		{TypeBool, TypeAny, true},
	}
	for _, c := range cases {
		if got := Comparable(c.a, c.b); got != c.want {
			t.Errorf("Comparable(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestTypeString(t *testing.T) {
	if TypeFloat.String() != "float" || TypeAny.String() != "any" {
		t.Error("type names wrong")
	}
	if !TypeInt.Numeric() || TypeText.Numeric() {
		t.Error("Numeric wrong")
	}
}

func TestSchemaLookup(t *testing.T) {
	s := SDSS()
	for _, name := range []string{"SpecObj", "specobj", "SPECOBJ", "dbo.SpecObj"} {
		if _, ok := s.Table(name); !ok {
			t.Errorf("Table(%q) not found", name)
		}
	}
	if _, ok := s.Table("NoSuch"); ok {
		t.Error("found nonexistent table")
	}
}

func TestColumnLookup(t *testing.T) {
	s := SDSS()
	tab, _ := s.Table("SpecObj")
	c, ok := tab.Column("PLATE")
	if !ok || c.Type != TypeInt {
		t.Errorf("Column(PLATE) = %+v, %v", c, ok)
	}
	if _, ok := tab.Column("nope"); ok {
		t.Error("found nonexistent column")
	}
}

func TestBareName(t *testing.T) {
	if BareName("dbo.SpecObj") != "SpecObj" {
		t.Error("BareName failed for qualified")
	}
	if BareName("SpecObj") != "SpecObj" {
		t.Error("BareName failed for bare")
	}
	if BareName("a.b.c") != "c" {
		t.Error("BareName failed for deep")
	}
}

func TestSchemaFamilies(t *testing.T) {
	if got := len(SDSS().Tables()); got < 6 {
		t.Errorf("SDSS tables = %d, want >= 6", got)
	}
	if got := len(IMDB().Tables()); got != 21 {
		t.Errorf("IMDB tables = %d, want 21 (JOB schema)", got)
	}
	if got := len(SQLShareSchemas()); got < 3 {
		t.Errorf("SQLShare schemas = %d, want >= 3", got)
	}
	if got := len(SpiderSchemas()); got < 5 {
		t.Errorf("Spider schemas = %d, want >= 5", got)
	}
}

func TestSpiderCaseStudyTables(t *testing.T) {
	// The tables from the paper's Q15-Q18 must exist.
	schemas := SpiderSchemas()
	merged := Merged("spider", schemas...)
	for _, name := range []string{"tryout", "Transcript_Cnt", "concert", "stadium", "CARS_DATA", "CAR_NAMES"} {
		if _, ok := merged.Table(name); !ok {
			t.Errorf("case-study table %q missing", name)
		}
	}
}

func TestMergedCollisions(t *testing.T) {
	a := NewSchema("a")
	a.Add(T("x", "c1", TypeInt))
	b := NewSchema("b")
	b.Add(T("x", "c2", TypeText))
	m := Merged("m", a, b)
	tab, ok := m.Table("x")
	if !ok {
		t.Fatal("merged table missing")
	}
	if _, ok := tab.Column("c2"); !ok {
		t.Error("later schema should win collision")
	}
	if len(m.Tables()) != 1 {
		t.Errorf("merged tables = %d, want 1", len(m.Tables()))
	}
}

func TestAddReplaces(t *testing.T) {
	s := NewSchema("s")
	s.Add(T("t", "a", TypeInt))
	s.Add(T("t", "b", TypeText))
	if len(s.Tables()) != 1 {
		t.Fatalf("tables = %d", len(s.Tables()))
	}
	tab, _ := s.Table("t")
	if _, ok := tab.Column("b"); !ok {
		t.Error("replacement did not take effect")
	}
}
