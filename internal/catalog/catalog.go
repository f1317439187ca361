// Package catalog defines the database schemas the benchmark workloads run
// against: a faithful replica of the SDSS astronomical schema, the IMDB
// schema used by the Join-Order Benchmark, a family of small multi-tenant
// SQLShare schemas, and Spider-style cross-domain schemas. The semantic
// checker and the execution engine resolve names and types against these.
package catalog

import "strings"

// Type is a column type.
type Type int

// Column types. TypeAny matches anything and is used for expressions whose
// type cannot be inferred.
const (
	TypeAny Type = iota
	TypeInt
	TypeFloat
	TypeText
	TypeBool
)

var typeNames = map[Type]string{
	TypeAny:   "any",
	TypeInt:   "int",
	TypeFloat: "float",
	TypeText:  "text",
	TypeBool:  "bool",
}

// String returns the lowercase type name.
func (t Type) String() string { return typeNames[t] }

// Numeric reports whether the type is int or float.
func (t Type) Numeric() bool { return t == TypeInt || t == TypeFloat }

// Comparable reports whether values of types a and b may be compared without
// a type error. TypeAny is comparable with everything; numerics compare with
// numerics.
func Comparable(a, b Type) bool {
	if a == TypeAny || b == TypeAny {
		return true
	}
	if a == b {
		return true
	}
	return a.Numeric() && b.Numeric()
}

// Column is a named, typed column.
type Column struct {
	Name string
	Type Type
}

// Table is a named relation with ordered columns.
type Table struct {
	Name    string
	Columns []Column
}

// Column returns the column with the given name (case-insensitive).
func (t *Table) Column(name string) (Column, bool) {
	for _, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return c, true
		}
	}
	return Column{}, false
}

// Schema is a set of tables.
type Schema struct {
	Name   string
	tables map[string]*Table // keyed by lowercase bare name
	order  []string
}

// NewSchema returns an empty schema.
func NewSchema(name string) *Schema {
	return &Schema{Name: name, tables: make(map[string]*Table)}
}

// Add registers a table; later additions with the same name replace earlier
// ones.
func (s *Schema) Add(t *Table) {
	key := strings.ToLower(t.Name)
	if _, exists := s.tables[key]; !exists {
		s.order = append(s.order, key)
	}
	s.tables[key] = t
}

// Table resolves a possibly schema-qualified table name (dbo.SpecObj resolves
// to SpecObj), case-insensitively.
func (s *Schema) Table(name string) (*Table, bool) {
	key := strings.ToLower(BareName(name))
	t, ok := s.tables[key]
	return t, ok
}

// Tables returns all tables in insertion order.
func (s *Schema) Tables() []*Table {
	out := make([]*Table, 0, len(s.order))
	for _, k := range s.order {
		out = append(out, s.tables[k])
	}
	return out
}

// BareName strips any schema qualifier from a table name.
func BareName(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// T is a convenience constructor for tables. Arguments alternate name, type:
// T("SpecObj", "plate", TypeInt, "z", TypeFloat).
func T(name string, pairs ...any) *Table {
	t := &Table{Name: name}
	for i := 0; i+1 < len(pairs); i += 2 {
		t.Columns = append(t.Columns, Column{Name: pairs[i].(string), Type: pairs[i+1].(Type)})
	}
	return t
}
