// Package engine implements an in-memory relational query executor over the
// catalog schemas: scans, filters, nested-loop and hash joins, grouped
// aggregation, HAVING, ORDER BY, DISTINCT, TOP/LIMIT, scalar/IN/EXISTS
// subqueries, CTEs, and set operations. It also provides a plan cost model
// that estimates elapsed milliseconds from table statistics, standing in for
// the SDSS log runtimes used by the paper's performance-prediction task.
package engine

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/catalog"
)

// Value is a runtime SQL value: a tagged union over int, float, text, and
// bool, with NULL.
type Value struct {
	Kind catalog.Type
	Null bool
	I    int64
	F    float64
	S    string
	B    bool
}

// Null values and constructors.
var NullValue = Value{Null: true}

// IntVal returns an int value.
func IntVal(i int64) Value { return Value{Kind: catalog.TypeInt, I: i} }

// FloatVal returns a float value.
func FloatVal(f float64) Value { return Value{Kind: catalog.TypeFloat, F: f} }

// TextVal returns a text value.
func TextVal(s string) Value { return Value{Kind: catalog.TypeText, S: s} }

// BoolVal returns a bool value.
func BoolVal(b bool) Value { return Value{Kind: catalog.TypeBool, B: b} }

// IsNumeric reports whether the value is int or float (and not NULL).
func (v Value) IsNumeric() bool { return !v.Null && v.Kind.Numeric() }

// AsFloat converts a numeric value to float64; zero otherwise.
func (v Value) AsFloat() float64 {
	switch {
	case v.Null:
		return 0
	case v.Kind == catalog.TypeInt:
		return float64(v.I)
	case v.Kind == catalog.TypeFloat:
		return v.F
	default:
		return 0
	}
}

// Truthy reports whether the value counts as true in a WHERE context.
// NULL is not truthy.
func (v Value) Truthy() bool {
	if v.Null {
		return false
	}
	switch v.Kind {
	case catalog.TypeBool:
		return v.B
	case catalog.TypeInt:
		return v.I != 0
	case catalog.TypeFloat:
		return v.F != 0
	case catalog.TypeText:
		return v.S != ""
	default:
		return false
	}
}

// String renders the value for display and for hashing keys.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Kind {
	case catalog.TypeInt:
		return strconv.FormatInt(v.I, 10)
	case catalog.TypeFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case catalog.TypeText:
		return v.S
	case catalog.TypeBool:
		if v.B {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Compare orders two values: -1, 0, +1. NULLs sort first and compare equal
// to each other. Numeric kinds compare numerically across int/float; text
// compares case-sensitively; cross-kind comparisons fall back to string
// form so that sorting is always total.
func Compare(a, b Value) int {
	switch {
	case a.Null && b.Null:
		return 0
	case a.Null:
		return -1
	case b.Null:
		return 1
	}
	if a.IsNumeric() && b.IsNumeric() {
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.Kind == catalog.TypeText && b.Kind == catalog.TypeText {
		return strings.Compare(a.S, b.S)
	}
	if a.Kind == catalog.TypeBool && b.Kind == catalog.TypeBool {
		switch {
		case a.B == b.B:
			return 0
		case b.B:
			return -1
		default:
			return 1
		}
	}
	return strings.Compare(a.String(), b.String())
}

// Equal reports SQL equality; NULL equals nothing (including NULL).
func Equal(a, b Value) bool {
	if a.Null || b.Null {
		return false
	}
	return Compare(a, b) == 0
}

// Col describes one output column of a relation: an optional qualifier (the
// table alias it came from) and a name.
type Col struct {
	Qualifier string
	Name      string
	Type      catalog.Type
}

// Relation is a materialized table: a header plus rows.
type Relation struct {
	Cols []Col
	Rows [][]Value
}

// Width returns the number of columns.
func (r *Relation) Width() int { return len(r.Cols) }

// find returns the indexes of columns matching the (qualifier, name) pair,
// case-insensitively. An empty qualifier matches any column with the name.
func (r *Relation) find(qualifier, name string) []int {
	var idx []int
	for i, c := range r.Cols {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if qualifier == "" || strings.EqualFold(c.Qualifier, qualifier) {
			idx = append(idx, i)
		}
	}
	return idx
}

// Key renders a row into a canonical string for grouping and set operations
// (the allocating convenience form of rowKey, which operators use with a
// reused buffer).
func Key(row []Value) string {
	return string(rowKey(nil, row))
}

// EqualRelations compares two relations as multisets of rows (ignoring
// column names). When ordered is true, row order must match too.
func EqualRelations(a, b *Relation, ordered bool) bool {
	if len(a.Rows) != len(b.Rows) || len(a.Cols) != len(b.Cols) {
		return false
	}
	if ordered {
		for i := range a.Rows {
			if Key(a.Rows[i]) != Key(b.Rows[i]) {
				return false
			}
		}
		return true
	}
	counts := make(map[string]int, len(a.Rows))
	for _, row := range a.Rows {
		counts[Key(row)]++
	}
	for _, row := range b.Rows {
		k := Key(row)
		counts[k]--
		if counts[k] < 0 {
			return false
		}
	}
	return true
}

// DB is a named collection of materialized tables plus the schema they
// instantiate.
type DB struct {
	Schema *catalog.Schema
	Tables map[string]*Relation // keyed by lowercase bare table name
}

// NewDB returns an empty database over a schema.
func NewDB(schema *catalog.Schema) *DB {
	return &DB{Schema: schema, Tables: make(map[string]*Relation)}
}

// Put registers a relation under the table name.
func (db *DB) Put(name string, rel *Relation) {
	db.Tables[strings.ToLower(catalog.BareName(name))] = rel
}

// Table returns the relation for a (possibly qualified) table name.
func (db *DB) Table(name string) (*Relation, bool) {
	rel, ok := db.Tables[strings.ToLower(catalog.BareName(name))]
	return rel, ok
}

// ErrExec wraps execution failures.
type ExecError struct {
	Msg string
}

func (e *ExecError) Error() string { return "exec error: " + e.Msg }

func execErrorf(format string, args ...any) error {
	return &ExecError{Msg: fmt.Sprintf(format, args...)}
}
