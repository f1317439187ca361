// Package engine implements an in-memory relational query executor over the
// catalog schemas: scans, filters, nested-loop and hash joins, grouped
// aggregation, HAVING, ORDER BY, DISTINCT, TOP/LIMIT, scalar/IN/EXISTS
// subqueries, CTEs, and set operations. It also provides a plan cost model
// that estimates elapsed milliseconds from table statistics, standing in for
// the SDSS log runtimes used by the paper's performance-prediction task.
package engine

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
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

// String renders the value for display; Compare and appendKey never use it.
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

// The classes of values, in Compare's order. A value's class is also the
// first byte of its key; a bool's class holds its value, so it sorts and
// keys by class alone.
const (
	classNull byte = iota
	classNumber
	classText
	classFalse
	classTrue
	classOther // a non-NULL value of kind TypeAny, such as the zero Value
)

// classOf is the class of a non-NULL value by its kind (a true bool's is
// classTrue).
var classOf = [...]byte{catalog.TypeAny: classOther, catalog.TypeInt: classNumber,
	catalog.TypeFloat: classNumber, catalog.TypeText: classText, catalog.TypeBool: classFalse}

func class(v Value) byte {
	switch {
	case v.Null:
		return classNull
	case v.Kind == catalog.TypeBool && v.B:
		return classTrue
	}
	return classOf[v.Kind]
}

// Compare orders two values: -1, 0, +1. It is a total order: NULL sorts
// first, then numbers, then text, then false and true, and values of
// different classes are never equal. Numbers compare exactly across int and
// float (no int64 is rounded to a float64); NaN sorts before every other
// number and equals only NaN, and -0 equals 0. Text compares bytewise.
func Compare(a, b Value) int {
	ca, cb := class(a), class(b)
	switch {
	case ca != cb:
		return cmp.Compare(ca, cb)
	case ca == classText:
		return strings.Compare(a.S, b.S)
	case ca != classNumber:
		return 0
	case a.Kind == catalog.TypeInt && b.Kind == catalog.TypeInt:
		return cmp.Compare(a.I, b.I)
	case a.Kind == catalog.TypeInt:
		return compareIntFloat(a.I, b.F)
	case b.Kind == catalog.TypeInt:
		return -compareIntFloat(b.I, a.F)
	}
	return cmp.Compare(a.F, b.F)
}

// compareIntFloat compares i with f exactly. Rounding i to a float64 keeps
// the order, so only a tie, where f is an integer, needs a second look.
func compareIntFloat(i int64, f float64) int {
	switch c := cmp.Compare(float64(i), f); {
	case c != 0:
		return c
	case f == 1<<63: // i rounded up past math.MaxInt64
		return -1
	}
	return cmp.Compare(i, int64(f))
}

// Equal reports SQL equality; NULL equals nothing (including NULL).
func Equal(a, b Value) bool {
	if a.Null || b.Null {
		return false
	}
	return Compare(a, b) == 0
}

// appendKey appends v's key to dst: its class byte, then a number's
// canonical digits and a terminator, or text's length and bytes. Keys are
// self-delimiting, and two keys are equal exactly when both values are NULL
// or Equal. A number's digits are the integer's or, for a float, those of
// the integer it equals if it is integral and in int64 range (so 1e6 and
// 1000000, -0 and 0 share a key), else its shortest 'g' form, which always
// holds a '.', an exponent, "Inf" or "NaN".
func appendKey(dst []byte, v Value) []byte {
	c := class(v)
	dst = append(dst, c)
	switch c {
	case classNumber:
		f := v.F
		switch {
		case v.Kind == catalog.TypeInt:
			dst = strconv.AppendInt(dst, v.I, 10)
		case f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63:
			dst = strconv.AppendInt(dst, int64(f), 10)
		default:
			dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
		}
		return append(dst, ';')
	case classText:
		return append(binary.AppendUvarint(dst, uint64(len(v.S))), v.S...)
	}
	return dst
}

// rowKey appends the key of a row to dst: its values' keys in order. It is
// the one key of DISTINCT, GROUP BY, set operations and EqualRelations.
func rowKey(dst []byte, row []Value) []byte {
	for _, v := range row {
		dst = appendKey(dst, v)
	}
	return dst
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

// EqualRelations compares two relations as multisets of rows (ignoring
// column names). When ordered is true, row order must match too.
func EqualRelations(a, b *Relation, ordered bool) bool {
	if len(a.Rows) != len(b.Rows) || len(a.Cols) != len(b.Cols) {
		return false
	}
	var buf []byte
	key := func(row []Value) string {
		buf = rowKey(buf[:0], row)
		return string(buf)
	}
	if ordered {
		for i := range a.Rows {
			if key(a.Rows[i]) != key(b.Rows[i]) {
				return false
			}
		}
		return true
	}
	counts := make(map[string]int, len(a.Rows))
	for _, row := range a.Rows {
		counts[key(row)]++
	}
	for _, row := range b.Rows {
		k := key(row)
		counts[k]--
		if counts[k] < 0 {
			return false
		}
	}
	return true
}

// DB is a named collection of materialized tables.
type DB struct {
	Tables map[string]*Relation // keyed by lowercase bare table name
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{Tables: make(map[string]*Relation)}
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
