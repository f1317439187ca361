package engine

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
)

// edgeValues are values where an equality is easy to get wrong: ints and
// floats that are equal across kinds, neighbours near 2^53 and 2^63 that a
// float64 cannot tell apart, ±0, NaN and ±Inf, and texts that imitate a
// number's rendering, NULL's, or a separator of some row encoding.
var edgeValues = []Value{
	NullValue,
	IntVal(0), IntVal(1), IntVal(-1), IntVal(1000000),
	IntVal(1 << 53), IntVal(1<<53 + 1), IntVal(-(1 << 53)), IntVal(-(1 << 53) - 1),
	IntVal(math.MaxInt64), IntVal(math.MaxInt64 - 1), IntVal(math.MinInt64), IntVal(math.MinInt64 + 1),
	FloatVal(0), FloatVal(math.Copysign(0, -1)), FloatVal(1), FloatVal(-1), FloatVal(1e6),
	FloatVal(0.5), FloatVal(-0.5), FloatVal(1.5), FloatVal(-1.5), FloatVal(1e-300), FloatVal(1e300),
	FloatVal(1 << 53), FloatVal(1<<53 + 2), FloatVal(-(1 << 53)),
	FloatVal(1 << 63), FloatVal(-(1 << 63)), FloatVal(math.Nextafter(1<<63, 0)),
	FloatVal(math.NaN()), FloatVal(math.Inf(1)), FloatVal(math.Inf(-1)),
	TextVal(""), TextVal("0"), TextVal("1"), TextVal("1e+06"), TextVal("1000000"),
	TextVal("NaN"), TextVal("NULL"), TextVal("true"), TextVal("a"), TextVal("b"),
	TextVal("\x00"), TextVal("\x00N"), TextVal("a\x1f"), TextVal("\x1fb"), TextVal("a\x1fb"),
	BoolVal(false), BoolVal(true),
}

// randomValue draws a value for the quick checks: an edge value, or a small
// int, a small float with at most one decimal, or a one-letter text.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(4) {
	case 0:
		return IntVal(int64(r.Intn(200) - 100))
	case 1:
		return FloatVal(float64(r.Intn(2000))/10 - 100)
	case 2:
		return TextVal(string(rune('a' + r.Intn(26))))
	default:
		return edgeValues[r.Intn(len(edgeValues))]
	}
}

type valueTriple struct{ A, B, C Value }

// Generate implements quick.Generator.
func (valueTriple) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(valueTriple{randomValue(r), randomValue(r), randomValue(r)})
}

// Property (testing/quick): Compare is a total preorder, which sorting and
// grouping rely on: reflexive, antisymmetric in sign, and transitive in every
// order of the triple.
func TestCompareTotalOrderQuick(t *testing.T) {
	f := func(tr valueTriple) bool {
		return preorderHolds(tr.A, tr.B, tr.C) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestCompareTotalOrderOnEdgeValues checks the preorder on every triple of
// edge values.
func TestCompareTotalOrderOnEdgeValues(t *testing.T) {
	for _, a := range edgeValues {
		for _, b := range edgeValues {
			for _, c := range edgeValues {
				if msg := preorderHolds(a, b, c); msg != "" {
					t.Fatalf("%s: a=%#v b=%#v c=%#v", msg, a, b, c)
				}
			}
		}
	}
}

// preorderHolds returns "" when Compare is reflexive on a, antisymmetric on
// (a, b), and transitive on every ordering of (a, b, c); otherwise the rule
// that fails.
func preorderHolds(a, b, c Value) string {
	switch {
	case Compare(a, a) != 0:
		return "not reflexive"
	case Compare(a, b) != -Compare(b, a):
		return "not antisymmetric"
	}
	for _, p := range [][3]Value{{a, b, c}, {a, c, b}, {b, a, c}, {b, c, a}, {c, a, b}, {c, b, a}} {
		if Compare(p[0], p[1]) <= 0 && Compare(p[1], p[2]) <= 0 && Compare(p[0], p[2]) > 0 {
			return "not transitive"
		}
	}
	return ""
}

// Compare's order on pairs where a float64 round trip, or a string form,
// would get it wrong.
func TestCompareExactly(t *testing.T) {
	for _, c := range []struct {
		a, b Value
		want int
	}{
		{IntVal(1<<53 + 1), IntVal(1 << 53), 1},
		{IntVal(1<<53 + 1), FloatVal(1 << 53), 1},
		{IntVal(math.MaxInt64), FloatVal(1 << 63), -1},
		{IntVal(math.MinInt64), FloatVal(-(1 << 63)), 0},
		{IntVal(1), FloatVal(1.5), -1},
		{IntVal(-1), FloatVal(-1.5), 1},
		{IntVal(0), FloatVal(math.Copysign(0, -1)), 0},
		{IntVal(0), FloatVal(math.NaN()), 1},
		{FloatVal(math.NaN()), FloatVal(math.NaN()), 0},
		{FloatVal(math.NaN()), FloatVal(math.Inf(-1)), -1},
		{IntVal(5), FloatVal(math.Inf(1)), -1},
		{IntVal(5), FloatVal(math.Inf(-1)), 1},
		{TextVal("1"), IntVal(1), 1},
		{TextVal("10"), TextVal("9"), -1},
		{BoolVal(false), TextVal("z"), 1},
		{BoolVal(true), BoolVal(false), 1},
		{NullValue, FloatVal(math.Inf(-1)), -1},
	} {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%#v, %#v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property (testing/quick): Equal is never true when either side is NULL,
// and agrees with Compare otherwise.
func TestEqualNullSemanticsQuick(t *testing.T) {
	f := func(tr valueTriple) bool {
		a, b := tr.A, tr.B
		if a.Null || b.Null {
			return !Equal(a, b)
		}
		return Equal(a, b) == (Compare(a, b) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// sameKey reports whether a and b have one key, which must be exactly when
// both are NULL or they are Equal.
func sameKey(a, b Value) bool {
	return string(appendKey(nil, a)) == string(appendKey(nil, b))
}

// Property (testing/quick): keys follow Equal, value by value and row by
// row: two rows share a key exactly when their values pairwise do, which
// needs each value's key to be self-delimiting. NULL's key is not the empty
// text's.
func TestKeyNullVsEmptyQuick(t *testing.T) {
	if sameKey(NullValue, TextVal("")) {
		t.Fatal("NULL and the empty text share a key")
	}
	f := func(x, y valueTriple) bool {
		for _, p := range [][2]Value{{x.A, y.A}, {x.B, y.B}, {x.C, y.C}, {x.A, x.B}} {
			if sameKey(p[0], p[1]) != (p[0].Null && p[1].Null || Equal(p[0], p[1])) {
				return false
			}
		}
		rowX, rowY := []Value{x.A, x.B, x.C}, []Value{y.A, y.B, y.C}
		want := sameKey(x.A, y.A) && sameKey(x.B, y.B) && sameKey(x.C, y.C)
		return (string(rowKey(nil, rowX)) == string(rowKey(nil, rowY))) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestKeysFollowEqualOnEdgeValues checks key equality against Equal on
// every pair of edge values, and row keys on every pair of two-value rows.
func TestKeysFollowEqualOnEdgeValues(t *testing.T) {
	for _, a := range edgeValues {
		for _, b := range edgeValues {
			if got, want := sameKey(a, b), a.Null && b.Null || Equal(a, b); got != want {
				t.Errorf("sameKey(%#v, %#v) = %v, want %v", a, b, got, want)
			}
		}
	}
	keys := make(map[string][]Value)
	for _, a := range edgeValues {
		for _, b := range edgeValues {
			row := []Value{a, b}
			k := string(rowKey(nil, row))
			if prev, ok := keys[k]; ok && !(sameKey(prev[0], a) && sameKey(prev[1], b)) {
				t.Errorf("rows %#v and %#v share a key", prev, row)
			}
			keys[k] = row
		}
	}
}

// TestComparableMatchesCompareClasses ties the static rule to the engine's:
// for every pair of value kinds, catalog.Comparable holds exactly when
// Compare puts the kinds in one class, the only case in which two of their
// values can be equal. So semcheck, which flags comparisons that are not
// Comparable, and execution agree on which comparisons mean anything.
// TypeAny is the checker's unknown type, which no value has; a bool's class
// also holds its value, so each kind is sampled by one value.
func TestComparableMatchesCompareClasses(t *testing.T) {
	sample := map[catalog.Type]Value{
		catalog.TypeInt:   IntVal(1),
		catalog.TypeFloat: FloatVal(1),
		catalog.TypeText:  TextVal("1"),
		catalog.TypeBool:  BoolVal(true),
	}
	for ka, a := range sample {
		for kb, b := range sample {
			if got, want := catalog.Comparable(ka, kb), class(a) == class(b); got != want {
				t.Errorf("Comparable(%s, %s) = %v, want %v: whether Compare puts them in one class", ka, kb, got, want)
			}
		}
	}
}

// Property: Truthy never panics and NULL is never truthy.
func TestTruthyQuick(t *testing.T) {
	f := func(tr valueTriple) bool {
		if tr.A.Null && tr.A.Truthy() {
			return false
		}
		_ = tr.B.Truthy()
		_ = tr.C.Truthy()
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueStringRendering(t *testing.T) {
	cases := map[string]Value{
		"NULL":  NullValue,
		"42":    IntVal(42),
		"-7":    IntVal(-7),
		"3.5":   FloatVal(3.5),
		"x":     TextVal("x"),
		"true":  BoolVal(true),
		"false": BoolVal(false),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String(%#v) = %q, want %q", v, got, want)
		}
	}
	if (Value{Kind: catalog.TypeAny}).String() != "?" {
		t.Error("unknown kind should render as ?")
	}
}
