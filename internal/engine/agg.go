package engine

// Grouped expression evaluation: groupEnv evaluates expressions in a
// grouping context for one group of rows (the groupOp in op_group.go builds
// the groups). Aggregates fold over the group's rows in input order through
// streaming accumulators, so float accumulation order is fixed by the input.

import (
	"math"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlast"
)

// groupEnv evaluates expressions in a grouped context: aggregates fold over
// the group's rows; everything else evaluates against the group's first row
// (the grouping columns are constant within a group).
type groupEnv struct {
	engine  *Engine
	rows    [][]Value
	scanEnv *env
}

func (g *groupEnv) eval(x sqlast.Expr) (Value, error) {
	switch t := x.(type) {
	case *sqlast.FuncCall:
		if sqlast.IsAggregate(t.Name) {
			return g.aggregate(t)
		}
		// Scalar function: evaluate args in grouped context.
		cp := &sqlast.FuncCall{Name: t.Name, Distinct: t.Distinct, Star: t.Star}
		for _, a := range t.Args {
			v, err := g.eval(a)
			if err != nil {
				return NullValue, err
			}
			cp.Args = append(cp.Args, valueLiteral(v))
		}
		return g.engine.evalScalarFunc(cp, g.repEnv())
	case *sqlast.Binary:
		if t.Op == "AND" || t.Op == "OR" {
			// Short-circuit semantics preserved via direct evaluation.
			l, err := g.eval(t.L)
			if err != nil {
				return NullValue, err
			}
			if t.Op == "AND" && !l.Null && !l.Truthy() {
				return BoolVal(false), nil
			}
			if t.Op == "OR" && l.Truthy() {
				return BoolVal(true), nil
			}
			r, err := g.eval(t.R)
			if err != nil {
				return NullValue, err
			}
			if t.Op == "AND" {
				if l.Null || r.Null {
					return NullValue, nil
				}
				return BoolVal(l.Truthy() && r.Truthy()), nil
			}
			if r.Truthy() {
				return BoolVal(true), nil
			}
			if l.Null || r.Null {
				return NullValue, nil
			}
			return BoolVal(false), nil
		}
		l, err := g.eval(t.L)
		if err != nil {
			return NullValue, err
		}
		r, err := g.eval(t.R)
		if err != nil {
			return NullValue, err
		}
		return g.engine.evalBinary(&sqlast.Binary{Op: t.Op, L: valueLiteral(l), R: valueLiteral(r)}, g.repEnv())
	case *sqlast.Unary:
		v, err := g.eval(t.X)
		if err != nil {
			return NullValue, err
		}
		return g.engine.evalExpr(&sqlast.Unary{Op: t.Op, X: valueLiteral(v)}, g.repEnv())
	case *sqlast.Case:
		if t.Operand == nil {
			for _, w := range t.Whens {
				cv, err := g.eval(w.Cond)
				if err != nil {
					return NullValue, err
				}
				if cv.Truthy() {
					return g.eval(w.Result)
				}
			}
			if t.Else != nil {
				return g.eval(t.Else)
			}
			return NullValue, nil
		}
		op, err := g.eval(t.Operand)
		if err != nil {
			return NullValue, err
		}
		for _, w := range t.Whens {
			cv, err := g.eval(w.Cond)
			if err != nil {
				return NullValue, err
			}
			if Equal(op, cv) {
				return g.eval(w.Result)
			}
		}
		if t.Else != nil {
			return g.eval(t.Else)
		}
		return NullValue, nil
	default:
		// Column refs, literals, subqueries: evaluate on a representative row.
		return g.engine.evalExpr(x, g.repEnv())
	}
}

// repEnv returns an env positioned on the group's representative (first)
// row; for empty global-aggregate groups the row is absent and column
// references fail, matching SQL semantics for non-grouped columns.
func (g *groupEnv) repEnv() *env {
	ev := &env{rel: g.scanEnv.rel, outer: g.scanEnv.outer, ctes: g.scanEnv.ctes}
	if len(g.rows) > 0 {
		ev.row = g.rows[0]
	}
	return ev
}

// foldArg streams the aggregate argument's non-NULL values (deduplicated
// under DISTINCT) through visit, in input row order. When the argument is a
// plain column reference resolving uniquely in the group's source relation,
// values are read straight from the rows without entering the expression
// evaluator — the hot path for every aggregate over a base column.
func (g *groupEnv) foldArg(fc *sqlast.FuncCall, visit func(Value)) error {
	arg := fc.Args[0]
	g.engine.ops.Add(int64(len(g.rows)))
	var seen map[string]bool
	if fc.Distinct {
		seen = make(map[string]bool)
	}
	emit := func(v Value) {
		if v.Null {
			return
		}
		if seen != nil {
			k := v.String()
			if seen[k] {
				return
			}
			seen[k] = true
		}
		visit(v)
	}
	if cr, ok := arg.(*sqlast.ColumnRef); ok {
		if idx := g.scanEnv.rel.find(cr.Table, cr.Name); len(idx) == 1 {
			ci := idx[0]
			for _, row := range g.rows {
				emit(row[ci])
			}
			return nil
		}
	}
	ev := &env{rel: g.scanEnv.rel, outer: g.scanEnv.outer, ctes: g.scanEnv.ctes}
	for _, row := range g.rows {
		ev.row = row
		v, err := g.engine.evalExpr(arg, ev)
		if err != nil {
			return err
		}
		emit(v)
	}
	return nil
}

func (g *groupEnv) aggregate(fc *sqlast.FuncCall) (Value, error) {
	name := strings.ToUpper(fc.Name)
	if name == "COUNT" && fc.Star {
		return IntVal(int64(len(g.rows))), nil
	}
	if len(fc.Args) != 1 {
		return NullValue, execErrorf("%s expects exactly one argument", name)
	}

	switch name {
	case "COUNT":
		var n int64
		if err := g.foldArg(fc, func(Value) { n++ }); err != nil {
			return NullValue, err
		}
		return IntVal(n), nil
	case "SUM":
		var n, isum int64
		var fsum float64
		allInt := true
		err := g.foldArg(fc, func(v Value) {
			n++
			if v.Kind != catalog.TypeInt {
				allInt = false
			}
			fsum += v.AsFloat()
			isum += v.I
		})
		if err != nil {
			return NullValue, err
		}
		if n == 0 {
			return NullValue, nil
		}
		if allInt {
			return IntVal(isum), nil
		}
		return FloatVal(fsum), nil
	case "AVG":
		var n int64
		var sum float64
		err := g.foldArg(fc, func(v Value) {
			n++
			sum += v.AsFloat()
		})
		if err != nil {
			return NullValue, err
		}
		if n == 0 {
			return NullValue, nil
		}
		return FloatVal(sum / float64(n)), nil
	case "MIN", "MAX":
		var best Value
		var has bool
		wantMax := name == "MAX"
		err := g.foldArg(fc, func(v Value) {
			if !has {
				best, has = v, true
				return
			}
			c := Compare(v, best)
			if (wantMax && c > 0) || (!wantMax && c < 0) {
				best = v
			}
		})
		if err != nil {
			return NullValue, err
		}
		if !has {
			return NullValue, nil
		}
		return best, nil
	case "STDEV", "VAR":
		// Two passes over the materialized values, preserving the exact
		// accumulation order (a streaming variance would round differently).
		var vals []Value
		if err := g.foldArg(fc, func(v Value) { vals = append(vals, v) }); err != nil {
			return NullValue, err
		}
		if len(vals) < 2 {
			return NullValue, nil
		}
		var sum float64
		for _, v := range vals {
			sum += v.AsFloat()
		}
		mean := sum / float64(len(vals))
		var ss float64
		for _, v := range vals {
			d := v.AsFloat() - mean
			ss += d * d
		}
		variance := ss / float64(len(vals)-1)
		if name == "VAR" {
			return FloatVal(variance), nil
		}
		return FloatVal(math.Sqrt(variance)), nil
	default:
		return NullValue, execErrorf("unknown aggregate %s", name)
	}
}

// valueLiteral converts a runtime value back into a literal AST node so that
// already-computed sub-results can flow through the scalar evaluator.
func valueLiteral(v Value) sqlast.Expr {
	switch {
	case v.Null:
		return sqlast.Null()
	case v.Kind == catalog.TypeInt:
		return sqlast.Number(IntVal(v.I).String())
	case v.Kind == catalog.TypeFloat:
		return sqlast.Number(FloatVal(v.F).String())
	case v.Kind == catalog.TypeBool:
		if v.B {
			return &sqlast.Literal{Kind: sqlast.LitBool, Text: "TRUE"}
		}
		return &sqlast.Literal{Kind: sqlast.LitBool, Text: "FALSE"}
	default:
		return sqlast.Str(v.S)
	}
}
