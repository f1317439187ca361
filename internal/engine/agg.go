package engine

// Aggregate folding: evalExpr (eval.go) calls aggregate for an aggregate
// call in an env that carries a group (the groupOp in op_group.go builds the
// groups). Aggregates fold over the group's rows in input order through
// streaming accumulators, so float accumulation order is fixed by the input.

import (
	"math"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlast"
)

// foldArg streams the aggregate argument's non-NULL values (deduplicated
// under DISTINCT) over the group of ev through visit, in input row order.
// When the argument is a plain column reference resolving uniquely in the
// group's source relation, values are read straight from the rows without
// entering the expression evaluator — the hot path for every aggregate over
// a base column. Otherwise the argument evaluates per row in an env without
// a group, so a nested aggregate fails.
func (e *Engine) foldArg(fc *sqlast.FuncCall, ev *env, visit func(Value)) error {
	arg := fc.Args[0]
	e.ops.Add(int64(len(ev.group)))
	var seen map[string]bool
	var key []byte
	if fc.Distinct {
		seen = make(map[string]bool)
	}
	emit := func(v Value) {
		if v.Null {
			return
		}
		if seen != nil {
			key = appendKey(key[:0], v)
			if seen[string(key)] {
				return
			}
			seen[string(key)] = true
		}
		visit(v)
	}
	if cr, ok := arg.(*sqlast.ColumnRef); ok {
		if idx := ev.rel.find(cr.Table, cr.Name); len(idx) == 1 {
			ci := idx[0]
			for _, row := range ev.group {
				emit(row[ci])
			}
			return nil
		}
	}
	rowEnv := &env{rel: ev.rel, outer: ev.outer, ctes: ev.ctes}
	for _, row := range ev.group {
		rowEnv.row = row
		v, err := e.evalExpr(arg, rowEnv)
		if err != nil {
			return err
		}
		emit(v)
	}
	return nil
}

// aggregate folds an aggregate call over the group of ev.
func (e *Engine) aggregate(fc *sqlast.FuncCall, ev *env) (Value, error) {
	name := strings.ToUpper(fc.Name)
	if name == "COUNT" && fc.Star {
		return IntVal(int64(len(ev.group))), nil
	}
	if len(fc.Args) != 1 {
		return NullValue, execErrorf("%s expects exactly one argument", name)
	}

	switch name {
	case "COUNT":
		var n int64
		if err := e.foldArg(fc, ev, func(Value) { n++ }); err != nil {
			return NullValue, err
		}
		return IntVal(n), nil
	case "SUM":
		var n, isum int64
		var fsum float64
		allInt := true
		err := e.foldArg(fc, ev, func(v Value) {
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
		err := e.foldArg(fc, ev, func(v Value) {
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
		err := e.foldArg(fc, ev, func(v Value) {
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
		if err := e.foldArg(fc, ev, func(v Value) { vals = append(vals, v) }); err != nil {
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
