package engine

// Expression evaluation: everything below the plan nodes that turns one
// AST expression plus a row context into a Value. In an env that carries a
// group, aggregate calls fold over it (agg.go); the env's own group counts,
// never an outer one. Subqueries re-enter the executor (exec.go) through
// execSelect.

import (
	"math"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlast"
)

func (e *Engine) evalExpr(x sqlast.Expr, ev *env) (Value, error) {
	switch t := x.(type) {
	case *sqlast.ColumnRef:
		return e.resolveColumn(t, ev)
	case *sqlast.Literal:
		return literalValue(t)
	case *sqlast.VarRef:
		return NullValue, nil // variables are opaque in this executor
	case *sqlast.Binary:
		return e.evalBinary(t, ev)
	case *sqlast.Unary:
		v, err := e.evalExpr(t.X, ev)
		if err != nil {
			return NullValue, err
		}
		switch t.Op {
		case "NOT":
			if v.Null {
				return NullValue, nil
			}
			return BoolVal(!v.Truthy()), nil
		case "-":
			if v.Null {
				return NullValue, nil
			}
			if v.Kind == catalog.TypeInt {
				return IntVal(-v.I), nil
			}
			return FloatVal(-v.AsFloat()), nil
		default:
			return v, nil
		}
	case *sqlast.FuncCall:
		if ev.grouped && sqlast.IsAggregate(t.Name) {
			return e.aggregate(t, ev)
		}
		return e.evalScalarFunc(t, ev)
	case *sqlast.Subquery:
		rel, err := e.execSelect(t.Select, ev, nil)
		if err != nil {
			return NullValue, err
		}
		if len(rel.Cols) != 1 {
			return NullValue, execErrorf("scalar subquery returns %d columns", len(rel.Cols))
		}
		switch len(rel.Rows) {
		case 0:
			return NullValue, nil
		case 1:
			return rel.Rows[0][0], nil
		default:
			return NullValue, execErrorf("scalar subquery returned %d rows", len(rel.Rows))
		}
	case *sqlast.In:
		return e.evalIn(t, ev)
	case *sqlast.Exists:
		rel, err := e.execSelect(t.Sub, ev, nil)
		if err != nil {
			return NullValue, err
		}
		res := len(rel.Rows) > 0
		if t.Not {
			res = !res
		}
		return BoolVal(res), nil
	case *sqlast.Between:
		v, err := e.evalExpr(t.X, ev)
		if err != nil {
			return NullValue, err
		}
		lo, err := e.evalExpr(t.Lo, ev)
		if err != nil {
			return NullValue, err
		}
		hi, err := e.evalExpr(t.Hi, ev)
		if err != nil {
			return NullValue, err
		}
		// x BETWEEN lo AND hi is x >= lo AND x <= hi: FALSE when either
		// comparison is FALSE, otherwise NULL when any operand is NULL.
		below := !v.Null && !lo.Null && Compare(v, lo) < 0
		above := !v.Null && !hi.Null && Compare(v, hi) > 0
		res := !below && !above
		if res && (v.Null || lo.Null || hi.Null) {
			return NullValue, nil
		}
		if t.Not {
			res = !res
		}
		return BoolVal(res), nil
	case *sqlast.IsNull:
		v, err := e.evalExpr(t.X, ev)
		if err != nil {
			return NullValue, err
		}
		res := v.Null
		if t.Not {
			res = !res
		}
		return BoolVal(res), nil
	case *sqlast.Case:
		return e.evalCase(t, ev)
	case *sqlast.Cast:
		v, err := e.evalExpr(t.X, ev)
		if err != nil {
			return NullValue, err
		}
		return castValue(v, t.Type)
	case *sqlast.Star:
		return NullValue, execErrorf("* is not valid in a scalar context")
	default:
		return NullValue, execErrorf("unsupported expression %T", x)
	}
}

func (e *Engine) resolveColumn(cr *sqlast.ColumnRef, ev *env) (Value, error) {
	for cur := ev; cur != nil; cur = cur.outer {
		if cur.rel == nil {
			continue
		}
		idx := cur.rel.find(cr.Table, cr.Name)
		if len(idx) == 1 {
			if cur.row == nil {
				return NullValue, execErrorf("no current row for column %s", sqlast.PrintExpr(cr))
			}
			return cur.row[idx[0]], nil
		}
		if len(idx) > 1 {
			return NullValue, execErrorf("ambiguous column %s", sqlast.PrintExpr(cr))
		}
	}
	return NullValue, execErrorf("unknown column %s", sqlast.PrintExpr(cr))
}

func literalValue(l *sqlast.Literal) (Value, error) {
	switch l.Kind {
	case sqlast.LitNull:
		return NullValue, nil
	case sqlast.LitBool:
		return BoolVal(strings.EqualFold(l.Text, "TRUE")), nil
	case sqlast.LitString:
		return TextVal(l.Text), nil
	case sqlast.LitNumber:
		if !strings.ContainsAny(l.Text, ".eE") {
			if i, err := strconv.ParseInt(l.Text, 10, 64); err == nil {
				return IntVal(i), nil
			}
		}
		f, err := strconv.ParseFloat(l.Text, 64)
		if err != nil {
			return NullValue, execErrorf("bad numeric literal %q", l.Text)
		}
		return FloatVal(f), nil
	default:
		return NullValue, execErrorf("unknown literal kind")
	}
}

func (e *Engine) evalBinary(b *sqlast.Binary, ev *env) (Value, error) {
	switch b.Op {
	case "AND":
		l, err := e.evalExpr(b.L, ev)
		if err != nil {
			return NullValue, err
		}
		if !l.Null && !l.Truthy() {
			return BoolVal(false), nil
		}
		r, err := e.evalExpr(b.R, ev)
		if err != nil {
			return NullValue, err
		}
		if !r.Null && !r.Truthy() {
			return BoolVal(false), nil
		}
		if l.Null || r.Null {
			return NullValue, nil
		}
		return BoolVal(true), nil
	case "OR":
		l, err := e.evalExpr(b.L, ev)
		if err != nil {
			return NullValue, err
		}
		if l.Truthy() {
			return BoolVal(true), nil
		}
		r, err := e.evalExpr(b.R, ev)
		if err != nil {
			return NullValue, err
		}
		if r.Truthy() {
			return BoolVal(true), nil
		}
		if l.Null || r.Null {
			return NullValue, nil
		}
		return BoolVal(false), nil
	}
	l, err := e.evalExpr(b.L, ev)
	if err != nil {
		return NullValue, err
	}
	r, err := e.evalExpr(b.R, ev)
	if err != nil {
		return NullValue, err
	}
	switch b.Op {
	case "=", "<>", "<", ">", "<=", ">=":
		if l.Null || r.Null {
			return NullValue, nil
		}
		c := Compare(l, r)
		var res bool
		switch b.Op {
		case "=":
			res = c == 0
		case "<>":
			res = c != 0
		case "<":
			res = c < 0
		case ">":
			res = c > 0
		case "<=":
			res = c <= 0
		case ">=":
			res = c >= 0
		}
		return BoolVal(res), nil
	case "LIKE":
		if l.Null || r.Null {
			return NullValue, nil
		}
		return BoolVal(likeMatch(l.String(), r.String())), nil
	case "||":
		if l.Null || r.Null {
			return NullValue, nil
		}
		return TextVal(l.String() + r.String()), nil
	case "+", "-", "*", "/", "%":
		if l.Null || r.Null {
			return NullValue, nil
		}
		return arith(b.Op, l, r)
	default:
		return NullValue, execErrorf("unsupported operator %q", b.Op)
	}
}

func arith(op string, l, r Value) (Value, error) {
	if !l.IsNumeric() || !r.IsNumeric() {
		return NullValue, execErrorf("arithmetic %s on non-numeric operands", op)
	}
	if l.Kind == catalog.TypeInt && r.Kind == catalog.TypeInt && op != "/" {
		switch op {
		case "+":
			return IntVal(l.I + r.I), nil
		case "-":
			return IntVal(l.I - r.I), nil
		case "*":
			return IntVal(l.I * r.I), nil
		case "%":
			if r.I == 0 {
				return NullValue, nil
			}
			return IntVal(l.I % r.I), nil
		}
	}
	lf, rf := l.AsFloat(), r.AsFloat()
	switch op {
	case "+":
		return FloatVal(lf + rf), nil
	case "-":
		return FloatVal(lf - rf), nil
	case "*":
		return FloatVal(lf * rf), nil
	case "/":
		if rf == 0 {
			return NullValue, nil
		}
		return FloatVal(lf / rf), nil
	case "%":
		if rf == 0 {
			return NullValue, nil
		}
		return FloatVal(math.Mod(lf, rf)), nil
	}
	return NullValue, execErrorf("unknown arithmetic operator %q", op)
}

// likeMatch implements SQL LIKE with % and _ wildcards (case-insensitive,
// matching common collations in the source systems).
//
// The matcher is the iterative two-pointer wildcard algorithm: advance
// through text and pattern together, remember the position of the last %
// and how much text it has swallowed, and on a mismatch backtrack to that %
// and extend its span by one character. Each backtrack moves the restart
// point strictly forward, so the worst case is O(len(s) * len(p)) — unlike
// the naive recursive matcher it replaces, which was exponential on
// pathological patterns such as "%a%a%a%a%b" (every % multiplied the
// candidate split points).
func likeMatch(s, pattern string) bool {
	s = strings.ToLower(s)
	p := strings.ToLower(pattern)
	si, pi := 0, 0
	starPi, starSi := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			starPi, starSi = pi, si
			pi++
		case starPi >= 0:
			starSi++
			si = starSi
			pi = starPi + 1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// evalIn follows SQL's three-valued logic: x IN (...) is TRUE on a match,
// NULL when there is none but the list or subquery holds a NULL (the NULL
// might have been x), and FALSE otherwise; NOT IN negates that, NULL
// staying NULL.
func (e *Engine) evalIn(in *sqlast.In, ev *env) (Value, error) {
	x, err := e.evalExpr(in.X, ev)
	if err != nil {
		return NullValue, err
	}
	if x.Null {
		return NullValue, nil
	}
	found, sawNull := false, false
	if in.Sub != nil {
		rel, err := e.execSelect(in.Sub, ev, nil)
		if err != nil {
			return NullValue, err
		}
		if len(rel.Cols) != 1 {
			return NullValue, execErrorf("IN subquery returns %d columns", len(rel.Cols))
		}
		var ops int64
		for _, row := range rel.Rows {
			ops++
			if Equal(x, row[0]) {
				found = true
				break
			}
			sawNull = sawNull || row[0].Null
		}
		e.ops.Add(ops)
	} else {
		for _, item := range in.List {
			v, err := e.evalExpr(item, ev)
			if err != nil {
				return NullValue, err
			}
			if Equal(x, v) {
				found = true
				break
			}
			sawNull = sawNull || v.Null
		}
	}
	if !found && sawNull {
		return NullValue, nil
	}
	return BoolVal(found != in.Not), nil
}

func (e *Engine) evalCase(c *sqlast.Case, ev *env) (Value, error) {
	if c.Operand != nil {
		op, err := e.evalExpr(c.Operand, ev)
		if err != nil {
			return NullValue, err
		}
		for _, w := range c.Whens {
			cv, err := e.evalExpr(w.Cond, ev)
			if err != nil {
				return NullValue, err
			}
			if Equal(op, cv) {
				return e.evalExpr(w.Result, ev)
			}
		}
	} else {
		for _, w := range c.Whens {
			cv, err := e.evalExpr(w.Cond, ev)
			if err != nil {
				return NullValue, err
			}
			if cv.Truthy() {
				return e.evalExpr(w.Result, ev)
			}
		}
	}
	if c.Else != nil {
		return e.evalExpr(c.Else, ev)
	}
	return NullValue, nil
}

func (e *Engine) evalScalarFunc(fc *sqlast.FuncCall, ev *env) (Value, error) {
	name := strings.ToUpper(fc.Name)
	if sqlast.IsAggregate(name) {
		return NullValue, execErrorf("aggregate %s used outside grouping context", name)
	}
	// Scalar calls rarely exceed four arguments; a stack buffer avoids the
	// per-call slice allocation on the row-evaluation hot path.
	var argBuf [4]Value
	var args []Value
	if len(fc.Args) <= len(argBuf) {
		args = argBuf[:len(fc.Args)]
	} else {
		args = make([]Value, len(fc.Args))
	}
	for i, a := range fc.Args {
		v, err := e.evalExpr(a, ev)
		if err != nil {
			return NullValue, err
		}
		args[i] = v
	}
	need := func(n int) error {
		if len(args) != n {
			return execErrorf("%s expects %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "ABS":
		if err := need(1); err != nil {
			return NullValue, err
		}
		if args[0].Null {
			return NullValue, nil
		}
		if args[0].Kind == catalog.TypeInt {
			if args[0].I < 0 {
				return IntVal(-args[0].I), nil
			}
			return args[0], nil
		}
		return FloatVal(math.Abs(args[0].AsFloat())), nil
	case "ROUND":
		if len(args) == 0 || args[0].Null || len(args) > 1 && args[1].Null {
			return NullValue, nil
		}
		if len(args) == 1 {
			return FloatVal(math.Round(args[0].AsFloat())), nil
		}
		// ROUND(x, d) keeps d decimal places; a negative d rounds to tens,
		// hundreds and so on. Dividing by the power of ten, not multiplying
		// by its inverse, keeps ROUND(1234, -1) at exactly 1230.
		x, d := args[0].AsFloat(), math.Trunc(args[1].AsFloat())
		if d >= 0 {
			p := math.Pow(10, d)
			if math.IsInf(x*p, 0) {
				return FloatVal(x), nil // more places than a float holds
			}
			return FloatVal(math.Round(x*p) / p), nil
		}
		p := math.Pow(10, -d)
		if math.IsInf(p, 0) {
			return FloatVal(0), nil
		}
		return FloatVal(math.Round(x/p) * p), nil
	case "FLOOR":
		if err := need(1); err != nil {
			return NullValue, err
		}
		return FloatVal(math.Floor(args[0].AsFloat())), nil
	case "CEILING", "CEIL":
		if err := need(1); err != nil {
			return NullValue, err
		}
		return FloatVal(math.Ceil(args[0].AsFloat())), nil
	case "SQRT":
		if err := need(1); err != nil {
			return NullValue, err
		}
		return FloatVal(math.Sqrt(args[0].AsFloat())), nil
	case "POWER":
		if err := need(2); err != nil {
			return NullValue, err
		}
		return FloatVal(math.Pow(args[0].AsFloat(), args[1].AsFloat())), nil
	case "LOG":
		if err := need(1); err != nil {
			return NullValue, err
		}
		return FloatVal(math.Log(args[0].AsFloat())), nil
	case "UPPER":
		if err := need(1); err != nil {
			return NullValue, err
		}
		return TextVal(strings.ToUpper(args[0].String())), nil
	case "LOWER":
		if err := need(1); err != nil {
			return NullValue, err
		}
		return TextVal(strings.ToLower(args[0].String())), nil
	case "LEN", "LENGTH":
		if err := need(1); err != nil {
			return NullValue, err
		}
		return IntVal(int64(len(args[0].String()))), nil
	case "CONCAT":
		var b strings.Builder
		for _, a := range args {
			if !a.Null {
				b.WriteString(a.String())
			}
		}
		return TextVal(b.String()), nil
	case "COALESCE":
		for _, a := range args {
			if !a.Null {
				return a, nil
			}
		}
		return NullValue, nil
	default:
		// Unknown (e.g. domain-specific SDSS) functions evaluate to a
		// deterministic numeric digest of their arguments so queries using
		// them remain executable.
		var h int64 = 1469598103934665603
		for _, a := range args {
			for _, c := range a.String() {
				h ^= int64(c)
				h *= 1099511628211
			}
		}
		return FloatVal(float64(h%1000) / 10), nil
	}
}

func castValue(v Value, typ string) (Value, error) {
	if v.Null {
		return NullValue, nil
	}
	u := strings.ToUpper(typ)
	switch {
	case strings.HasPrefix(u, "INT") || strings.HasPrefix(u, "BIGINT") || strings.HasPrefix(u, "SMALLINT"):
		switch v.Kind {
		case catalog.TypeInt:
			return v, nil
		case catalog.TypeFloat:
			return IntVal(int64(v.F)), nil
		case catalog.TypeText:
			i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
			if err != nil {
				return NullValue, nil
			}
			return IntVal(i), nil
		case catalog.TypeBool:
			if v.B {
				return IntVal(1), nil
			}
			return IntVal(0), nil
		}
	case strings.HasPrefix(u, "FLOAT") || strings.HasPrefix(u, "REAL") || strings.HasPrefix(u, "DECIMAL") || strings.HasPrefix(u, "NUMERIC"):
		switch v.Kind {
		case catalog.TypeFloat:
			return v, nil
		case catalog.TypeInt:
			return FloatVal(float64(v.I)), nil
		case catalog.TypeText:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
			if err != nil {
				return NullValue, nil
			}
			return FloatVal(f), nil
		}
	case strings.HasPrefix(u, "VARCHAR") || strings.HasPrefix(u, "CHAR") || strings.HasPrefix(u, "TEXT") || strings.HasPrefix(u, "NVARCHAR"):
		return TextVal(v.String()), nil
	}
	return v, nil
}
