package sqlast

import "fmt"

// CloneSelect deep-copies a SELECT statement; nil yields nil.
func CloneSelect(s *SelectStmt) *SelectStmt {
	if s == nil {
		return nil
	}
	c := &SelectStmt{Distinct: s.Distinct, Where: CloneExpr(s.Where), Having: CloneExpr(s.Having)}
	if s.Top != nil {
		v := *s.Top
		c.Top = &v
	}
	if s.Limit != nil {
		v := *s.Limit
		c.Limit = &v
	}
	if s.Offset != nil {
		v := *s.Offset
		c.Offset = &v
	}
	for _, cte := range s.With {
		c.With = append(c.With, CTE{
			Name:    cte.Name,
			Columns: append([]string(nil), cte.Columns...),
			Select:  CloneSelect(cte.Select),
		})
	}
	for _, item := range s.Items {
		c.Items = append(c.Items, SelectItem{Expr: CloneExpr(item.Expr), Alias: item.Alias})
	}
	for _, tr := range s.From {
		c.From = append(c.From, CloneTableRef(tr))
	}
	for _, e := range s.GroupBy {
		c.GroupBy = append(c.GroupBy, CloneExpr(e))
	}
	for _, o := range s.OrderBy {
		c.OrderBy = append(c.OrderBy, OrderItem{Expr: CloneExpr(o.Expr), Desc: o.Desc})
	}
	if s.SetOp != nil {
		c.SetOp = &SetOp{Op: s.SetOp.Op, All: s.SetOp.All, Right: CloneSelect(s.SetOp.Right)}
	}
	return c
}

// CloneTableRef deep-copies a table reference.
func CloneTableRef(tr TableRef) TableRef {
	switch t := tr.(type) {
	case *TableName:
		cp := *t
		return &cp
	case *SubqueryTable:
		return &SubqueryTable{Select: CloneSelect(t.Select), Alias: t.Alias}
	case *Join:
		return &Join{
			Left:  CloneTableRef(t.Left),
			Right: CloneTableRef(t.Right),
			Type:  t.Type,
			On:    CloneExpr(t.On),
		}
	default:
		panic(fmt.Sprintf("sqlast: cannot clone table ref %T", tr))
	}
}

// CloneExpr deep-copies an expression; nil yields nil.
func CloneExpr(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch t := e.(type) {
	case *ColumnRef:
		cp := *t
		return &cp
	case *Star:
		cp := *t
		return &cp
	case *Literal:
		cp := *t
		return &cp
	case *VarRef:
		cp := *t
		return &cp
	case *Binary:
		return &Binary{Op: t.Op, L: CloneExpr(t.L), R: CloneExpr(t.R)}
	case *Unary:
		return &Unary{Op: t.Op, X: CloneExpr(t.X)}
	case *FuncCall:
		c := &FuncCall{Name: t.Name, Distinct: t.Distinct, Star: t.Star}
		for _, a := range t.Args {
			c.Args = append(c.Args, CloneExpr(a))
		}
		return c
	case *Subquery:
		return &Subquery{Select: CloneSelect(t.Select)}
	case *In:
		c := &In{X: CloneExpr(t.X), Not: t.Not, Sub: CloneSelect(t.Sub)}
		for _, a := range t.List {
			c.List = append(c.List, CloneExpr(a))
		}
		return c
	case *Exists:
		return &Exists{Not: t.Not, Sub: CloneSelect(t.Sub)}
	case *Between:
		return &Between{X: CloneExpr(t.X), Not: t.Not, Lo: CloneExpr(t.Lo), Hi: CloneExpr(t.Hi)}
	case *IsNull:
		return &IsNull{X: CloneExpr(t.X), Not: t.Not}
	case *Case:
		c := &Case{Operand: CloneExpr(t.Operand), Else: CloneExpr(t.Else)}
		for _, w := range t.Whens {
			c.Whens = append(c.Whens, When{Cond: CloneExpr(w.Cond), Result: CloneExpr(w.Result)})
		}
		return c
	case *Cast:
		return &Cast{X: CloneExpr(t.X), Type: t.Type}
	default:
		panic(fmt.Sprintf("sqlast: cannot clone expression %T", e))
	}
}
