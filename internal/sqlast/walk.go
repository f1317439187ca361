package sqlast

// Visitor is called for every node during Walk. Returning false stops
// descent into the node's children (siblings are still visited).
type Visitor func(n Node) bool

// Walk traverses the tree rooted at n in depth-first order, invoking v for
// each node before its children. Nil nodes are skipped.
func Walk(n Node, v Visitor) {
	if n == nil || !v(n) {
		return
	}
	switch t := n.(type) {
	case *SelectStmt:
		for i := range t.With {
			walkSelect(t.With[i].Select, v)
		}
		for _, item := range t.Items {
			Walk(item.Expr, v)
		}
		for _, tr := range t.From {
			Walk(tr, v)
		}
		Walk(t.Where, v)
		for _, e := range t.GroupBy {
			Walk(e, v)
		}
		Walk(t.Having, v)
		for _, o := range t.OrderBy {
			Walk(o.Expr, v)
		}
		if t.SetOp != nil {
			walkSelect(t.SetOp.Right, v)
		}
	case *CreateTableStmt:
		walkSelect(t.AsSelect, v)
	case *CreateViewStmt:
		walkSelect(t.Select, v)
	case *InsertStmt:
		for _, row := range t.Rows {
			for _, e := range row {
				Walk(e, v)
			}
		}
		walkSelect(t.Select, v)
	case *UpdateStmt:
		for _, a := range t.Set {
			Walk(a.Value, v)
		}
		Walk(t.Where, v)
	case *DeleteStmt:
		Walk(t.Where, v)
	case *DeclareStmt:
		Walk(t.Init, v)
	case *SetVarStmt:
		Walk(t.Value, v)
	case *ExecStmt:
		for _, a := range t.Args {
			Walk(a, v)
		}
	case *DropStmt, *WaitforStmt, *TxnStmt:
	case *TableName:
	case *SubqueryTable:
		walkSelect(t.Select, v)
	case *Join:
		Walk(t.Left, v)
		Walk(t.Right, v)
		Walk(t.On, v)
	case *ColumnRef, *Star, *Literal, *VarRef:
	case *Binary:
		Walk(t.L, v)
		Walk(t.R, v)
	case *Unary:
		Walk(t.X, v)
	case *FuncCall:
		for _, a := range t.Args {
			Walk(a, v)
		}
	case *Subquery:
		walkSelect(t.Select, v)
	case *In:
		Walk(t.X, v)
		for _, e := range t.List {
			Walk(e, v)
		}
		walkSelect(t.Sub, v)
	case *Exists:
		walkSelect(t.Sub, v)
	case *Between:
		Walk(t.X, v)
		Walk(t.Lo, v)
		Walk(t.Hi, v)
	case *IsNull:
		Walk(t.X, v)
	case *Case:
		Walk(t.Operand, v)
		for _, w := range t.Whens {
			Walk(w.Cond, v)
			Walk(w.Result, v)
		}
		Walk(t.Else, v)
	case *Cast:
		Walk(t.X, v)
	}
}

// walkSelect guards against typed-nil *SelectStmt inside interfaces.
func walkSelect(s *SelectStmt, v Visitor) {
	if s != nil {
		Walk(s, v)
	}
}
