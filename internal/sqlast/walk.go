package sqlast

// Visitor is called for every node during Walk. Returning false stops
// descent into the node's children (siblings are still visited).
type Visitor func(n Node) bool

// Walk traverses the tree rooted at n in depth-first order, invoking v for
// each node before its children. Nil nodes are skipped.
func Walk(n Node, v Visitor) { walker{v: v}.walk(n) }

// WalkLevel is Walk limited to one query level: a nested SELECT (a
// subquery, an IN or EXISTS subquery, a derived table, a CTE body or a
// set-operation branch) is passed to v but never entered.
func WalkLevel(n Node, v Visitor) { walker{v: v, level: true}.walk(n) }

// walker is one traversal: its visitor, and whether it stays on the query
// level it starts at.
type walker struct {
	v     Visitor
	level bool
}

func (w walker) walk(n Node) {
	if n == nil || !w.v(n) {
		return
	}
	switch t := n.(type) {
	case *SelectStmt:
		for i := range t.With {
			w.nested(t.With[i].Select)
		}
		for _, item := range t.Items {
			w.walk(item.Expr)
		}
		for _, tr := range t.From {
			w.walk(tr)
		}
		w.walk(t.Where)
		for _, e := range t.GroupBy {
			w.walk(e)
		}
		w.walk(t.Having)
		for _, o := range t.OrderBy {
			w.walk(o.Expr)
		}
		if t.SetOp != nil {
			w.nested(t.SetOp.Right)
		}
	case *CreateTableStmt:
		w.nested(t.AsSelect)
	case *CreateViewStmt:
		w.nested(t.Select)
	case *InsertStmt:
		for _, row := range t.Rows {
			for _, e := range row {
				w.walk(e)
			}
		}
		w.nested(t.Select)
	case *UpdateStmt:
		for _, a := range t.Set {
			w.walk(a.Value)
		}
		w.walk(t.Where)
	case *DeleteStmt:
		w.walk(t.Where)
	case *DeclareStmt:
		w.walk(t.Init)
	case *SetVarStmt:
		w.walk(t.Value)
	case *ExecStmt:
		for _, a := range t.Args {
			w.walk(a)
		}
	case *DropStmt, *WaitforStmt, *TxnStmt:
	case *TableName:
	case *SubqueryTable:
		w.nested(t.Select)
	case *Join:
		w.walk(t.Left)
		w.walk(t.Right)
		w.walk(t.On)
	case *ColumnRef, *Star, *Literal, *VarRef:
	case *Binary:
		w.walk(t.L)
		w.walk(t.R)
	case *Unary:
		w.walk(t.X)
	case *FuncCall:
		for _, a := range t.Args {
			w.walk(a)
		}
	case *Subquery:
		w.nested(t.Select)
	case *In:
		w.walk(t.X)
		for _, e := range t.List {
			w.walk(e)
		}
		w.nested(t.Sub)
	case *Exists:
		w.nested(t.Sub)
	case *Between:
		w.walk(t.X)
		w.walk(t.Lo)
		w.walk(t.Hi)
	case *IsNull:
		w.walk(t.X)
	case *Case:
		w.walk(t.Operand)
		for _, wh := range t.Whens {
			w.walk(wh.Cond)
			w.walk(wh.Result)
		}
		w.walk(t.Else)
	case *Cast:
		w.walk(t.X)
	}
}

// nested visits a SELECT nested in the node being walked, which a level
// walk passes to the visitor without entering. A nil s (also the typed nil
// of an absent subquery) is skipped.
func (w walker) nested(s *SelectStmt) {
	switch {
	case s == nil:
	case w.level:
		w.v(s)
	default:
		w.walk(s)
	}
}

// HasAggregate reports whether e calls an aggregate function at its own
// query level; an aggregate inside a nested SELECT belongs to that SELECT.
func HasAggregate(e Expr) bool {
	found := false
	WalkLevel(e, func(n Node) bool {
		if f, ok := n.(*FuncCall); ok && IsAggregate(f.Name) {
			found = true
		}
		return !found
	})
	return found
}

// SelectHasAggregate reports whether the query block sel calls an aggregate
// at its own level in its items or ORDER BY, which makes the block one
// group even without GROUP BY.
func SelectHasAggregate(sel *SelectStmt) bool {
	for _, item := range sel.Items {
		if HasAggregate(item.Expr) {
			return true
		}
	}
	for _, o := range sel.OrderBy {
		if HasAggregate(o.Expr) {
			return true
		}
	}
	return false
}

// Flatten returns the operands of the maximal chains of the binary operator
// op rooted at each of es, left to right: the conjuncts of an AND chain for
// op "AND". A nil expression has none, and any other expression is its own
// single operand.
func Flatten(op string, es ...Expr) []Expr {
	var out []Expr
	visit := func(n Node) bool {
		if b, ok := n.(*Binary); ok && b.Op == op {
			return true
		}
		out = append(out, n.(Expr))
		return false
	}
	for _, e := range es {
		Walk(e, visit)
	}
	return out
}
