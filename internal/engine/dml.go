package engine

// DML execution: a state-task script's INSERT/UPDATE/DELETE, CREATE/DROP
// TABLE and BEGIN/COMMIT/ROLLBACK statements, run in order against one
// database's relations. RunScript is the state task's ground-truth oracle at
// benchmark build time and the executor behind the simulated models' and
// cmd/modelstub's state answers, so labels and answers share one executor.
//
// Every statement writes the relations directly and changes nothing when it
// fails: INSERT appends only after every row has been coerced, and UPDATE and
// DELETE assign a table's new row slice only after every row has been
// evaluated. BEGIN snapshots the table map; since a statement either
// replaces a table's Rows slice wholesale or appends past the snapshot's
// length, the snapshot's slice headers still see the pre-transaction rows,
// and ROLLBACK restores them.

import (
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlast"
)

// RunScript executes a script on a fresh empty database and returns the
// final rows of the table its last CREATE TABLE names. A transaction block
// the script leaves open is rolled back, so only committed and auto-committed
// changes remain. A failing statement, a script that creates no table, or a
// table that is gone at the end is an error.
func RunScript(stmts []sqlast.Stmt) ([][]Value, error) {
	s := &scriptRun{e: New(NewDB())}
	table := ""
	for _, st := range stmts {
		if err := s.exec(st); err != nil {
			return nil, err
		}
		if ct, ok := st.(*sqlast.CreateTableStmt); ok {
			table = ct.Name
		}
	}
	if s.snap != nil {
		s.rollback()
	}
	if table == "" {
		return nil, execErrorf("script contains no CREATE TABLE statement")
	}
	rel, ok := s.e.DB.Table(table)
	if !ok {
		return nil, execErrorf("table %q does not exist", table)
	}
	return rel.Rows, nil
}

// scriptRun is one script's execution state: the engine over the database
// its statements write and, while a BEGIN block is open, the table map as
// it was at BEGIN. Not safe for concurrent use.
type scriptRun struct {
	e    *Engine
	snap map[string]*Relation // nil when no block is open
}

// exec runs one statement. SELECTs are rejected: a script states no result.
func (s *scriptRun) exec(stmt sqlast.Stmt) error {
	db := s.e.DB
	switch t := stmt.(type) {
	case *sqlast.CreateTableStmt:
		return s.create(t)
	case *sqlast.DropStmt:
		if !strings.EqualFold(t.Kind, "TABLE") {
			return execErrorf("DROP %s is not supported in a script", t.Kind)
		}
		if _, err := s.table(catalog.BareName(t.Name)); err != nil {
			return err
		}
		delete(db.Tables, strings.ToLower(catalog.BareName(t.Name)))
		return nil
	case *sqlast.InsertStmt:
		return s.insert(t)
	case *sqlast.UpdateStmt:
		return s.update(t)
	case *sqlast.DeleteStmt:
		rel, err := s.table(t.Table)
		if err != nil {
			return err
		}
		return s.rewrite(rel, catalog.BareName(t.Table), t.Where, nil)
	case *sqlast.TxnStmt:
		switch t.Kind {
		case "BEGIN":
			if s.snap != nil {
				return execErrorf("transaction already open")
			}
			s.snap = make(map[string]*Relation, len(db.Tables))
			for k, rel := range db.Tables {
				s.snap[k] = &Relation{Cols: rel.Cols, Rows: rel.Rows}
			}
		case "COMMIT", "ROLLBACK":
			if s.snap == nil {
				return execErrorf("no open transaction")
			}
			if t.Kind == "COMMIT" {
				s.snap = nil
			} else {
				s.rollback()
			}
		default:
			return execErrorf("unknown transaction statement %q", t.Kind)
		}
		return nil
	default:
		return execErrorf("statement %T cannot run in a script", stmt)
	}
}

// rollback restores the tables as they were at BEGIN and closes the block.
func (s *scriptRun) rollback() {
	s.e.DB.Tables = s.snap
	s.snap = nil
}

// table returns an existing table of the database.
func (s *scriptRun) table(name string) (*Relation, error) {
	rel, ok := s.e.DB.Table(name)
	if !ok {
		return nil, execErrorf("table %q does not exist", name)
	}
	return rel, nil
}

func (s *scriptRun) create(t *sqlast.CreateTableStmt) error {
	rel := &Relation{}
	switch {
	case t.AsSelect != nil:
		res, err := s.e.Query(t.AsSelect)
		if err != nil {
			return err
		}
		for _, c := range res.Cols {
			rel.Cols = append(rel.Cols, Col{Name: c.Name, Type: c.Type})
		}
		for _, row := range res.Rows {
			rel.Rows = append(rel.Rows, append([]Value(nil), row...))
		}
	case len(t.Cols) == 0:
		return execErrorf("CREATE TABLE %s has no columns", t.Name)
	default:
		for _, cd := range t.Cols {
			rel.Cols = append(rel.Cols, Col{Name: cd.Name, Type: sqlColType(cd.Type)})
		}
	}
	if _, ok := s.e.DB.Table(t.Name); ok {
		return execErrorf("table %q already exists", catalog.BareName(t.Name))
	}
	s.e.DB.Put(t.Name, rel)
	return nil
}

// sqlColType maps a SQL type name (INT, VARCHAR(32), ...) to the engine's
// value type. Unknown names default to text, the forgiving choice for
// scripts in any dialect.
func sqlColType(sqlType string) catalog.Type {
	t := strings.ToUpper(sqlType)
	if i := strings.IndexByte(t, '('); i >= 0 {
		t = t[:i]
	}
	switch strings.TrimSpace(t) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT":
		return catalog.TypeInt
	case "FLOAT", "REAL", "DOUBLE", "DECIMAL", "NUMERIC", "MONEY":
		return catalog.TypeFloat
	case "BIT", "BOOL", "BOOLEAN":
		return catalog.TypeBool
	default:
		return catalog.TypeText
	}
}

// colIndex returns the index of the named column, or -1.
func colIndex(cols []Col, name string) int {
	for i, c := range cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

func (s *scriptRun) insert(t *sqlast.InsertStmt) error {
	rel, err := s.table(t.Table)
	if err != nil {
		return err
	}
	cols := rel.Cols
	// Map the statement's column list (or the table's natural order) to
	// target column indexes.
	target := make([]int, 0, len(cols))
	if len(t.Columns) == 0 {
		for i := range cols {
			target = append(target, i)
		}
	} else {
		for _, cn := range t.Columns {
			idx := colIndex(cols, cn)
			if idx < 0 {
				return execErrorf("table %q has no column %q", t.Table, cn)
			}
			target = append(target, idx)
		}
	}

	var src [][]Value
	if t.Select != nil {
		res, err := s.e.Query(t.Select)
		if err != nil {
			return err
		}
		src = res.Rows
	} else {
		ev := &env{}
		for _, exprs := range t.Rows {
			row := make([]Value, len(exprs))
			for i, x := range exprs {
				v, err := s.e.evalExpr(x, ev)
				if err != nil {
					return err
				}
				row[i] = v
			}
			src = append(src, row)
		}
	}

	out := make([][]Value, 0, len(src))
	for _, sr := range src {
		if len(sr) != len(target) {
			return execErrorf("INSERT into %q supplies %d values for %d columns",
				t.Table, len(sr), len(target))
		}
		row := make([]Value, len(cols))
		for i := range row {
			row[i] = NullValue
		}
		for i, ti := range target {
			v, err := coerceValue(sr[i], cols[ti].Type, cols[ti].Name)
			if err != nil {
				return err
			}
			row[ti] = v
		}
		out = append(out, row)
	}
	rel.Rows = append(rel.Rows, out...)
	return nil
}

func (s *scriptRun) update(t *sqlast.UpdateStmt) error {
	rel, err := s.table(t.Table)
	if err != nil {
		return err
	}
	cols := rel.Cols
	set := make([]int, len(t.Set))
	for i, a := range t.Set {
		set[i] = colIndex(cols, a.Column)
		if set[i] < 0 {
			return execErrorf("table %q has no column %q", t.Table, a.Column)
		}
	}
	qual := t.Alias
	if qual == "" {
		qual = catalog.BareName(t.Table)
	}
	return s.rewrite(rel, qual, t.Where, func(row []Value, ev *env) ([]Value, error) {
		// Assignments all evaluate against the pre-update row.
		next := make([]Value, len(row))
		copy(next, row)
		for i, a := range t.Set {
			v, err := s.e.evalExpr(a.Value, ev)
			if err != nil {
				return nil, err
			}
			ci := set[i]
			if next[ci], err = coerceValue(v, cols[ci].Type, cols[ci].Name); err != nil {
				return nil, err
			}
		}
		return next, nil
	})
}

// rewrite replaces each row of rel that WHERE matches with set's result, or
// drops it when set is nil (DELETE). Rows are evaluated with their columns
// qualified by qual, and the new row slice is assigned only after every row
// has been evaluated, so a failing statement changes nothing.
func (s *scriptRun) rewrite(rel *Relation, qual string, where sqlast.Expr, set func(row []Value, ev *env) ([]Value, error)) error {
	qcols := make([]Col, len(rel.Cols))
	for i, c := range rel.Cols {
		qcols[i] = Col{Qualifier: qual, Name: c.Name, Type: c.Type}
	}
	scope := &Relation{Cols: qcols}
	out := make([][]Value, 0, len(rel.Rows))
	for _, row := range rel.Rows {
		ev := &env{rel: scope, row: row}
		hit, err := s.e.matchesWhere(where, ev)
		if err != nil {
			return err
		}
		if hit && set == nil {
			continue
		}
		if hit {
			if row, err = set(row, ev); err != nil {
				return err
			}
		}
		out = append(out, row)
	}
	rel.Rows = out
	return nil
}

// matchesWhere evaluates an optional WHERE clause; a nil clause matches.
func (e *Engine) matchesWhere(where sqlast.Expr, ev *env) (bool, error) {
	if where == nil {
		return true, nil
	}
	v, err := e.evalExpr(where, ev)
	if err != nil {
		return false, err
	}
	return !v.Null && v.Truthy(), nil
}

// coerceValue converts a value to a column's declared type: ints widen to
// float columns, integral floats narrow to int columns, NULL passes through,
// and anything else must already match. TypeAny columns accept everything.
func coerceValue(v Value, t catalog.Type, col string) (Value, error) {
	if v.Null || t == catalog.TypeAny || v.Kind == t {
		return v, nil
	}
	switch t {
	case catalog.TypeFloat:
		if v.Kind == catalog.TypeInt {
			return FloatVal(float64(v.I)), nil
		}
	case catalog.TypeInt:
		if v.Kind == catalog.TypeFloat && v.F == float64(int64(v.F)) {
			return IntVal(int64(v.F)), nil
		}
	}
	return NullValue, execErrorf("cannot store %s value in %s column %q",
		v.Kind, t, col)
}

// FormatLiteral renders a value as a SQL literal: single-quoted text,
// %g floats, NULL, true/false. This is the canonical form the state task
// grades against (respparse.ParseState canonicalizes model output to it).
func FormatLiteral(v Value) string {
	if v.Null {
		return "NULL"
	}
	if v.Kind == catalog.TypeText {
		return "'" + v.S + "'"
	}
	return v.String()
}

// FormatRow renders a row in the canonical tuple form "( 1 , 'alpha' )".
func FormatRow(row []Value) string {
	var b strings.Builder
	b.WriteString("(")
	for i, v := range row {
		if i > 0 {
			b.WriteString(" ,")
		}
		b.WriteString(" ")
		b.WriteString(FormatLiteral(v))
	}
	b.WriteString(" )")
	return b.String()
}
