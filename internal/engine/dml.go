package engine

// DML execution: the executor side of INSERT/UPDATE/DELETE, CREATE/DROP
// TABLE, and BEGIN/COMMIT/ROLLBACK. Statements evaluate their expressions
// with the engine's scalar evaluator and apply the resulting row changes to
// a MemStore — the state task's ground-truth oracle at benchmark build time
// and the executor behind the simulated models' state answers.

import (
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlast"
)

// MutOp is the decision a Mutate callback returns for one row.
type MutOp int

// Mutate decisions.
const (
	MutKeep MutOp = iota
	MutUpdate
	MutDelete
)

// Apply executes one DML/DDL/transaction statement against the store.
// SELECTs are rejected — they go through Query.
func (e *Engine) Apply(m *MemStore, stmt sqlast.Stmt) error {
	switch t := stmt.(type) {
	case *sqlast.CreateTableStmt:
		return e.applyCreate(m, t)
	case *sqlast.DropStmt:
		if !strings.EqualFold(t.Kind, "TABLE") {
			return execErrorf("DROP %s is not supported by the DML executor", t.Kind)
		}
		return m.DropTable(catalog.BareName(t.Name))
	case *sqlast.InsertStmt:
		return e.applyInsert(m, t)
	case *sqlast.UpdateStmt:
		_, err := e.applyUpdate(m, t)
		return err
	case *sqlast.DeleteStmt:
		_, err := e.applyDelete(m, t)
		return err
	case *sqlast.TxnStmt:
		switch t.Kind {
		case "BEGIN":
			return m.Begin()
		case "COMMIT":
			return m.Commit()
		case "ROLLBACK":
			return m.Rollback()
		}
		return execErrorf("unknown transaction statement %q", t.Kind)
	default:
		return execErrorf("statement %T cannot be applied to a store", stmt)
	}
}

// ApplyScript executes a parsed statement sequence in order, stopping at the
// first error.
func (e *Engine) ApplyScript(m *MemStore, stmts []sqlast.Stmt) error {
	for _, s := range stmts {
		if err := e.Apply(m, s); err != nil {
			return err
		}
	}
	return nil
}

// RunScript executes a script on a fresh empty database and returns it. A
// transaction block the script leaves open is rolled back, so only committed
// and auto-committed changes remain. This is the state task's oracle: the
// benchmark labels its scripts with it, and the simulated models and
// cmd/modelstub answer with it, so labels and answers share one executor.
func RunScript(stmts []sqlast.Stmt) (*DB, error) {
	db := NewDB(nil)
	ms := NewMemStore(db)
	if err := New(db).ApplyScript(ms, stmts); err != nil {
		return nil, err
	}
	if ms.InTxn() {
		ms.Rollback()
	}
	return db, nil
}

func (e *Engine) applyCreate(m *MemStore, t *sqlast.CreateTableStmt) error {
	name := catalog.BareName(t.Name)
	if t.AsSelect != nil {
		rel, err := e.Query(t.AsSelect)
		if err != nil {
			return err
		}
		cols := make([]Col, len(rel.Cols))
		for i, c := range rel.Cols {
			cols[i] = Col{Name: c.Name, Type: c.Type}
		}
		if err := m.CreateTable(name, cols); err != nil {
			return err
		}
		return m.Append(name, rel.Rows)
	}
	if len(t.Cols) == 0 {
		return execErrorf("CREATE TABLE %s has no columns", t.Name)
	}
	cols := make([]Col, len(t.Cols))
	for i, cd := range t.Cols {
		cols[i] = Col{Name: cd.Name, Type: ColTypeFromSQL(cd.Type)}
	}
	return m.CreateTable(name, cols)
}

// ColTypeFromSQL maps a SQL type name (INT, VARCHAR(32), ...) to the engine's
// value type. Unknown names default to text, the forgiving choice for log
// replay.
func ColTypeFromSQL(sqlType string) catalog.Type {
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

func (e *Engine) applyInsert(m *MemStore, t *sqlast.InsertStmt) error {
	name := catalog.BareName(t.Table)
	cols, ok := m.TableCols(name)
	if !ok {
		return execErrorf("table %q does not exist", t.Table)
	}
	// Map the statement's column list (or the table's natural order) to
	// target column indexes.
	target := make([]int, 0, len(cols))
	if len(t.Columns) == 0 {
		for i := range cols {
			target = append(target, i)
		}
	} else {
		for _, cn := range t.Columns {
			idx := -1
			for i, c := range cols {
				if strings.EqualFold(c.Name, cn) {
					idx = i
					break
				}
			}
			if idx < 0 {
				return execErrorf("table %q has no column %q", t.Table, cn)
			}
			target = append(target, idx)
		}
	}

	var src [][]Value
	if t.Select != nil {
		rel, err := e.Query(t.Select)
		if err != nil {
			return err
		}
		src = rel.Rows
	} else {
		ev := &env{}
		for _, exprs := range t.Rows {
			row := make([]Value, len(exprs))
			for i, x := range exprs {
				v, err := e.evalExpr(x, ev)
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
	return m.Append(name, out)
}

func (e *Engine) applyUpdate(m *MemStore, t *sqlast.UpdateStmt) (int, error) {
	name := catalog.BareName(t.Table)
	cols, ok := m.TableCols(name)
	if !ok {
		return 0, execErrorf("table %q does not exist", t.Table)
	}
	qual := t.Alias
	if qual == "" {
		qual = name
	}
	qcols := make([]Col, len(cols))
	for i, c := range cols {
		qcols[i] = Col{Qualifier: qual, Name: c.Name, Type: c.Type}
	}
	set := make([]int, len(t.Set))
	for i, a := range t.Set {
		idx := -1
		for j, c := range cols {
			if strings.EqualFold(c.Name, a.Column) {
				idx = j
				break
			}
		}
		if idx < 0 {
			return 0, execErrorf("table %q has no column %q", t.Table, a.Column)
		}
		set[i] = idx
	}
	rel := &Relation{Cols: qcols}
	return m.Mutate(name, func(row []Value) (MutOp, []Value, error) {
		ev := &env{rel: rel, row: row}
		hit, err := e.matchesWhere(t.Where, ev)
		if err != nil || !hit {
			return MutKeep, nil, err
		}
		// Assignments all evaluate against the pre-update row.
		next := make([]Value, len(row))
		copy(next, row)
		for i, a := range t.Set {
			v, err := e.evalExpr(a.Value, ev)
			if err != nil {
				return MutKeep, nil, err
			}
			ci := set[i]
			cv, err := coerceValue(v, cols[ci].Type, cols[ci].Name)
			if err != nil {
				return MutKeep, nil, err
			}
			next[ci] = cv
		}
		return MutUpdate, next, nil
	})
}

func (e *Engine) applyDelete(m *MemStore, t *sqlast.DeleteStmt) (int, error) {
	name := catalog.BareName(t.Table)
	cols, ok := m.TableCols(name)
	if !ok {
		return 0, execErrorf("table %q does not exist", t.Table)
	}
	qcols := make([]Col, len(cols))
	for i, c := range cols {
		qcols[i] = Col{Qualifier: name, Name: c.Name, Type: c.Type}
	}
	rel := &Relation{Cols: qcols}
	return m.Mutate(name, func(row []Value) (MutOp, []Value, error) {
		ev := &env{rel: rel, row: row}
		hit, err := e.matchesWhere(t.Where, ev)
		if err != nil || !hit {
			return MutKeep, nil, err
		}
		return MutDelete, nil, nil
	})
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

// ---------------------------------------------------------------------------
// MemStore: the DML target over a DB's relations. Rollback restores a
// snapshot of the table map taken at Begin; since every mutation either
// replaces a table's Rows slice wholesale (Mutate) or appends past the
// snapshot's length (Append), the snapshot's slice headers still see the
// pre-transaction rows.

// MemStore applies DML to a DB's in-memory relations. It is the state task's
// ground-truth oracle at benchmark build time and the executor behind
// sim/modelstub answers for the task. Operations issued outside
// BEGIN..COMMIT auto-commit. Not safe for concurrent use.
type MemStore struct {
	db   *DB
	snap map[string]*Relation // nil when no transaction is open
}

// NewMemStore returns a MemStore over the database.
func NewMemStore(db *DB) *MemStore { return &MemStore{db: db} }

// CreateTable creates an empty table. Errors if it already exists.
func (m *MemStore) CreateTable(name string, cols []Col) error {
	key := strings.ToLower(name)
	if _, ok := m.db.Tables[key]; ok {
		return execErrorf("table %q already exists", name)
	}
	own := make([]Col, len(cols))
	for i, c := range cols {
		own[i] = Col{Name: c.Name, Type: c.Type}
	}
	m.db.Tables[key] = &Relation{Cols: own}
	return nil
}

// DropTable removes a table. Errors if it does not exist.
func (m *MemStore) DropTable(name string) error {
	key := strings.ToLower(name)
	if _, ok := m.db.Tables[key]; !ok {
		return execErrorf("table %q does not exist", name)
	}
	delete(m.db.Tables, key)
	return nil
}

// TableCols reports a table's columns.
func (m *MemStore) TableCols(name string) ([]Col, bool) {
	rel, ok := m.db.Tables[strings.ToLower(name)]
	if !ok {
		return nil, false
	}
	return rel.Cols, true
}

// Append adds rows (already coerced to the table's column types). Errors
// if a row's arity does not match the table.
func (m *MemStore) Append(name string, rows [][]Value) error {
	rel, ok := m.db.Tables[strings.ToLower(name)]
	if !ok {
		return execErrorf("table %q does not exist", name)
	}
	for _, r := range rows {
		if len(r) != len(rel.Cols) {
			return execErrorf("row arity %d does not match table %q (%d columns)",
				len(r), name, len(rel.Cols))
		}
		own := make([]Value, len(r))
		copy(own, r)
		rel.Rows = append(rel.Rows, own)
	}
	return nil
}

// Mutate visits every row in scan order and applies the callback's
// decision: MutKeep leaves it, MutUpdate replaces it with the returned row,
// MutDelete removes it. All decisions are collected before any row changes,
// so the visit order never observes in-flight mutations. Returns the number
// of rows changed.
func (m *MemStore) Mutate(name string, fn func(row []Value) (MutOp, []Value, error)) (int, error) {
	rel, ok := m.db.Tables[strings.ToLower(name)]
	if !ok {
		return 0, execErrorf("table %q does not exist", name)
	}
	type change struct {
		idx int
		op  MutOp
		row []Value
	}
	var changes []change
	for i, row := range rel.Rows {
		op, next, err := fn(row)
		if err != nil {
			return 0, err
		}
		if op != MutKeep {
			changes = append(changes, change{idx: i, op: op, row: next})
		}
	}
	if len(changes) == 0 {
		return 0, nil
	}
	out := make([][]Value, 0, len(rel.Rows))
	ci := 0
	for i, row := range rel.Rows {
		if ci < len(changes) && changes[ci].idx == i {
			c := changes[ci]
			ci++
			if c.op == MutDelete {
				continue
			}
			row = c.row
		}
		out = append(out, row)
	}
	rel.Rows = out
	return len(changes), nil
}

// Begin opens an explicit transaction. Errors if one is already open.
func (m *MemStore) Begin() error {
	if m.snap != nil {
		return execErrorf("transaction already open")
	}
	m.snap = make(map[string]*Relation, len(m.db.Tables))
	for k, rel := range m.db.Tables {
		m.snap[k] = &Relation{Cols: rel.Cols, Rows: rel.Rows}
	}
	return nil
}

// Commit keeps the transaction's changes. Errors if none is open.
func (m *MemStore) Commit() error {
	if m.snap == nil {
		return execErrorf("no open transaction")
	}
	m.snap = nil
	return nil
}

// Rollback restores the tables as they were at Begin. Errors if no
// transaction is open.
func (m *MemStore) Rollback() error {
	if m.snap == nil {
		return execErrorf("no open transaction")
	}
	m.db.Tables = make(map[string]*Relation, len(m.snap))
	for k, rel := range m.snap {
		m.db.Tables[k] = &Relation{Cols: rel.Cols, Rows: rel.Rows}
	}
	m.snap = nil
	return nil
}

// InTxn reports whether an explicit transaction is open.
func (m *MemStore) InTxn() bool { return m.snap != nil }
