package datagen

// DML/transaction script generation for the state task and the store
// differential fuzzer. A script is self-contained: it creates one small
// table (columns borrowed from a real schema table), seeds it with INSERTs,
// then runs a few UPDATE/DELETE/INSERT statements, some wrapped in a
// BEGIN..COMMIT or BEGIN..ROLLBACK block — so answering "what does the table
// contain afterwards" requires tracking both DML semantics and transaction
// visibility.

import (
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlast"
)

// Script is a generated DML workload over one table.
type Script struct {
	Table string // the table every statement targets
	Stmts []sqlast.Stmt
	SQL   string // canonical single-line form, statements joined by " ; "
}

// scriptCol is a chosen column with its SQL declaration type.
type scriptCol struct {
	name    string
	typ     catalog.Type
	sqlType string
}

func sqlTypeName(t catalog.Type) string {
	switch t {
	case catalog.TypeInt:
		return "INT"
	case catalog.TypeFloat:
		return "FLOAT"
	case catalog.TypeBool:
		return "BIT"
	default:
		return "VARCHAR(32)"
	}
}

// GenScript generates a deterministic random script whose table borrows
// column names and types from the donor table.
func GenScript(donor *catalog.Table, r *rand.Rand) Script {
	name := strings.ToLower(catalog.BareName(donor.Name)) + "_wk"

	// Column 0 is always an int key (dense 1..N), then up to two donor
	// columns of any type.
	cols := []scriptCol{}
	keyName := "id"
	for _, c := range donor.Columns {
		if c.Type == catalog.TypeInt {
			keyName = c.Name
			break
		}
	}
	cols = append(cols, scriptCol{name: keyName, typ: catalog.TypeInt, sqlType: "INT"})
	for _, c := range donor.Columns {
		if len(cols) >= 3 {
			break
		}
		if strings.EqualFold(c.Name, keyName) || c.Type == catalog.TypeAny {
			continue
		}
		cols = append(cols, scriptCol{name: c.Name, typ: c.Type, sqlType: sqlTypeName(c.Type)})
	}
	if len(cols) == 1 {
		cols = append(cols, scriptCol{name: "label", typ: catalog.TypeText, sqlType: "VARCHAR(32)"})
	}

	g := &scriptGen{r: r, table: name, cols: cols}
	g.emitCreate()
	seed := 4 + r.Intn(4)
	g.emitInsert(seed)
	ops := 3 + r.Intn(4)
	txnDone := false
	for i := 0; i < ops; i++ {
		if !txnDone && r.Intn(100) < 40 {
			txnDone = true
			g.stmts = append(g.stmts, &sqlast.TxnStmt{Kind: "BEGIN"})
			inner := 1 + r.Intn(3)
			for j := 0; j < inner; j++ {
				g.emitDML()
			}
			end := "COMMIT"
			if r.Intn(2) == 0 {
				end = "ROLLBACK"
			}
			g.stmts = append(g.stmts, &sqlast.TxnStmt{Kind: end})
			continue
		}
		g.emitDML()
	}

	return Script{Table: name, Stmts: g.stmts, SQL: scriptSQL(g.stmts)}
}

type scriptGen struct {
	r       *rand.Rand
	table   string
	cols    []scriptCol
	nextKey int
	stmts   []sqlast.Stmt
}

func (g *scriptGen) emitCreate() {
	defs := make([]sqlast.ColumnDef, len(g.cols))
	for i, c := range g.cols {
		defs[i] = sqlast.ColumnDef{Name: c.name, Type: c.sqlType}
	}
	g.stmts = append(g.stmts, &sqlast.CreateTableStmt{Name: g.table, Cols: defs})
}

// value generates a literal for a column. Floats stay on quarter steps so
// every rendering (engine %g, model answers) agrees byte-for-byte.
func (g *scriptGen) value(c scriptCol, key int) sqlast.Expr {
	switch c.typ {
	case catalog.TypeInt:
		if key > 0 {
			return sqlast.Number(strconv.Itoa(key))
		}
		return sqlast.Number(strconv.Itoa(g.r.Intn(90) + 1))
	case catalog.TypeFloat:
		f := float64(g.r.Intn(200)) / 4
		return sqlast.Number(strconv.FormatFloat(f, 'g', -1, 64))
	case catalog.TypeBool:
		if g.r.Intn(2) == 0 {
			return &sqlast.Literal{Kind: sqlast.LitBool, Text: "TRUE"}
		}
		return &sqlast.Literal{Kind: sqlast.LitBool, Text: "FALSE"}
	default:
		return sqlast.Str(textPool[g.r.Intn(len(textPool))])
	}
}

func (g *scriptGen) emitInsert(n int) {
	names := make([]string, len(g.cols))
	for i, c := range g.cols {
		names[i] = c.name
	}
	rows := make([][]sqlast.Expr, n)
	for i := range rows {
		g.nextKey++
		row := make([]sqlast.Expr, len(g.cols))
		for j, c := range g.cols {
			if j == 0 {
				row[j] = sqlast.Number(strconv.Itoa(g.nextKey))
			} else {
				row[j] = g.value(c, 0)
			}
		}
		rows[i] = row
	}
	g.stmts = append(g.stmts, &sqlast.InsertStmt{Table: g.table, Columns: names, Rows: rows})
}

// where generates a predicate over the key column that hits part of the
// seeded key range.
func (g *scriptGen) where() sqlast.Expr {
	key := sqlast.Col("", g.cols[0].name)
	pivot := sqlast.Number(strconv.Itoa(g.r.Intn(g.nextKey) + 1))
	switch g.r.Intn(4) {
	case 0:
		return &sqlast.Binary{Op: "<", L: key, R: pivot}
	case 1:
		return &sqlast.Binary{Op: ">", L: key, R: pivot}
	default:
		return sqlast.Eq(key, pivot)
	}
}

func (g *scriptGen) emitDML() {
	switch g.r.Intn(10) {
	case 0, 1, 2: // INSERT one or two fresh rows
		g.emitInsert(1 + g.r.Intn(2))
	case 3, 4: // DELETE
		g.stmts = append(g.stmts, &sqlast.DeleteStmt{Table: g.table, Where: g.where()})
	default: // UPDATE a non-key column
		c := g.cols[1+g.r.Intn(len(g.cols)-1)]
		var val sqlast.Expr
		if c.typ.Numeric() && g.r.Intn(3) == 0 {
			// Arithmetic on the old value: col = col + k.
			val = &sqlast.Binary{Op: "+", L: sqlast.Col("", c.name),
				R: sqlast.Number(strconv.Itoa(g.r.Intn(5) + 1))}
		} else {
			val = g.value(c, 0)
		}
		g.stmts = append(g.stmts, &sqlast.UpdateStmt{
			Table: g.table,
			Set:   []sqlast.Assignment{{Column: c.name, Value: val}},
			Where: g.where(),
		})
	}
}

// scriptSQL joins statements into the canonical script form.
func scriptSQL(stmts []sqlast.Stmt) string {
	parts := make([]string, len(stmts))
	for i, s := range stmts {
		parts[i] = sqlast.Print(s)
	}
	return strings.Join(parts, " ; ")
}
