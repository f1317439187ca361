// Package sdss generates the sampled SDSS workload: 285 queries whose
// marginal statistics follow the paper's Table 2 and Figure 1 (query types,
// word counts, table counts, predicate counts, nestedness, aggregate share)
// and whose simulated log runtimes reproduce Figure 5's bimodal split
// (244 queries under 100 ms, 41 above 500 ms).
package sdss

import (
	"strconv"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/sqlast"
	"repro/internal/workload"
)

// Size is the sampled workload size from Table 2.
const Size = 285

// OriginalCount is the original workload size from Table 2.
const OriginalCount = 5_081_188

// spec describes one query to generate.
type spec struct {
	kind      string // SELECT, SET, EXEC, DROP, DECLARE, CREATE, INSERT
	wordMin   int    // lower bound of the target word bucket
	tables    int
	preds     int
	nest      int
	agg       bool
	expensive bool
}

// wordTargets maps bucket index (1-30, 30-60, 60-90, 90-120, 120+) to the
// padding target within the bucket.
var wordTargets = []int{12, 32, 62, 92, 122}

// cheapPartners are joinable with SpecObj and small enough that queries over
// them stay under the 100 ms band; joinCol maps partner -> (specCol, partnerCol).
var cheapPartners = []struct {
	table, specCol, col string
}{
	{"PlateX", "plate", "plate"},
	{"galSpecLine", "specobjid", "specobjid"},
	{"SpecPhotoAll", "specobjid", "specobjid"},
	{"Field", "mjd", "mjd"},
}

// bigPartners form the expensive join paths.
var bigPartners = []struct {
	table, viaTable, viaCol, col string
}{
	{"PhotoObj", "SpecObj", "bestobjid", "objid"},
	{"Neighbors", "PhotoObj", "objid", "objid"},
	{"PhotoTag", "PhotoObj", "objid", "objid"},
}

// Generate builds the SDSS workload deterministically from the seed.
func Generate(seed int64) *workload.Workload {
	g := workload.NewGen(seed)
	schema := schemaWithScratch()
	specs := buildSpecs()
	// Deterministic shuffle so buckets interleave like a real log sample.
	g.R.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })

	cm := engine.NewCostModel(engine.SDSSStats())

	w := &workload.Workload{Name: "SDSS", Schema: schema, OriginalCount: OriginalCount}
	for _, sp := range specs {
		stmt := buildStatement(g, sp)
		sql := sqlast.Print(stmt)
		q := workload.Query{SQL: sql, Stmt: stmt, SchemaName: "sdss"}
		q.ElapsedMS = cm.ElapsedMS(stmt, sql)
		w.Queries = append(w.Queries, q)
	}
	w.Finalize("sdss")
	return w
}

// schemaWithScratch extends the SDSS schema with the scratch tables that
// CREATE/INSERT statements in the log reference, so the oracle resolves them.
func schemaWithScratch() *catalog.Schema {
	s := catalog.SDSS()
	s.Add(catalog.T("MyResults",
		"objid", catalog.TypeInt, "ra", catalog.TypeFloat, "dec", catalog.TypeFloat,
		"z", catalog.TypeFloat,
	))
	s.Add(catalog.T("tmpGal",
		"objid", catalog.TypeInt, "plate", catalog.TypeInt, "z", catalog.TypeFloat,
	))
	return s
}

// buildSpecs lays out the 285 query specifications whose marginals follow
// Figure 1. See DESIGN.md for the bucket arithmetic.
func buildSpecs() []spec {
	var specs []spec
	add := func(n int, s spec) {
		for i := 0; i < n; i++ {
			specs = append(specs, s)
		}
	}
	// Non-SELECT statements (Figure 1a): SET 11, EXEC 8, DROP 6, DECLARE 4,
	// CREATE 3, INSERT 2.
	add(11, spec{kind: "SET"})
	add(8, spec{kind: "EXEC"})
	add(6, spec{kind: "DROP"})
	add(4, spec{kind: "DECLARE"})
	add(3, spec{kind: "CREATE"})
	add(2, spec{kind: "INSERT"})

	sel := func(bucket, tables, preds, nest int, agg, expensive bool) spec {
		return spec{kind: "SELECT", wordMin: wordTargets[bucket], tables: tables,
			preds: preds, nest: nest, agg: agg, expensive: expensive}
	}
	// Bucket 0 (1-30 words): 78 SELECTs.
	add(30, sel(0, 1, 1, 0, false, false))
	add(10, sel(0, 1, 1, 0, true, false))
	add(15, sel(0, 1, 2, 0, false, false))
	add(14, sel(0, 2, 2, 0, false, false))
	add(9, sel(0, 2, 3, 0, false, false))
	// Bucket 1 (30-60): 33.
	add(17, sel(1, 2, 3, 0, false, false))
	add(5, sel(1, 2, 3, 0, true, false))
	add(3, sel(1, 2, 3, 0, false, false))
	add(8, sel(1, 3, 3, 0, false, false))
	// Bucket 2 (60-90): 14.
	add(6, sel(2, 2, 4, 0, false, false))
	add(2, sel(2, 2, 4, 1, false, false))
	add(6, sel(2, 3, 4, 0, false, false))
	// Bucket 3 (90-120): 83, of which 21 expensive, 14 nested, 6 aggregate.
	add(21, sel(3, 3, 5, 0, false, true))
	add(2, sel(3, 2, 4, 1, false, false))
	add(7, sel(3, 3, 4, 2, false, false))
	add(5, sel(3, 3, 5, 3, false, false))
	add(6, sel(3, 2, 5, 0, true, false))
	add(13, sel(3, 2, 4, 0, false, false))
	add(19, sel(3, 3, 5, 0, false, false))
	add(10, sel(3, 4, 5, 0, false, false))
	// Bucket 4 (120+): 43, of which 20 expensive, 18 nested.
	add(5, sel(4, 1, 5, 0, false, false))
	add(3, sel(4, 3, 6, 3, false, false))
	add(3, sel(4, 3, 7, 4, false, false))
	add(5, sel(4, 3, 7, 5, false, false))
	add(7, sel(4, 3, 7, 6, false, false))
	add(10, sel(4, 4, 6, 0, false, true))
	add(5, sel(4, 5, 7, 0, false, true))
	add(5, sel(4, 4, 7, 0, false, true))
	return specs
}

func buildStatement(g *workload.Gen, sp spec) sqlast.Stmt {
	switch sp.kind {
	case "SELECT":
		return buildSelect(g, sp)
	case "SET":
		vars := []string{"@z", "@maxra", "@limit", "@mjd"}
		return &sqlast.SetVarStmt{Name: workload.Pick(g, vars), Value: g.FloatLit(0, 100)}
	case "EXEC":
		procs := []string{"dbo.fGetNearbyObjEq", "dbo.spGetNeighbors", "dbo.fGetObjFromRect"}
		return &sqlast.ExecStmt{
			Proc: workload.Pick(g, procs),
			Args: []sqlast.Expr{g.FloatLit(0, 360), g.FloatLit(-90, 90), g.IntLit(1, 10)},
		}
	case "DROP":
		return &sqlast.DropStmt{Kind: "TABLE", Name: workload.Pick(g, []string{"MyResults", "tmpGal"})}
	case "DECLARE":
		return &sqlast.DeclareStmt{Name: "@z", Type: "FLOAT", Init: g.FloatLit(0, 3)}
	case "CREATE":
		switch g.R.Intn(3) {
		case 0:
			return &sqlast.CreateTableStmt{Name: "MyResults", Cols: []sqlast.ColumnDef{
				{Name: "objid", Type: "BIGINT"}, {Name: "ra", Type: "FLOAT"},
				{Name: "dec", Type: "FLOAT"}, {Name: "z", Type: "FLOAT"},
			}}
		case 1:
			return &sqlast.CreateTableStmt{Name: "tmpGal", AsSelect: smallSelect(g)}
		default:
			return &sqlast.CreateViewStmt{Name: "vHighZ", Select: smallSelect(g)}
		}
	case "INSERT":
		if g.R.Intn(2) == 0 {
			return &sqlast.InsertStmt{Table: "MyResults", Columns: []string{"objid", "ra", "dec", "z"},
				Rows: [][]sqlast.Expr{{g.IntLit(1, 1e6), g.FloatLit(0, 360), g.FloatLit(-90, 90), g.FloatLit(0, 3)}}}
		}
		return &sqlast.InsertStmt{Table: "tmpGal", Select: &sqlast.SelectStmt{
			Items: []sqlast.SelectItem{{Expr: sqlast.Col("", "bestobjid")}, {Expr: sqlast.Col("", "plate")}, {Expr: sqlast.Col("", "z")}},
			From:  []sqlast.TableRef{&sqlast.TableName{Name: "SpecObj"}},
			Where: &sqlast.Binary{Op: ">", L: sqlast.Col("", "z"), R: g.FloatLit(0, 2)},
		}}
	default:
		panic("sdss: unknown spec kind " + sp.kind)
	}
}

func smallSelect(g *workload.Gen) *sqlast.SelectStmt {
	return &sqlast.SelectStmt{
		Items: []sqlast.SelectItem{
			{Expr: sqlast.Col("", "plate")}, {Expr: sqlast.Col("", "mjd")}, {Expr: sqlast.Col("", "z")},
		},
		From:  []sqlast.TableRef{&sqlast.TableName{Name: "SpecObj"}},
		Where: &sqlast.Binary{Op: ">", L: sqlast.Col("", "z"), R: g.FloatLit(0.2, 2)},
	}
}

// tableSpec is a chosen FROM participant.
type tableSpec struct {
	name, alias string
	joinCond    sqlast.Expr // join to an earlier participant; nil for the first
}

func buildSelect(g *workload.Gen, sp spec) *sqlast.SelectStmt {
	parts := chooseTables(g, sp)
	sel := &sqlast.SelectStmt{}

	// FROM: a left-deep explicit join tree.
	var from sqlast.TableRef = &sqlast.TableName{Name: parts[0].name, Alias: parts[0].alias}
	for _, p := range parts[1:] {
		from = &sqlast.Join{
			Left:  from,
			Right: &sqlast.TableName{Name: p.name, Alias: p.alias},
			Type:  "INNER",
			On:    p.joinCond,
		}
	}
	sel.From = []sqlast.TableRef{from}

	qualify := len(parts) > 1
	schema := schemaWithScratch()

	// Projection and optional aggregation.
	if sp.agg {
		groupCol := pickColumn(g, schema, parts, qualify, catalog.TypeAny)
		sel.Items = []sqlast.SelectItem{
			{Expr: groupCol},
			{Expr: &sqlast.FuncCall{Name: "COUNT", Star: true}, Alias: "n"},
		}
		sel.GroupBy = []sqlast.Expr{sqlast.CloneExpr(groupCol)}
	} else {
		n := 2 + g.R.Intn(3)
		for i := 0; i < n; i++ {
			sel.Items = append(sel.Items, sqlast.SelectItem{Expr: pickColumn(g, schema, parts, qualify, catalog.TypeAny)})
		}
	}

	// Predicates. One slot is consumed by the nested chain when present.
	var conds []sqlast.Expr
	npreds := sp.preds
	if sp.nest > 0 && npreds > 0 {
		npreds--
	}
	for i := 0; i < npreds; i++ {
		part := parts[g.R.Intn(len(parts))]
		col := pickTypedColumn(g, schema, part.name)
		qual := ""
		if qualify {
			qual = part.alias
		}
		conds = append(conds, g.Predicate(qual, col))
	}
	if sp.nest > 0 {
		conds = append(conds, nestChain(g, parts, qualify, sp.nest))
	}
	sel.Where = sqlast.And(conds...)

	// Pad the projection into the word bucket without touching FROM/WHERE.
	pool := columnPool(schema, parts, qualify)
	if sp.agg {
		aggPool := make([]sqlast.Expr, len(pool))
		for i, e := range pool {
			name := "MIN"
			if i%2 == 0 {
				name = "MAX"
			}
			aggPool[i] = &sqlast.FuncCall{Name: name, Args: []sqlast.Expr{e}}
		}
		g.PadProjection(sel, aggPool, sp.wordMin)
	} else {
		g.PadProjection(sel, pool, sp.wordMin)
	}
	return sel
}

// chooseTables picks FROM participants per the spec. Cheap queries join the
// SpecObj star over small tables; expensive queries pull in at least two of
// the production-scale relations.
func chooseTables(g *workload.Gen, sp spec) []tableSpec {
	parts := []tableSpec{{name: "SpecObj", alias: "s"}}
	if sp.tables <= 1 {
		if sp.nest > 0 {
			// The nest chain references PlateX; a single-table nested query
			// still only counts tables it names, so this is fine.
			return parts
		}
		return parts
	}
	aliasFor := map[string]string{
		"PlateX": "px", "galSpecLine": "gl", "SpecPhotoAll": "sp", "Field": "f",
		"PhotoObj": "p", "Neighbors": "nb", "PhotoTag": "pt",
	}
	if sp.expensive {
		// SpecObj -> PhotoObj -> Neighbors spine; Neighbors (the largest
		// relation) keeps three-table plans firmly above the 500 ms band.
		parts = append(parts, tableSpec{
			name: "PhotoObj", alias: "p",
			joinCond: sqlast.Eq(sqlast.Col("s", "bestobjid"), sqlast.Col("p", "objid")),
		})
		parts = append(parts, tableSpec{
			name: "Neighbors", alias: "nb",
			joinCond: sqlast.Eq(sqlast.Col("p", "objid"), sqlast.Col("nb", "objid")),
		})
		if sp.tables >= 4 {
			parts = append(parts, tableSpec{
				name: "PhotoTag", alias: "pt",
				joinCond: sqlast.Eq(sqlast.Col("p", "objid"), sqlast.Col("pt", "objid")),
			})
		}
		// Fill any remaining slots with cheap star partners.
		for i := 4; i < sp.tables; i++ {
			cp := cheapPartners[(i-4)%len(cheapPartners)]
			parts = append(parts, tableSpec{
				name: cp.table, alias: aliasFor[cp.table],
				joinCond: sqlast.Eq(sqlast.Col("s", cp.specCol), sqlast.Col(aliasFor[cp.table], cp.col)),
			})
		}
		return parts
	}
	// Cheap: star join over the small partners. Nested specs always include
	// PlateX so the IN chain has its anchor.
	order := g.R.Perm(len(cheapPartners))
	if sp.nest > 0 {
		for i, idx := range order {
			if cheapPartners[idx].table == "PlateX" {
				order[0], order[i] = order[i], order[0]
			}
		}
	}
	for i := 0; i < sp.tables-1 && i < len(order); i++ {
		cp := cheapPartners[order[i]]
		parts = append(parts, tableSpec{
			name: cp.table, alias: aliasFor[cp.table],
			joinCond: sqlast.Eq(sqlast.Col("s", cp.specCol), sqlast.Col(aliasFor[cp.table], cp.col)),
		})
	}
	return parts
}

// nestChain builds an IN-subquery chain of the given depth alternating
// between PlateX and SpecObj, anchored on the outer SpecObj alias.
func nestChain(g *workload.Gen, parts []tableSpec, qualify bool, depth int) sqlast.Expr {
	outer := "s"
	if !qualify {
		outer = ""
	}
	return &sqlast.In{
		X:   sqlast.Col(outer, "plate"),
		Sub: nestLevel(g, 1, depth),
	}
}

func nestLevel(g *workload.Gen, level, depth int) *sqlast.SelectStmt {
	table := "PlateX"
	if level%2 == 0 {
		table = "SpecObj"
	}
	alias := "n" + strconv.Itoa(level)
	sel := &sqlast.SelectStmt{
		Items: []sqlast.SelectItem{{Expr: sqlast.Col(alias, "plate")}},
		From:  []sqlast.TableRef{&sqlast.TableName{Name: table, Alias: alias}},
	}
	cond := &sqlast.Binary{Op: ">", L: sqlast.Col(alias, "mjd"), R: g.IntLit(50000, 59000)}
	if level < depth {
		sel.Where = sqlast.And(cond, &sqlast.In{
			X:   sqlast.Col(alias, "plate"),
			Sub: nestLevel(g, level+1, depth),
		})
	} else {
		sel.Where = cond
	}
	return sel
}

// pickColumn returns a (possibly qualified) reference to a random column of
// a random chosen table.
func pickColumn(g *workload.Gen, schema *catalog.Schema, parts []tableSpec, qualify bool, want catalog.Type) *sqlast.ColumnRef {
	part := parts[g.R.Intn(len(parts))]
	col := pickTypedColumn(g, schema, part.name)
	if want != catalog.TypeAny {
		tab, _ := schema.Table(part.name)
		for _, c := range tab.Columns {
			if c.Type == want {
				col = c
				break
			}
		}
	}
	qual := ""
	if qualify {
		qual = part.alias
	}
	return sqlast.Col(qual, col.Name)
}

func pickTypedColumn(g *workload.Gen, schema *catalog.Schema, table string) catalog.Column {
	tab, ok := schema.Table(table)
	if !ok || len(tab.Columns) == 0 {
		return catalog.Column{Name: "objid", Type: catalog.TypeInt}
	}
	return tab.Columns[g.R.Intn(len(tab.Columns))]
}

// columnPool returns qualified references to every column of the chosen
// tables, used for projection padding.
func columnPool(schema *catalog.Schema, parts []tableSpec, qualify bool) []sqlast.Expr {
	var pool []sqlast.Expr
	for _, part := range parts {
		tab, ok := schema.Table(part.name)
		if !ok {
			continue
		}
		qual := ""
		if qualify {
			qual = part.alias
		}
		for _, c := range tab.Columns {
			pool = append(pool, sqlast.Col(qual, c.Name))
		}
	}
	return pool
}
