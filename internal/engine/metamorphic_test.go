package engine_test

// Metamorphic checks of the execution engine. Neither needs a second
// engine: each runs a query and variants of it that, by the semantics of
// SQL's three-valued logic, must return related results.
//
//   - TLP, ternary logic partitioning (Rigger and Su, "Finding Bugs in
//     Database Systems via Query Partitioning", OOPSLA 2020): for a pivot
//     predicate p, the rows of Q are, as a bag, the rows of Q∧p, Q∧¬p and
//     Q∧(p IS NULL). ¬p is written with the negation moved into p's top
//     operator (IN for NOT IN, >= for <, De Morgan over AND and OR), so the
//     partitions run different operators and a three-valued-logic slip in
//     one of them loses or repeats rows. The aggregate variant folds the
//     partitions' COUNT, SUM, MIN and MAX into Q's; the HAVING variant
//     partitions groups instead of rows.
//   - NoREC (Rigger and Su, ESEC/FSE 2020): COUNT(*) … WHERE R AND p
//     equals SUM(CASE WHEN p THEN 1 ELSE 0 END) … WHERE R over the same
//     FROM, so the filter and the projection must agree on p.
//
// With a conjunct of a query's WHERE (or HAVING) as the pivot, Q is the
// query without that conjunct and Q∧p is the query itself.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/equiv"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
)

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// oracleCounts tallies one oracle's checks. A check is skipped when its
// base query fails, or when the variants holding the pivot all fail alike
// (the pivot itself cannot be evaluated).
type oracleCounts struct {
	checked, baseErrs, pivotErrs int
}

func (c oracleCounts) String() string {
	return fmt.Sprintf("%d checks, %d skipped because the base query fails, %d because the pivot does",
		c.checked, c.baseErrs, c.pivotErrs)
}

// oracle runs the metamorphic checks on one engine.
type oracle struct {
	e          *engine.Engine
	tlp, norec oracleCounts
}

// checkConjuncts runs every check that applies to sel with each top-level
// conjunct of its WHERE, and then of its HAVING, as the pivot.
func (o *oracle) checkConjuncts(sel *sqlast.SelectStmt) error {
	where := sqlast.Flatten("AND", sel.Where)
	for i, p := range where {
		if err := o.checkWhere(sel, without(where, i), p); err != nil {
			return err
		}
	}
	having := sqlast.Flatten("AND", sel.Having)
	for i, p := range having {
		if err := o.tlpHaving(sel, without(having, i), p); err != nil {
			return err
		}
	}
	return nil
}

// checkPivot runs the WHERE-level checks on sel with p as an added pivot.
func (o *oracle) checkPivot(sel *sqlast.SelectStmt, p sqlast.Expr) error {
	return o.checkWhere(sel, sqlast.Flatten("AND", sel.Where), p)
}

// checkHavingPivot runs the HAVING variant of TLP on sel with p as an added
// pivot.
func (o *oracle) checkHavingPivot(sel *sqlast.SelectStmt, p sqlast.Expr) error {
	return o.tlpHaving(sel, sqlast.Flatten("AND", sel.Having), p)
}

func (o *oracle) checkWhere(sel *sqlast.SelectStmt, rest []sqlast.Expr, p sqlast.Expr) error {
	if err := o.noREC(sel, rest, p); err != nil {
		return err
	}
	switch {
	case !partitionable(sel):
		return nil
	case !grouped(sel):
		return o.tlpRows(sel, rest, p)
	case len(sel.GroupBy) == 0 && sel.Having == nil && !sel.Distinct:
		return o.tlpAggregate(sel, rest, p)
	}
	return nil
}

// partitionable reports whether the union of a query block's partitions
// can be compared with the block: no set operation, TOP, LIMIT or OFFSET.
func partitionable(sel *sqlast.SelectStmt) bool {
	return sel.SetOp == nil && sel.Top == nil && sel.Limit == nil && sel.Offset == nil
}

// grouped mirrors the planner's rule for a block that aggregates.
func grouped(sel *sqlast.SelectStmt) bool {
	return len(sel.GroupBy) > 0 || sel.Having != nil || sqlast.SelectHasAggregate(sel)
}

func without(conjs []sqlast.Expr, i int) []sqlast.Expr {
	return append(slices.Clip(conjs[:i]), conjs[i+1:]...)
}

// partitions returns sel's three TLP partitions on the pivot p: with(sel,
// rest) plus p, plus ¬p, and plus p IS NULL.
func partitions(sel *sqlast.SelectStmt, rest []sqlast.Expr, p sqlast.Expr, with clause) []*sqlast.SelectStmt {
	var parts []*sqlast.SelectStmt
	for _, q := range []sqlast.Expr{p, negate(p), &sqlast.IsNull{X: p}} {
		parts = append(parts, with(sel, append(slices.Clip(rest), q)))
	}
	return parts
}

// negate returns NOT p with the negation moved into p's top operator where
// the operator has a negated form. Every form evaluates the same operands
// in the same order as p, so it fails exactly where p fails.
func negate(p sqlast.Expr) sqlast.Expr {
	switch t := p.(type) {
	case *sqlast.Binary:
		switch t.Op {
		case "AND":
			return &sqlast.Binary{Op: "OR", L: negate(t.L), R: negate(t.R)}
		case "OR":
			return &sqlast.Binary{Op: "AND", L: negate(t.L), R: negate(t.R)}
		}
		if op, ok := negatedComparisons[t.Op]; ok {
			return &sqlast.Binary{Op: op, L: t.L, R: t.R}
		}
	case *sqlast.Unary:
		if t.Op == "NOT" {
			return t.X
		}
	case *sqlast.In:
		n := *t
		n.Not = !n.Not
		return &n
	case *sqlast.Between:
		n := *t
		n.Not = !n.Not
		return &n
	case *sqlast.IsNull:
		return &sqlast.IsNull{X: t.X, Not: !t.Not}
	case *sqlast.Exists:
		return &sqlast.Exists{Sub: t.Sub, Not: !t.Not}
	}
	return &sqlast.Unary{Op: "NOT", X: p}
}

var negatedComparisons = map[string]string{"=": "<>", "<>": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}

// runParts runs base and then each partition query. skip is true, with the
// counts updated, when the base fails or every partition fails with one
// error; a partition failing alone is a mismatch.
func (o *oracle) runParts(c *oracleCounts, base *sqlast.SelectStmt, parts []*sqlast.SelectStmt) (want *engine.Relation, got []*engine.Relation, skip bool, err error) {
	want, baseErr := o.e.Query(base)
	if baseErr != nil {
		c.baseErrs++
		return nil, nil, true, nil
	}
	var errs []error
	for _, q := range parts {
		rel, err := o.e.Query(q)
		got = append(got, rel)
		errs = append(errs, err)
	}
	if errs[0] != nil || errs[1] != nil || errs[2] != nil {
		for _, err := range errs {
			if err == nil || err.Error() != errs[0].Error() {
				return nil, nil, false, fmt.Errorf("TLP: partitions fail unevenly: %v; %v; %v", errs[0], errs[1], errs[2])
			}
		}
		c.pivotErrs++
		return nil, nil, true, nil
	}
	c.checked++
	return want, got, false, nil
}

// tlpRows is TLP over a block that does not aggregate: the base keeps the
// conjuncts rest, and each partition adds one of the pivot's predicates.
func (o *oracle) tlpRows(sel *sqlast.SelectStmt, rest []sqlast.Expr, p sqlast.Expr) error {
	return o.tlpUnion(sel, withWhere(sel, rest), partitions(sel, rest, p, withWhere), p)
}

// tlpUnion compares base with the union of its partitions. Under DISTINCT a
// row may sit in more than one partition, so the union is deduplicated
// before it is compared.
func (o *oracle) tlpUnion(sel, base *sqlast.SelectStmt, parts []*sqlast.SelectStmt, p sqlast.Expr) error {
	want, got, skip, err := o.runParts(&o.tlp, base, parts)
	if skip || err != nil {
		return err
	}
	union := &engine.Relation{Cols: want.Cols}
	for _, rel := range got {
		union.Rows = append(union.Rows, rel.Rows...)
	}
	if sel.Distinct {
		union = engine.DistinctRows(union)
	}
	if !engine.EqualRelations(want, union, false) {
		return fmt.Errorf("TLP: %d rows, but the partitions on %s hold %d, %d and %d",
			len(want.Rows), sqlast.PrintExpr(p), len(got[0].Rows), len(got[1].Rows), len(got[2].Rows))
	}
	return nil
}

// tlpAggregate is TLP over a block that is one global group whose items are
// each COUNT, SUM, MIN or MAX: the partitions' single rows fold into the
// base's. A SUM over floats is not compared, since the partitions add in
// another order.
func (o *oracle) tlpAggregate(sel *sqlast.SelectStmt, rest []sqlast.Expr, p sqlast.Expr) error {
	names := make([]string, len(sel.Items))
	for i, item := range sel.Items {
		fc, ok := item.Expr.(*sqlast.FuncCall)
		if !ok {
			return nil
		}
		names[i] = strings.ToUpper(fc.Name)
		switch {
		case names[i] == "MIN" || names[i] == "MAX":
		case (names[i] == "COUNT" || names[i] == "SUM") && !fc.Distinct:
		default:
			return nil
		}
	}
	want, got, skip, err := o.runParts(&o.tlp, withWhere(sel, rest), partitions(sel, rest, p, withWhere))
	if skip || err != nil {
		return err
	}
	for i, name := range names {
		acc, ok := engine.NullValue, true
		for _, rel := range got {
			v := rel.Rows[0][i]
			switch {
			case v.Null:
			case acc.Null:
				acc = v
			case name == "COUNT" || name == "SUM":
				if v.Kind != catalog.TypeInt || acc.Kind != catalog.TypeInt {
					ok = false
				}
				acc = engine.IntVal(acc.I + v.I)
			case name == "MIN" && engine.Compare(v, acc) < 0, name == "MAX" && engine.Compare(v, acc) > 0:
				acc = v
			}
		}
		if name == "COUNT" && acc.Null {
			acc = engine.IntVal(0)
		}
		if w := want.Rows[0][i]; ok && !sameValue(w, acc) {
			return fmt.Errorf("TLP aggregate: %s item %d is %s, but the partitions on %s fold to %s",
				name, i, w, sqlast.PrintExpr(p), acc)
		}
	}
	return nil
}

// tlpHaving is TLP over groups: the base keeps the HAVING conjuncts rest,
// and each partition adds one of the pivot's predicates to HAVING. A base
// that loses its only reason to group keeps HAVING TRUE.
func (o *oracle) tlpHaving(sel *sqlast.SelectStmt, rest []sqlast.Expr, p sqlast.Expr) error {
	if !partitionable(sel) {
		return nil
	}
	base := withHaving(sel, rest)
	if !grouped(base) {
		base.Having = &sqlast.Literal{Kind: sqlast.LitBool, Text: "TRUE"}
	}
	return o.tlpUnion(sel, base, partitions(sel, rest, p, withHaving), p)
}

// noREC compares the rows a filter keeps with the rows a projection counts
// over the same FROM and the conjuncts rest.
func (o *oracle) noREC(sel *sqlast.SelectStmt, rest []sqlast.Expr, p sqlast.Expr) error {
	if len(sel.From) == 0 {
		return nil
	}
	counted := &sqlast.SelectStmt{
		With: sel.With,
		Items: []sqlast.SelectItem{{Expr: &sqlast.FuncCall{Name: "SUM", Args: []sqlast.Expr{&sqlast.Case{
			Whens: []sqlast.When{{Cond: p, Result: sqlast.Number("1")}},
			Else:  sqlast.Number("0"),
		}}}}},
		From:  sel.From,
		Where: sqlast.And(rest...),
	}
	filtered := &sqlast.SelectStmt{
		With:  sel.With,
		Items: []sqlast.SelectItem{{Expr: &sqlast.FuncCall{Name: "COUNT", Star: true}}},
		From:  sel.From,
		Where: sqlast.And(append(slices.Clip(rest), p)...),
	}
	want, err := o.e.Query(counted)
	if err != nil {
		o.norec.baseErrs++
		return nil
	}
	got, err := o.e.Query(filtered)
	if err != nil {
		// The projection evaluates p only on rows that pass rest, but a comma
		// join resolves every conjunct's columns before it reads a row, so a
		// pivot naming an unknown or ambiguous column fails only the filter.
		o.norec.pivotErrs++
		return nil
	}
	o.norec.checked++
	n := want.Rows[0][0]
	if n.Null {
		n = engine.IntVal(0)
	}
	if !sameValue(n, got.Rows[0][0]) {
		return fmt.Errorf("NoREC: the projection counts %s rows with %s, the filter keeps %s",
			n, sqlast.PrintExpr(p), got.Rows[0][0])
	}
	return nil
}

// clause returns a copy of sel whose WHERE, or HAVING, is the conjunction
// of conjs.
type clause func(sel *sqlast.SelectStmt, conjs []sqlast.Expr) *sqlast.SelectStmt

func withWhere(sel *sqlast.SelectStmt, conjs []sqlast.Expr) *sqlast.SelectStmt {
	c := *sel
	c.Where = sqlast.And(conjs...)
	return &c
}

func withHaving(sel *sqlast.SelectStmt, conjs []sqlast.Expr) *sqlast.SelectStmt {
	c := *sel
	c.Having = sqlast.And(conjs...)
	return &c
}

func sameValue(a, b engine.Value) bool {
	return a.Null == b.Null && (a.Null || engine.Compare(a, b) == 0)
}

// TestMetamorphicCorpus runs both oracles over the benchmark's own SQL:
// every workload SELECT of the task datasets at seed 1, plus one rewrite per
// equivalence and non-equivalence transform type, on the equivalence
// checker's two verification instances, with each WHERE and HAVING conjunct
// as the pivot. The engine ops of the whole corpus are pinned, so an engine
// change that skips or repeats row work fails here even when every check
// holds.
//
// It runs some 550,000 queries, mostly multi-way joins, so it skips under
// the race detector; CI runs it without. Each dataset and instance runs on
// its own engine, two at a time, and a row cap of 1,000 (above any two-table
// cross product of the 24-row instances) stops the cross products of a base
// query that lacks its pivot's join condition early.
func TestMetamorphicCorpus(t *testing.T) {
	if raceEnabled {
		t.Skip("half a million queries; too slow under the race detector")
	}
	bench, err := core.Build(core.BuildConfig{Seed: 1})
	if err != nil {
		t.Fatalf("building the benchmark: %v", err)
	}
	r := rand.New(rand.NewSource(1))
	types := append(equiv.EquivTypes(), equiv.NonEquivTypes()...)
	type run struct {
		ds   string
		seed int64
		o    *oracle
		err  error
	}
	var runs []*run
	var wg sync.WaitGroup
	workers := make(chan struct{}, 2)
	for _, ds := range core.TaskDatasets {
		w := bench.Workloads[ds]
		var stmts []*sqlast.SelectStmt
		for _, q := range w.Queries {
			sel, ok := q.Stmt.(*sqlast.SelectStmt)
			if !ok {
				continue
			}
			stmts = append(stmts, sel)
			for _, typ := range types {
				if out, ok := equiv.Transform(sel, typ, r); ok {
					stmts = append(stmts, out)
				}
			}
		}
		for _, seed := range []int64{11, 29} {
			x := &run{ds: ds, seed: seed, o: &oracle{e: engine.New(datagen.Instance(w.Schema, datagen.Config{Seed: seed, Rows: 24}))}}
			x.o.e.MaxRows = 1000
			runs = append(runs, x)
			wg.Add(1)
			go func() {
				defer wg.Done()
				workers <- struct{}{}
				defer func() { <-workers }()
				for _, sel := range stmts {
					if err := x.o.checkConjuncts(sel); err != nil {
						x.err = fmt.Errorf("%v\n%s", err, sqlast.Print(sel))
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	var tlp, norec oracleCounts
	var ops int64
	for _, x := range runs {
		if x.err != nil {
			t.Fatalf("%s, instance seed %d: %v", x.ds, x.seed, x.err)
		}
		tlp.add(x.o.tlp)
		norec.add(x.o.norec)
		ops += x.o.e.Ops()
	}
	t.Logf("TLP: %v", tlp)
	t.Logf("NoREC: %v", norec)
	if tlp.checked == 0 || norec.checked == 0 {
		t.Fatal("an oracle made no check")
	}
	const wantOps = 124_950_617
	if ops != wantOps {
		t.Errorf("corpus engine ops = %d, want %d", ops, wantOps)
	}
}

func (c *oracleCounts) add(d oracleCounts) {
	c.checked += d.checked
	c.baseErrs += d.baseErrs
	c.pivotErrs += d.pivotErrs
}

// largeInputCases pair a query over a 2,500-row IMDB instance with an added
// pivot: grouped aggregation with few and many groups, HAVING, DISTINCT
// aggregates, expression group keys, DISTINCT, a global aggregate, a join,
// and UNION/INTERSECT/EXCEPT with and without ALL under a derived table. A
// having pivot partitions groups; any other partitions rows.
var largeInputCases = []struct {
	sql, pivot string
	having     bool
}{
	{"SELECT kind_id , COUNT(*) , AVG( production_year ) , MIN( title ) , MAX( production_year ) FROM title GROUP BY kind_id ORDER BY kind_id ASC", "COUNT(*) > 300", true},
	{"SELECT production_year , COUNT(*) , SUM( kind_id ) FROM title GROUP BY production_year ORDER BY production_year ASC", "SUM( kind_id ) > 40", true},
	{"SELECT production_year , COUNT(*) FROM title GROUP BY production_year HAVING COUNT(*) > 3 ORDER BY COUNT(*) DESC , production_year ASC", "production_year BETWEEN 1950 AND 1990", true},
	{"SELECT COUNT( DISTINCT production_year ) , STDEV( production_year ) , VAR( kind_id ) FROM title", "COUNT( DISTINCT kind_id ) > 3", true},
	{"SELECT production_year > 1980 , COUNT(*) FROM title GROUP BY production_year > 1980 ORDER BY COUNT(*) ASC", "COUNT(*) > 1000", true},
	{"SELECT COUNT(*) , COUNT( production_year ) , SUM( kind_id ) , MIN( title ) , MAX( production_year ) FROM title", "production_year > 1980", false},
	{"SELECT DISTINCT production_year FROM title ORDER BY production_year DESC", "kind_id IN ( 1 , 2 , NULL )", false},
	{"SELECT t.kind_id , COUNT(*) FROM title AS t JOIN movie_companies AS mc ON t.id = mc.movie_id WHERE t.production_year > 1950 GROUP BY t.kind_id ORDER BY t.kind_id ASC", "COUNT(*) < 100", true},
	{"SELECT t.title , mc.company_id FROM title AS t JOIN movie_companies AS mc ON t.id = mc.movie_id WHERE t.production_year > 1950", "mc.company_id NOT IN ( 1 , 2 , 3 )", false},
	{"SELECT * FROM ( SELECT movie_id FROM movie_companies UNION SELECT movie_id FROM movie_keyword ORDER BY movie_id ASC ) AS u", "u.movie_id > 1000", false},
	{"SELECT * FROM ( SELECT movie_id FROM movie_companies UNION ALL SELECT movie_id FROM movie_keyword ) AS u", "u.movie_id % 3 = 0", false},
	{"SELECT * FROM ( SELECT movie_id FROM movie_companies INTERSECT SELECT movie_id FROM movie_keyword ORDER BY movie_id DESC ) AS u", "u.movie_id < 500", false},
	{"SELECT * FROM ( SELECT movie_id FROM movie_companies EXCEPT SELECT movie_id FROM movie_keyword ) AS u", "u.movie_id IS NULL OR u.movie_id > 2000", false},
}

// TestMetamorphicLargeInputs runs both oracles over inputs of thousands of
// rows. Every case must make at least one TLP check.
func TestMetamorphicLargeInputs(t *testing.T) {
	o := &oracle{e: engine.New(datagen.Instance(catalog.IMDB(), datagen.Config{Seed: 21, Rows: 2500}))}
	for _, c := range largeInputCases {
		sel, pivot := mustParse(t, c.sql), mustParseExpr(t, c.pivot)
		before := o.tlp.checked
		err := o.checkConjuncts(sel)
		if err == nil && c.having {
			err = o.checkHavingPivot(sel, pivot)
		} else if err == nil {
			err = o.checkPivot(sel, pivot)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if o.tlp.checked == before {
			t.Errorf("%s: no TLP check ran (%v)", c.sql, o.tlp)
		}
	}
	t.Logf("TLP: %v", o.tlp)
	t.Logf("NoREC: %v", o.norec)
}

// empDeptPivots are added pivots over the emp/dept database: a comparison
// that NULL salaries leave unknown, NOT IN over a list holding NULL, IS
// NULL, a join condition and LIKE.
var empDeptPivots = []string{
	"e.salary > 85",
	"e.salary NOT IN ( 80 , NULL )",
	"d.budget IS NULL",
	"e.dept = d.name",
	"e.name LIKE '%a%'",
}

// checkEmpDept runs both oracles on each query over the emp/dept database,
// with each of its conjuncts and each of empDeptPivots as the pivot. Every
// query that runs without error must make at least one check.
func checkEmpDept(t *testing.T, queries []string) {
	t.Helper()
	o := &oracle{e: engine.New(engine.EmpDeptDB())}
	for _, sql := range queries {
		sel := mustParse(t, sql)
		_, queryErr := o.e.Query(sel)
		before := o.tlp.checked + o.norec.checked
		if err := o.checkConjuncts(sel); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		for _, p := range empDeptPivots {
			if err := o.checkPivot(sel, mustParseExpr(t, p)); err != nil {
				t.Fatalf("%s, pivot %s: %v", sql, p, err)
			}
		}
		if queryErr == nil && o.tlp.checked+o.norec.checked == before {
			t.Errorf("%s: no check ran", sql)
		}
	}
	t.Logf("TLP: %v", o.tlp)
	t.Logf("NoREC: %v", o.norec)
}

func TestStreamJoinParity(t *testing.T) {
	checkEmpDept(t, []string{
		// All four outer-join flavors through the hash probe, with and
		// without a conjunct over one side.
		"SELECT e.name, d.budget FROM emp e JOIN dept d ON e.dept = d.name",
		"SELECT e.name, d.budget FROM emp e JOIN dept d ON e.dept = d.name WHERE e.salary > 75",
		"SELECT e.name, d.budget FROM emp e LEFT JOIN dept d ON e.dept = d.name",
		"SELECT e.name, d.budget FROM emp e LEFT JOIN dept d ON e.dept = d.name WHERE e.salary > 75",
		"SELECT e.name, d.budget FROM emp e RIGHT JOIN dept d ON e.dept = d.name",
		"SELECT e.name, d.budget FROM emp e RIGHT JOIN dept d ON e.dept = d.name WHERE d.budget >= 500",
		"SELECT e.name, d.budget FROM emp e FULL JOIN dept d ON e.dept = d.name",
		"SELECT d.budget, e.name FROM dept d JOIN emp e ON d.name = e.dept",
		"SELECT d.budget, e.name FROM dept d JOIN emp e ON d.name = e.dept WHERE e.salary > 75 AND d.budget > 100",
		"SELECT e.name FROM emp e CROSS JOIN dept d WHERE e.salary > 90",
		// Any other ON clause runs the nested loop.
		"SELECT e.name, d.budget FROM emp e JOIN dept d ON e.salary > d.budget",
		// Chained joins: the upper join probes with the lower join's rows.
		"SELECT e.name, d.budget, f.id FROM emp e JOIN dept d ON e.dept = d.name JOIN emp f ON d.name = f.dept",
		// Derived-table inputs.
		"SELECT x.n, d.budget FROM (SELECT name AS n, dept AS dp, salary AS s FROM emp) x JOIN dept d ON x.dp = d.name WHERE x.s > 75",
		"SELECT x.n FROM (SELECT name AS n, salary AS s FROM emp ORDER BY s DESC) x WHERE x.s > 75",
		// Comma joins, alone and over an explicit join.
		"SELECT e.name, d.budget FROM emp e, dept d WHERE e.dept = d.name AND e.salary > 75",
		"SELECT e.name, f.name FROM emp e, dept d, emp f WHERE e.dept = d.name AND f.id = e.id",
		"SELECT e.name, f.name FROM emp e JOIN dept d ON e.dept = d.name, emp f WHERE e.id = f.id AND e.salary < d.budget",
		"SELECT e.name, f.name FROM emp e LEFT JOIN dept d ON e.dept = d.name, emp f WHERE f.id = e.id AND d.budget IS NULL AND e.salary > 75",
		// ORDER BY and aggregation above joins.
		"SELECT e.name, d.budget FROM emp e JOIN dept d ON e.dept = d.name ORDER BY d.budget DESC, e.name",
		"SELECT d.name, COUNT(*) AS c FROM dept d JOIN emp e ON d.name = e.dept GROUP BY d.name HAVING COUNT(*) > 1 ORDER BY d.name",
		"SELECT COUNT(*), SUM(e.id), MIN(e.salary), MAX(d.name) FROM emp e LEFT JOIN dept d ON e.dept = d.name WHERE e.id > 1",
	})
}

// TestStreamJoinErrorParity pins which error, if any, a query with an
// unknown or ambiguous column, a bad literal or a failing derived table
// raises, and runs both oracles on it: a check whose base query fails is
// skipped, and one whose partitions fail must see them all fail alike.
func TestStreamJoinErrorParity(t *testing.T) {
	var queries []string
	for _, c := range []struct{ sql, want string }{
		{"SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name WHERE e.nosuch = 1", "unknown column e.nosuch"},
		{"SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name WHERE d.nosuch = 1 AND e.salary > 75", "unknown column d.nosuch"},
		{"SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name WHERE name = 'eng'", "ambiguous column name"},
		{"SELECT nosuch FROM emp e JOIN dept d ON e.dept = d.name", "unknown column nosuch"},
		{"SELECT e.name FROM emp e JOIN dept d ON e.nosuch = d.name", "unknown column e.nosuch"},
		{"SELECT e.name FROM emp e, dept d WHERE e.dept = d.name AND e.nosuch = 1", "unknown column e.nosuch"},
		{"SELECT e.name FROM emp e, dept d WHERE e.dept = d.name AND name = 'x'", "ambiguous column name"},
		{"SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name, emp f WHERE e.nosuch = d.name AND f.id = e.id", "unknown column e.nosuch"},
		{"SELECT * FROM emp e, dept d WHERE name = 'x' AND e.salary > 1000", "ambiguous column name"},
		{"SELECT * FROM emp, emp WHERE emp.salary > 75", "ambiguous column emp.salary"},
		{"SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name, emp f WHERE f.id = e.id AND e.salary + d.budget > 0 AND e.salary < d.budget", ""},
		{"SELECT x.n FROM (SELECT name AS n, nosuch AS m FROM emp) x WHERE x.n = 'zzz'", "unknown column nosuch"},
		{"SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name WHERE e.salary > 1e999", `bad numeric literal "1e999"`},
		// The row-level evaluator still decides by the data: no row passes
		// the first conjunct, so the second, with its unknown column, never
		// runs under the explicit join.
		{"SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name WHERE e.salary > 1000 AND e.nosuch = 1", ""},
	} {
		_, err := engine.New(engine.EmpDeptDB()).QuerySQL(c.sql)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.sql, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want %q", c.sql, err, c.want)
		}
		queries = append(queries, c.sql)
	}
	checkEmpDept(t, queries)
}

// A conjunct naming an unknown column fails a comma join even when an
// earlier conjunct drops every row: the comma join sorts its conjuncts by
// the inputs their columns name before any row is read.
func TestCommaJoinReportsUnknownColumn(t *testing.T) {
	_, err := engine.New(engine.EmpDeptDB()).QuerySQL("SELECT * FROM emp e, dept d WHERE e.salary > 1000 AND e.nosuch = 1")
	if err == nil || !strings.Contains(err.Error(), "unknown column e.nosuch") {
		t.Fatalf("error %v, want unknown column e.nosuch", err)
	}
}

// TestInWithNullsParity runs IN and NOT IN over lists and subqueries that
// hold NULL, where a row with no match is NULL rather than FALSE, through
// every join flavor, alone and beside a conjunct over one side.
func TestInWithNullsParity(t *testing.T) {
	froms := []string{
		"emp e, dept d",
		"emp e JOIN dept d ON e.dept = d.name",
		"emp e LEFT JOIN dept d ON e.dept = d.name",
		"emp e RIGHT JOIN dept d ON e.dept = d.name",
		"emp e FULL JOIN dept d ON e.dept = d.name",
		"(SELECT id AS i, name AS n, dept AS dp, salary AS s FROM emp) e, dept d",
	}
	preds := []string{
		"e.salary NOT IN (80, NULL)",
		"e.salary IN (80, NULL)",
		"e.id IN (1, NULL) OR d.budget > 600",
		"NOT (d.budget IN (200, NULL))",
		"d.budget NOT IN (1000, 500, 200)",
		"e.salary NOT IN (SELECT x.salary FROM emp x WHERE x.id > 3)",
		"e.salary IN (SELECT x.salary FROM emp x WHERE x.id > 3)",
		"d.budget IN (SELECT x.salary * 10 FROM emp x)",
		"d.budget NOT IN (SELECT x.salary * 10 FROM emp x WHERE x.salary IS NOT NULL)",
		"e.s NOT IN (80, NULL)",
	}
	var queries []string
	for _, from := range froms {
		for _, pred := range preds {
			for _, where := range []string{pred, "d.budget >= 500 AND " + pred, pred + " AND d.budget >= 500"} {
				queries = append(queries, "SELECT * FROM "+from+" WHERE "+where)
			}
		}
	}
	checkEmpDept(t, queries)
}

// TestMetamorphicQuick fuzzes SELECTs over emp/dept (every join flavor,
// predicates drawn from a pool that includes expressions that can fail,
// unknown and ambiguous columns) and runs both oracles on each.
func TestMetamorphicQuick(t *testing.T) {
	froms := []string{
		"emp e, dept d",
		"emp e JOIN dept d ON e.dept = d.name",
		"emp e LEFT JOIN dept d ON e.dept = d.name",
		"emp e RIGHT JOIN dept d ON e.dept = d.name",
		"emp e FULL JOIN dept d ON e.dept = d.name",
		"dept d JOIN emp e ON d.name = e.dept",
		"emp e CROSS JOIN dept d",
		"emp e, dept d, emp f",
		"(SELECT id AS i, name AS n, dept AS dp, salary AS s FROM emp) e, dept d",
	}
	preds := []string{
		"e.salary > 75",
		"d.budget >= 500",
		"e.dept = d.name",
		"e.name LIKE 'a%'",
		"e.salary IS NULL",
		"e.id IN (1, 3, 5)",
		"d.budget BETWEEN 100 AND 600",
		"NOT (e.salary < 80)",
		"e.salary + d.budget > 500",
		"e.nosuch = 1",     // unknown column
		"name = 'eng'",     // ambiguous across emp and dept
		"e.salary > 1e999", // bad numeric literal
		"f.id = e.id",      // resolves only in the three-input FROM
		"e.s > 75",         // resolves only under the derived table
	}
	r := rand.New(rand.NewSource(7))
	o := &oracle{e: engine.New(engine.EmpDeptDB())}
	for i := 0; i < 400; i++ {
		var b strings.Builder
		b.WriteString("SELECT * FROM ")
		b.WriteString(froms[r.Intn(len(froms))])
		if n := r.Intn(4); n > 0 {
			b.WriteString(" WHERE ")
			for j := 0; j < n; j++ {
				if j > 0 {
					if r.Intn(4) == 0 {
						b.WriteString(" OR ")
					} else {
						b.WriteString(" AND ")
					}
				}
				b.WriteString(preds[r.Intn(len(preds))])
			}
		}
		sql := b.String()
		sel := mustParse(t, sql)
		err := o.checkConjuncts(sel)
		if err == nil {
			err = o.checkPivot(sel, mustParseExpr(t, preds[r.Intn(len(preds))]))
		}
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	t.Logf("TLP: %v", o.tlp)
	t.Logf("NoREC: %v", o.norec)
	if o.tlp.checked == 0 || o.norec.checked == 0 {
		t.Fatal("an oracle made no check")
	}
}

func mustParse(t *testing.T, sql string) *sqlast.SelectStmt {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return sel
}

// mustParseExpr parses a predicate by parsing it as the WHERE of a query.
func mustParseExpr(t *testing.T, pred string) sqlast.Expr {
	t.Helper()
	return mustParse(t, "SELECT 1 FROM t WHERE "+pred).Where
}
