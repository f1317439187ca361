package semcheck

import (
	"slices"
	"testing"

	"repro/internal/catalog"
)

func sdssChecker() *Checker { return New(catalog.SDSS()) }

func hasCode(diags []Diagnostic, code Code) bool {
	for _, d := range diags {
		if d.Code == code {
			return true
		}
	}
	return false
}

// The paper's Listing 1: each query must trigger exactly its labelled error
// type as the primary diagnostic.
func TestPaperListing1ErrorTypes(t *testing.T) {
	c := sdssChecker()
	cases := []struct {
		sql  string
		want Code
	}{
		{"SELECT plate , mjd , COUNT(*) , AVG( z ) FROM SpecObj WHERE z > 0.5", CodeAggrAttr},
		{"SELECT plate , COUNT(*) AS NumSpectra FROM SpecObj GROUP BY plate HAVING z > 0.5", CodeAggrHaving},
		{"SELECT p.ra , p.dec , s.z FROM PhotoObj AS p JOIN SpecObj AS s ON s.bestobjid = ( SELECT bestobjid FROM SpecObj )", CodeNestedMismatch},
		{"SELECT plate , mjd , fiberid FROM SpecObj WHERE z = 'high'", CodeConditionMismatch},
		{"SELECT s.plate , s.mjd , z FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = photoobj.bestobjid", CodeAliasUndefined},
		{"SELECT s.plate , s.z FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = p.objid WHERE ra > 180", CodeAliasAmbiguous},
	}
	for _, tc := range cases {
		diags := c.CheckSQL(tc.sql)
		if !hasCode(diags, tc.want) {
			t.Errorf("CheckSQL(%q):\n got %v\nwant code %s", tc.sql, diags, tc.want)
		}
		if got := Primary(diags); got != tc.want {
			t.Errorf("Primary(%q) = %s, want %s (all: %v)", tc.sql, got, tc.want, diags)
		}
	}
}

func TestCleanQueriesProduceNoDiagnostics(t *testing.T) {
	c := sdssChecker()
	for _, sql := range []string{
		"SELECT plate , mjd FROM SpecObj WHERE z > 0.5",
		"SELECT s.plate , COUNT(*) AS n FROM SpecObj AS s GROUP BY s.plate HAVING COUNT(*) > 5",
		"SELECT p.ra , p.dec FROM PhotoObj AS p JOIN SpecObj AS s ON s.bestobjid = p.objid",
		"SELECT plate FROM SpecObj WHERE bestobjid = ( SELECT MAX( objid ) FROM PhotoObj )",
		"SELECT plate FROM SpecObj WHERE plate IN ( SELECT plate FROM PlateX )",
		"SELECT s.ra FROM SpecObj AS s WHERE EXISTS ( SELECT 1 FROM PhotoObj AS p WHERE p.objid = s.bestobjid )",
		"WITH hz AS ( SELECT plate , z FROM SpecObj WHERE z > 1 ) SELECT plate FROM hz WHERE z < 2",
		"SELECT class , AVG( z ) FROM SpecObj GROUP BY class",
		"SELECT * FROM SpecObj",
		"SELECT plate + 1 , mjd * 2 FROM SpecObj",
		"SELECT plate FROM SpecObj WHERE class = 'GALAXY'",
		"SELECT plate FROM SpecObj WHERE z BETWEEN 0.1 AND 0.5",
		"SELECT plate FROM SpecObj ORDER BY z DESC LIMIT 10",
		"SELECT COUNT(*) FROM SpecObj",
		"SELECT COUNT(*) IN ( 10 , 11 ) FROM SpecObj",
		"SELECT plate , COUNT(*) AS n FROM SpecObj GROUP BY plate ORDER BY n DESC",
	} {
		if diags := c.CheckSQL(sql); len(diags) != 0 {
			t.Errorf("CheckSQL(%q) = %v, want clean", sql, diags)
		}
	}
}

func TestParseErrorDiagnostic(t *testing.T) {
	diags := sdssChecker().CheckSQL("SELECT FROM WHERE")
	if len(diags) != 1 || diags[0].Code != CodeParse {
		t.Errorf("diags = %v, want single parse-error", diags)
	}
}

func TestUnknownTableAndColumn(t *testing.T) {
	c := sdssChecker()
	if diags := c.CheckSQL("SELECT x FROM NoSuchTable"); !hasCode(diags, CodeUnknownTable) {
		t.Errorf("missing unknown-table: %v", diags)
	}
	if diags := c.CheckSQL("SELECT nosuchcol FROM SpecObj"); !hasCode(diags, CodeUnknownColumn) {
		t.Errorf("missing unknown-column: %v", diags)
	}
	// Columns of unknown tables resolve silently (wildcard scope).
	diags := c.CheckSQL("SELECT anything FROM NoSuchTable WHERE other > 1")
	if hasCode(diags, CodeUnknownColumn) {
		t.Errorf("wildcard scope should swallow column lookups: %v", diags)
	}
}

func TestAliasResolution(t *testing.T) {
	c := sdssChecker()
	// Alias shadows the table name.
	diags := c.CheckSQL("SELECT specobj.plate FROM SpecObj AS s")
	if !hasCode(diags, CodeAliasUndefined) {
		t.Errorf("aliased table name should be unusable: %v", diags)
	}
	// Bare table name works when no alias is given.
	if diags := c.CheckSQL("SELECT specobj.plate FROM SpecObj"); len(diags) != 0 {
		t.Errorf("bare table qualifier should resolve: %v", diags)
	}
	// Qualified star with undefined alias.
	if diags := c.CheckSQL("SELECT q.* FROM SpecObj AS s"); !hasCode(diags, CodeAliasUndefined) {
		t.Errorf("q.* should be undefined: %v", diags)
	}
}

func TestAmbiguousColumns(t *testing.T) {
	c := sdssChecker()
	// ra exists in both SpecObj and PhotoObj.
	diags := c.CheckSQL("SELECT ra FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = p.objid")
	if !hasCode(diags, CodeAliasAmbiguous) {
		t.Errorf("unqualified ra should be ambiguous: %v", diags)
	}
	// Qualified access is fine.
	diags = c.CheckSQL("SELECT s.ra FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = p.objid")
	if hasCode(diags, CodeAliasAmbiguous) {
		t.Errorf("qualified ra must not be ambiguous: %v", diags)
	}
	// plate exists only in SpecObj/PlateX; with PhotoObj join it is unique.
	diags = c.CheckSQL("SELECT plate FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = p.objid")
	if hasCode(diags, CodeAliasAmbiguous) {
		t.Errorf("plate should be unambiguous: %v", diags)
	}
}

func TestConditionMismatchVariants(t *testing.T) {
	c := sdssChecker()
	bad := []string{
		"SELECT plate FROM SpecObj WHERE z = 'high'",
		"SELECT plate FROM SpecObj WHERE class > 5",
		"SELECT plate FROM SpecObj WHERE plate IN ( 'a' , 'b' )",
		"SELECT plate FROM SpecObj WHERE z BETWEEN 'low' AND 'high'",
		"SELECT plate FROM SpecObj WHERE z LIKE '%x%'",
	}
	for _, sql := range bad {
		if diags := c.CheckSQL(sql); !hasCode(diags, CodeConditionMismatch) {
			t.Errorf("CheckSQL(%q) = %v, want condition-mismatch", sql, diags)
		}
	}
	good := []string{
		"SELECT plate FROM SpecObj WHERE class = 'GALAXY'",
		"SELECT plate FROM SpecObj WHERE z = 1",
		"SELECT plate FROM SpecObj WHERE plate = 2.5", // int vs float is fine
		"SELECT plate FROM SpecObj WHERE class LIKE 'GAL%'",
	}
	for _, sql := range good {
		if diags := c.CheckSQL(sql); hasCode(diags, CodeConditionMismatch) {
			t.Errorf("CheckSQL(%q) = %v, want no condition-mismatch", sql, diags)
		}
	}
}

func TestNestedMismatchVariants(t *testing.T) {
	c := sdssChecker()
	bad := []string{
		"SELECT plate FROM SpecObj WHERE bestobjid = ( SELECT objid FROM PhotoObj )",
		"SELECT plate FROM SpecObj WHERE z > ( SELECT z FROM SpecObj WHERE plate > 100 )",
	}
	for _, sql := range bad {
		if diags := c.CheckSQL(sql); !hasCode(diags, CodeNestedMismatch) {
			t.Errorf("CheckSQL(%q) = %v, want nested-mismatch", sql, diags)
		}
	}
	good := []string{
		"SELECT plate FROM SpecObj WHERE bestobjid = ( SELECT MAX( objid ) FROM PhotoObj )",
		"SELECT plate FROM SpecObj WHERE bestobjid = ( SELECT objid FROM PhotoObj ORDER BY objid ASC LIMIT 1 )",
		"SELECT plate FROM SpecObj WHERE bestobjid IN ( SELECT objid FROM PhotoObj )",
	}
	for _, sql := range good {
		if diags := c.CheckSQL(sql); hasCode(diags, CodeNestedMismatch) {
			t.Errorf("CheckSQL(%q) = %v, want no nested-mismatch", sql, diags)
		}
	}
}

func TestAggrAttrVariants(t *testing.T) {
	c := sdssChecker()
	// Missing GROUP BY entirely.
	if diags := c.CheckSQL("SELECT plate , COUNT(*) FROM SpecObj"); !hasCode(diags, CodeAggrAttr) {
		t.Errorf("want aggr-attr: %v", diags)
	}
	// GROUP BY covers only one of two bare columns.
	diags := c.CheckSQL("SELECT plate , mjd , COUNT(*) FROM SpecObj GROUP BY plate")
	if !hasCode(diags, CodeAggrAttr) {
		t.Errorf("want aggr-attr for mjd: %v", diags)
	}
	// Star with aggregate.
	if diags := c.CheckSQL("SELECT * , COUNT(*) FROM SpecObj"); !hasCode(diags, CodeAggrAttr) {
		t.Errorf("want aggr-attr for star: %v", diags)
	}
	// An aggregate in ORDER BY makes the block one group too, as the
	// engine evaluates it, so a bare item column is an error there.
	if diags := c.CheckSQL("SELECT plate FROM SpecObj ORDER BY COUNT(*)"); !hasCode(diags, CodeAggrAttr) {
		t.Errorf("want aggr-attr for an ORDER BY aggregate: %v", diags)
	}
	if diags := c.CheckSQL("SELECT COUNT(*) FROM SpecObj ORDER BY COUNT(*)"); len(diags) > 0 {
		t.Errorf("want no diagnostics for an aggregate-only block: %v", diags)
	}
	// Qualified group-by column used bare in select is accepted.
	diags = c.CheckSQL("SELECT s.plate , COUNT(*) FROM SpecObj AS s GROUP BY plate")
	if hasCode(diags, CodeAggrAttr) {
		t.Errorf("bare/qualified group-by matching failed: %v", diags)
	}
}

func TestAggrHavingVariants(t *testing.T) {
	c := sdssChecker()
	// HAVING on non-grouped column.
	diags := c.CheckSQL("SELECT plate , COUNT(*) FROM SpecObj GROUP BY plate HAVING z > 0.5")
	if !hasCode(diags, CodeAggrHaving) {
		t.Errorf("want aggr-having: %v", diags)
	}
	// HAVING without GROUP BY or aggregate.
	diags = c.CheckSQL("SELECT plate FROM SpecObj HAVING plate > 5")
	if !hasCode(diags, CodeAggrHaving) {
		t.Errorf("want aggr-having (no group by): %v", diags)
	}
	// Legitimate HAVING forms.
	for _, sql := range []string{
		"SELECT plate , COUNT(*) FROM SpecObj GROUP BY plate HAVING COUNT(*) > 5",
		"SELECT plate , AVG( z ) FROM SpecObj GROUP BY plate HAVING AVG( z ) > 0.5",
		"SELECT plate , COUNT(*) FROM SpecObj GROUP BY plate HAVING plate > 100",
	} {
		if diags := c.CheckSQL(sql); hasCode(diags, CodeAggrHaving) {
			t.Errorf("CheckSQL(%q) = %v, want no aggr-having", sql, diags)
		}
	}
}

func TestCorrelatedSubqueryScoping(t *testing.T) {
	c := sdssChecker()
	// Outer alias s visible inside the subquery.
	sql := "SELECT s.plate FROM SpecObj AS s WHERE EXISTS ( SELECT 1 FROM PhotoObj AS p WHERE p.objid = s.bestobjid )"
	if diags := c.CheckSQL(sql); len(diags) != 0 {
		t.Errorf("correlated reference failed: %v", diags)
	}
	// Inner alias not visible outside.
	sql = "SELECT p.objid FROM SpecObj AS s WHERE EXISTS ( SELECT 1 FROM PhotoObj AS p )"
	if diags := c.CheckSQL(sql); !hasCode(diags, CodeAliasUndefined) {
		t.Errorf("inner alias leaked: %v", diags)
	}
}

func TestCTEScoping(t *testing.T) {
	c := sdssChecker()
	// CTE columns resolve.
	sql := "WITH hz AS ( SELECT plate , z FROM SpecObj ) SELECT plate FROM hz WHERE z > 1"
	if diags := c.CheckSQL(sql); len(diags) != 0 {
		t.Errorf("cte resolution failed: %v", diags)
	}
	// Column not exported by the CTE.
	sql = "WITH hz AS ( SELECT plate FROM SpecObj ) SELECT mjd FROM hz"
	if diags := c.CheckSQL(sql); !hasCode(diags, CodeUnknownColumn) {
		t.Errorf("cte should not export mjd: %v", diags)
	}
	// Later CTE sees earlier one.
	sql = "WITH a AS ( SELECT plate FROM SpecObj ) , b AS ( SELECT plate FROM a ) SELECT plate FROM b"
	if diags := c.CheckSQL(sql); len(diags) != 0 {
		t.Errorf("chained cte failed: %v", diags)
	}
	// Explicit CTE column list renames.
	sql = "WITH c ( p ) AS ( SELECT plate FROM SpecObj ) SELECT p FROM c"
	if diags := c.CheckSQL(sql); len(diags) != 0 {
		t.Errorf("cte column list failed: %v", diags)
	}
}

func TestDerivedTableScoping(t *testing.T) {
	c := sdssChecker()
	sql := "SELECT sub.plate FROM ( SELECT plate FROM SpecObj ) AS sub"
	if diags := c.CheckSQL(sql); len(diags) != 0 {
		t.Errorf("derived table failed: %v", diags)
	}
	sql = "SELECT sub.z FROM ( SELECT plate FROM SpecObj ) AS sub"
	if diags := c.CheckSQL(sql); !hasCode(diags, CodeUnknownColumn) {
		t.Errorf("derived table should not export z: %v", diags)
	}
	// Star expansion through derived table.
	sql = "SELECT sub.mjd FROM ( SELECT * FROM SpecObj ) AS sub"
	if diags := c.CheckSQL(sql); len(diags) != 0 {
		t.Errorf("star derived table failed: %v", diags)
	}
}

func TestOrderByAlias(t *testing.T) {
	c := sdssChecker()
	sql := "SELECT plate , COUNT(*) AS n FROM SpecObj GROUP BY plate ORDER BY n DESC"
	if diags := c.CheckSQL(sql); len(diags) != 0 {
		t.Errorf("order-by alias failed: %v", diags)
	}
}

func TestSetOpsBothSidesChecked(t *testing.T) {
	c := sdssChecker()
	sql := "SELECT plate FROM SpecObj UNION SELECT nosuch FROM SpecObj"
	if diags := c.CheckSQL(sql); !hasCode(diags, CodeUnknownColumn) {
		t.Errorf("set-op right side unchecked: %v", diags)
	}
}

func TestNonSelectStatements(t *testing.T) {
	c := sdssChecker()
	if diags := c.CheckSQL("UPDATE SpecObj SET z = 'x' WHERE plate = 1"); !hasCode(diags, CodeConditionMismatch) {
		// z = 'x' is an assignment, not a comparison; the WHERE is fine. The
		// mismatch check applies only to WHERE, so expect clean instead.
		if len(diags) != 0 {
			t.Errorf("update diagnostics = %v", diags)
		}
	}
	if diags := c.CheckSQL("DELETE FROM SpecObj WHERE z = 'high'"); !hasCode(diags, CodeConditionMismatch) {
		t.Errorf("delete where mismatch undetected: %v", diags)
	}
	if diags := c.CheckSQL("DECLARE @x INT"); len(diags) != 0 {
		t.Errorf("declare should be clean: %v", diags)
	}
	if diags := c.CheckSQL("CREATE VIEW v AS SELECT nosuch FROM SpecObj"); !hasCode(diags, CodeUnknownColumn) {
		t.Errorf("create view body unchecked: %v", diags)
	}
}

func TestPrimaryOrdering(t *testing.T) {
	diags := []Diagnostic{
		{Code: CodeAggrAttr},
		{Code: CodeAliasUndefined},
	}
	if got := Primary(diags); got != CodeAliasUndefined {
		t.Errorf("Primary = %s, want alias-undefined", got)
	}
	if Primary(nil) != "" {
		t.Error("Primary(nil) should be empty")
	}
}

func TestHasPaperError(t *testing.T) {
	if slices.Contains(PaperErrorTypes, CodeUnknownTable) {
		t.Error("unknown-table is not a paper error type")
	}
	if !slices.Contains(PaperErrorTypes, CodeAggrHaving) {
		t.Error("aggr-having is a paper error type")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Code: CodeAggrAttr, Msg: "x"}
	if d.String() != "aggr-attr: x" {
		t.Errorf("String = %q", d.String())
	}
}
