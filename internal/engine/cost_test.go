package engine

import (
	"testing"

	"repro/internal/sqlparse"
)

func estimate(t *testing.T, m *CostModel, sql string) float64 {
	t.Helper()
	stmt, err := sqlparse.ParseStatement(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return m.EstimateCost(stmt)
}

func TestCostModelRanksQueries(t *testing.T) {
	m := NewCostModel(SDSSStats())
	cheap := estimate(t, m, "SELECT plate FROM PlateX WHERE plate = 1000")
	medium := estimate(t, m, "SELECT plate FROM SpecObj WHERE z > 0.5")
	expensive := estimate(t, m, "SELECT s.plate FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = p.objid")
	brutal := estimate(t, m, "SELECT s.plate FROM SpecObj AS s JOIN PhotoObj AS p ON s.z > p.ra")
	if !(cheap < medium && medium < expensive && expensive < brutal) {
		t.Errorf("cost ordering violated: %g %g %g %g", cheap, medium, expensive, brutal)
	}
}

func TestCostPredicatesReduceDownstreamWork(t *testing.T) {
	m := NewCostModel(SDSSStats())
	// An aggregation over a filtered input costs less than over raw input.
	unfiltered := estimate(t, m, "SELECT plate , COUNT(*) FROM SpecObj GROUP BY plate")
	filtered := estimate(t, m, "SELECT plate , COUNT(*) FROM SpecObj WHERE plate = 100 GROUP BY plate")
	if filtered >= unfiltered {
		t.Errorf("filter did not reduce cost: %g >= %g", filtered, unfiltered)
	}
}

func TestCostSubqueriesCharge(t *testing.T) {
	m := NewCostModel(SDSSStats())
	flat := estimate(t, m, "SELECT plate FROM SpecObj WHERE z > 0.5")
	nested := estimate(t, m, "SELECT plate FROM SpecObj WHERE bestobjid IN ( SELECT objid FROM PhotoObj )")
	if nested <= flat {
		t.Errorf("subquery did not add cost: %g <= %g", nested, flat)
	}
	correlated := estimate(t, m, "SELECT plate FROM SpecObj AS s WHERE EXISTS ( SELECT 1 FROM PhotoObj AS p WHERE p.objid = s.bestobjid )")
	if correlated <= flat {
		t.Errorf("correlated subquery did not add cost: %g <= %g", correlated, flat)
	}
}

func TestCostNonSelectStatements(t *testing.T) {
	m := NewCostModel(SDSSStats())
	if c := estimate(t, m, "DECLARE @x INT"); c > 1000 {
		t.Errorf("DECLARE cost = %g, want small", c)
	}
	if c := estimate(t, m, "DROP TABLE PlateX"); c > 1000 {
		t.Errorf("DROP cost = %g, want small", c)
	}
	if c := estimate(t, m, "CREATE TABLE t AS SELECT plate FROM SpecObj"); c < 1000 {
		t.Errorf("CTAS cost = %g, want scan-sized", c)
	}
}

func TestElapsedMSDeterministicNoise(t *testing.T) {
	m := NewCostModel(SDSSStats())
	stmt, _ := sqlparse.ParseStatement("SELECT plate FROM SpecObj WHERE z > 0.5")
	a := m.ElapsedMS(stmt, "q1")
	b := m.ElapsedMS(stmt, "q1")
	c := m.ElapsedMS(stmt, "q2")
	if a != b {
		t.Error("noise not deterministic for same key")
	}
	if a == c {
		t.Log("different keys gave equal noise (possible, unlikely)")
	}
	if a <= 0 {
		t.Errorf("elapsed = %g, want positive", a)
	}
}

func TestStatsDefaults(t *testing.T) {
	s := NewStats()
	if s.Rows("unknown") != 1000 {
		t.Errorf("default rows = %d", s.Rows("unknown"))
	}
	s.Set("dbo.Foo", 42)
	if s.Rows("foo") != 42 || s.Rows("DBO.FOO") != 42 {
		t.Error("qualified stats lookup failed")
	}
}

func TestCTECostCharged(t *testing.T) {
	m := NewCostModel(SDSSStats())
	flat := estimate(t, m, "SELECT plate FROM PlateX")
	cte := estimate(t, m, "WITH big AS ( SELECT plate FROM SpecObj ) SELECT plate FROM big")
	if cte <= flat {
		t.Errorf("CTE body not charged: %g <= %g", cte, flat)
	}
}
