package engine

import "repro/internal/sqlast"

// PlanOf returns the (cached) plan the engine would execute for the
// statement, so external tests can check its shape.
func (e *Engine) PlanOf(sel *sqlast.SelectStmt) *Plan { return e.planFor(sel) }

// DistinctRows returns rel's rows with duplicates dropped under the rule
// DISTINCT applies.
func DistinctRows(rel *Relation) *Relation { return distinct(rel, 0) }

// EmpDeptDB returns the small emp/dept database of the package's tests.
func EmpDeptDB() *DB { return testDB() }
