package engine

import "repro/internal/sqlast"

// NewUnoptimized returns an Engine that executes the raw BuildPlan lowering,
// skipping the plan optimizer: the oracle the differential tests compare the
// optimized engine against. It lives in a test file so only tests can build
// one.
func NewUnoptimized(db *DB) *Engine { return &Engine{DB: db, raw: true} }

// PlanOf returns the (cached) plan the engine would execute for the
// statement, so external tests can check its shape.
func (e *Engine) PlanOf(sel *sqlast.SelectStmt) *Plan { return e.planFor(sel) }
