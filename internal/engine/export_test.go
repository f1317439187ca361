package engine

// NewUnoptimized returns an Engine that executes the raw BuildPlan lowering,
// skipping the plan optimizer: the oracle the differential tests compare the
// optimized engine against. It lives in a test file so only tests can build
// one.
func NewUnoptimized(db *DB) *Engine { return &Engine{DB: db, raw: true} }
