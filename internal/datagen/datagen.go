// Package datagen produces deterministic synthetic data instances for
// catalog schemas, used by the execution engine to test query equivalence
// empirically and by the examples. Values are generated per column with
// type-appropriate, skewed distributions and deliberate cross-table key
// overlap so joins and subqueries produce non-trivial results.
package datagen

import (
	"hash/fnv"
	"math/rand"
	"strings"

	"repro/internal/catalog"
	"repro/internal/engine"
)

// Config controls instance generation.
type Config struct {
	// Rows is the default number of rows per table (default 60).
	Rows int
	// Seed drives all randomness; the same seed always produces the same
	// instance.
	Seed int64
}

// nullFraction is the probability that a non-key column is NULL.
const nullFraction = 0.05

func (c *Config) normalize() {
	if c.Rows <= 0 {
		c.Rows = 60
	}
}

// Instance materializes every table of the schema into a DB.
func Instance(schema *catalog.Schema, cfg Config) *engine.DB {
	cfg.normalize()
	db := engine.NewDB()
	for _, t := range schema.Tables() {
		db.Put(t.Name, GenTable(t, cfg))
	}
	return db
}

// GenTable materializes one table.
func GenTable(t *catalog.Table, cfg Config) *engine.Relation {
	cfg.normalize()
	r := rand.New(rand.NewSource(cfg.Seed ^ int64(hash(t.Name))))
	rel := &engine.Relation{}
	for _, c := range t.Columns {
		rel.Cols = append(rel.Cols, engine.Col{Name: c.Name, Type: c.Type})
	}
	for i := 0; i < cfg.Rows; i++ {
		row := make([]engine.Value, len(t.Columns))
		for j, c := range t.Columns {
			row[j] = genValue(r, t.Name, c, i, cfg)
		}
		rel.Rows = append(rel.Rows, row)
	}
	return rel
}

// words used for text columns; short and overlapping so equality predicates
// and LIKE patterns hit.
var textPool = []string{
	"GALAXY", "STAR", "QSO", "alpha", "beta", "gamma", "delta", "north",
	"south", "east", "west", "red", "blue", "green", "primary", "secondary",
}

func genValue(r *rand.Rand, table string, c catalog.Column, rowIdx int, cfg Config) engine.Value {
	name := strings.ToLower(c.Name)
	isKey := strings.HasSuffix(name, "id") || name == "plate" || name == "code" ||
		strings.HasSuffix(name, "_id")
	if !isKey && r.Float64() < nullFraction {
		return engine.NullValue
	}
	switch c.Type {
	case catalog.TypeInt:
		if isKey {
			// Keys are dense small integers shared across tables, so joins
			// on id columns match with high probability.
			return engine.IntVal(int64(1 + r.Intn(cfg.Rows)))
		}
		// Skewed small ints: many repeats, occasional large values.
		if r.Float64() < 0.1 {
			return engine.IntVal(int64(1000 + r.Intn(100000)))
		}
		return engine.IntVal(int64(r.Intn(200)))
	case catalog.TypeFloat:
		switch {
		case name == "z" || strings.Contains(name, "redshift"):
			return engine.FloatVal(r.Float64() * 3) // plausible redshift range
		case name == "ra":
			return engine.FloatVal(r.Float64() * 360)
		case name == "dec":
			return engine.FloatVal(r.Float64()*180 - 90)
		default:
			return engine.FloatVal(float64(int(r.Float64()*10000)) / 10)
		}
	case catalog.TypeText:
		return engine.TextVal(textPool[r.Intn(len(textPool))])
	case catalog.TypeBool:
		return engine.BoolVal(r.Intn(2) == 0)
	default:
		return engine.NullValue
	}
}

func hash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(strings.ToLower(s)))
	return h.Sum64()
}
