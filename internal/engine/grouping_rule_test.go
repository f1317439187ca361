package engine_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/engine"
)

// A query block lowers to grouped aggregation exactly when it has GROUP BY
// or HAVING, or calls an aggregate at its own level, wherever in its items,
// HAVING or ORDER BY the call sits: the rule the syntax checker applies.
// Each query below is one global group over the ten SpecObj rows.
func TestGroupingRule(t *testing.T) {
	db := datagen.Instance(catalog.SDSS(), datagen.Config{Seed: 1, Rows: 10})
	spec := db.Tables["specobj"]
	if len(spec.Rows) != 10 {
		t.Fatalf("SpecObj has %d rows, want 10", len(spec.Rows))
	}
	plate := slices.IndexFunc(spec.Cols, func(c engine.Col) bool { return c.Name == "plate" })
	for _, c := range []struct {
		sql  string
		want []string
	}{
		{"SELECT COUNT(*) IN (10, 11) FROM SpecObj", []string{"true"}},
		{"SELECT 1 FROM SpecObj HAVING COUNT(*) IN (3)", nil},
		{"SELECT 1 FROM SpecObj HAVING 1 = 0", nil},
		{"SELECT 1 FROM SpecObj HAVING 1 = 1", []string{"1"}},
		// A bare column of the global group reads its first row.
		{"SELECT plate FROM SpecObj ORDER BY COUNT(*) IN (1)", []string{spec.Rows[0][plate].String()}},
	} {
		rel, err := engine.New(db).QuerySQL(c.sql)
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		var got []string
		for _, row := range rel.Rows {
			texts := make([]string, len(row))
			for i, v := range row {
				texts[i] = v.String()
			}
			got = append(got, strings.Join(texts, "|"))
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s = %v, want %v", c.sql, got, c.want)
		}
	}
}
