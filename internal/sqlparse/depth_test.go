package sqlparse

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/sqlast"
	"repro/internal/sqllex"
)

// treeHeight is the number of nodes on the longest root-to-leaf path of n,
// following the edges sqlast.Walk descends.
func treeHeight(n sqlast.Node) int {
	h := 0
	sqlast.Walk(n, func(c sqlast.Node) bool {
		if c == n {
			return true
		}
		h = max(h, treeHeight(c))
		return false
	})
	return h + 1
}

// nestings builds, for each way the grammar nests, a statement nested n
// levels deep that way.
var nestings = map[string]func(n int) string{
	"parentheses": func(n int) string {
		return "SELECT " + strings.Repeat("( ", n) + "1" + strings.Repeat(" )", n) + " FROM t"
	},
	"NOT":  func(n int) string { return "SELECT a FROM t WHERE " + strings.Repeat("NOT ", n) + "a = 1" },
	"sign": func(n int) string { return "SELECT " + strings.Repeat("- ", n) + "1 FROM t" },
	"additive chain": func(n int) string {
		return "SELECT 1" + strings.Repeat(" + 1", n) + " FROM t"
	},
	"AND chain":     func(n int) string { return "SELECT a FROM t WHERE a = 1" + strings.Repeat(" AND a = 1", n) },
	"IS NULL chain": func(n int) string { return "SELECT a FROM t WHERE a" + strings.Repeat(" IS NULL", n) },
	"BETWEEN chain": func(n int) string {
		return "SELECT a FROM t WHERE a" + strings.Repeat(" BETWEEN 1 AND 2", n)
	},
	"nested chains": func(n int) string {
		return "SELECT " + strings.Repeat("( ", n) + "1" + strings.Repeat(" * 2 + 1 )", n) + " FROM t"
	},
	"functions": func(n int) string {
		return "SELECT " + strings.Repeat("ABS ( ", n) + "1" + strings.Repeat(" )", n) + " FROM t"
	},
	"scalar subqueries": func(n int) string {
		return "SELECT " + strings.Repeat("( SELECT ", n) + "1" + strings.Repeat(" )", n) + " FROM t"
	},
	"derived tables": func(n int) string {
		return "SELECT a FROM " + strings.Repeat("( SELECT a FROM ", n) + "t" + strings.Repeat(" ) AS d", n)
	},
	"join chain": func(n int) string { return "SELECT a FROM t" + strings.Repeat(" JOIN u ON t.a = u.a", n) },
	"join trees": func(n int) string {
		return "SELECT a FROM " + strings.Repeat("( ", n) + "t" + strings.Repeat(" JOIN u ON t.a = u.a )", n)
	},
	"set operations": func(n int) string { return "SELECT 1" + strings.Repeat(" UNION SELECT 1", n) },
	"CTEs": func(n int) string {
		return strings.Repeat("WITH c AS ( ", n) + "SELECT 1" + strings.Repeat(" ) SELECT a FROM c", n)
	},
}

// Every way of nesting parses within the bound and fails past it with a
// ParseError, in build and recognize mode alike, and every tree it accepts
// is no taller than the bound. Generated SQL nests far less deep than the
// 40 levels each form must still accept.
func TestNestingBound(t *testing.T) {
	var prefix Prefix
	for name, build := range nestings {
		accepted, height := 0, 0
		for n := 1; n <= maxDepth+8; n++ {
			toks, err := sqllex.LexWords(build(n))
			if err != nil {
				t.Fatalf("%s at %d: %v", name, n, err)
			}
			stmt, err := ParseStatementTokens(toks)
			if got := prefix.Recognize(toks, 0); !sameParseError(got, err) {
				t.Fatalf("%s at %d: Recognize = %v, parse = %v", name, n, got, err)
			}
			if err != nil {
				var pe *ParseError
				if !errors.As(err, &pe) || !strings.Contains(err.Error(), "nesting exceeds 128 levels") {
					t.Fatalf("%s at %d: error %v, want the nesting bound", name, n, err)
				}
				break
			}
			if height = treeHeight(stmt); height > maxDepth {
				t.Fatalf("%s at %d: accepted a tree %d levels high", name, n, height)
			}
			accepted = n
		}
		t.Logf("%s: accepts %d levels, a tree %d high", name, accepted, height)
		if accepted < 40 || accepted >= maxDepth+8 {
			t.Errorf("%s: accepted up to %d levels, want at least 40 and a bound", name, accepted)
		}
	}
}

// A statement nested 480,000 levels deep, near the service's body limit,
// fails fast with the nesting error instead of exhausting the stack.
func TestHugeNestingFailsFast(t *testing.T) {
	const n = 480000
	for name, sql := range map[string]string{
		"parentheses":    nestings["parentheses"](n),
		"additive chain": nestings["additive chain"](n / 2),
		"NOT":            nestings["NOT"](n / 2),
	} {
		start := time.Now()
		_, err := ParseStatement(sql)
		if err == nil || !strings.Contains(err.Error(), "nesting exceeds 128 levels") {
			t.Errorf("%s: error %v, want the nesting bound", name, err)
		}
		var prefix Prefix
		toks, lexErr := sqllex.LexWords(sql)
		if lexErr != nil {
			t.Fatal(lexErr)
		}
		if got := prefix.Recognize(toks, len(toks)); !sameParseError(got, err) {
			t.Errorf("%s: Recognize = %v, parse = %v", name, got, err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("%s: took %v", name, d)
		}
	}
}

// A memoized result is reused only at the tree level it was stored at: the
// same conjunct parses at its own level but fails at the bound, so reusing
// the stored success there would hide the nesting error.
func TestRecallKeysOnLevel(t *testing.T) {
	toks, err := sqllex.LexWords("SELECT a FROM t WHERE b = 1 ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	var r Prefix
	if err := r.Recognize(toks, len(toks)); err != nil {
		t.Fatal(err)
	}
	const at = 5 // the conjunct b = 1
	stored := r.rows[at].conjunct
	if !stored.stored || stored.err != nil {
		t.Fatalf("no stored success for the conjunct at %d: %+v", at, stored)
	}
	for _, c := range []struct {
		depth int
		fails bool
	}{{int(stored.depth), false}, {maxDepth, true}} {
		r.p = parser{toks: toks, pos: at, horizon: -1, prefix: &r, depth: c.depth, reach: c.depth}
		if _, err := r.p.conjunct(); (err != nil) != c.fails {
			t.Errorf("conjunct at level %d: error %v, want failure %v", c.depth, err, c.fails)
		}
	}
}
