package sqlparse_test

import (
	"strings"
	"testing"

	"repro/internal/sqllex"
	"repro/internal/sqlparse"
	"repro/internal/workload"
	"repro/internal/workload/joborder"
	"repro/internal/workload/sdss"
	"repro/internal/workload/sqlshare"
)

// FuzzParseStatement checks the parser on any text: it never panics,
// recognize mode returns the error build mode does, and every tree it
// accepts is within the nesting bound. The seeds are the seed-1 workload
// texts, each also cut short, and statements nested, and left unbalanced,
// around the bound.
//
//	go test -run '^$' -fuzz '^FuzzParseStatement$' -fuzztime 10s ./internal/sqlparse/
func FuzzParseStatement(f *testing.F) {
	for _, w := range []*workload.Workload{sdss.Generate(1), sqlshare.Generate(1), joborder.Generate(1)} {
		for _, q := range w.Queries {
			f.Add(q.SQL)
			f.Add(q.SQL[:len(q.SQL)/2])
		}
	}
	for _, n := range []int{sqlparse.MaxDepth - 2, sqlparse.MaxDepth, sqlparse.MaxDepth + 1, 4 * sqlparse.MaxDepth} {
		open, shut := strings.Repeat("( ", n), strings.Repeat(" )", n)
		f.Add("SELECT " + open + "1" + shut + " FROM t")
		f.Add("SELECT " + open + "1 FROM t")
		f.Add("SELECT 1" + shut + " FROM t")
		f.Add("SELECT a FROM t WHERE " + strings.Repeat("NOT ", n) + "a = 1")
		f.Add("SELECT 1" + strings.Repeat(" + 1", n) + " FROM t")
		f.Add("SELECT " + strings.Repeat("( SELECT ", n) + "1" + strings.Repeat(" )", n))
		f.Add("SELECT a FROM " + strings.Repeat("( ", n) + "t" + strings.Repeat(" JOIN u ON t.a = u.a )", n))
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := sqlparse.ParseStatement(sql)
		toks, lexErr := sqllex.LexWords(sql)
		if lexErr != nil {
			if err == nil {
				t.Fatalf("%q parses but does not lex: %v", sql, lexErr)
			}
			return
		}
		var prefix sqlparse.Prefix
		got := prefix.Recognize(toks, len(toks))
		if (got == nil) != (err == nil) || got != nil && got.Error() != err.Error() {
			t.Fatalf("%q: Recognize = %v, ParseStatement = %v", sql, got, err)
		}
		if err == nil {
			if h := sqlparse.TreeHeight(stmt); h > sqlparse.MaxDepth {
				t.Fatalf("%q: accepted a tree %d levels high", sql, h)
			}
		}
	})
}
