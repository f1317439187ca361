package sqlparse

import (
	"strings"
	"testing"

	"repro/internal/sqlast"
	"repro/internal/sqllex"
)

// TestParsedASTKeepsNoTokens parses a statement, then longer ones that
// lex into the same reused token buffer, and requires the first AST (and
// a parse error's position and text) to print as it did: no node may
// alias the token slice.
func TestParsedASTKeepsNoTokens(t *testing.T) {
	const first = "SELECT p.objid , p.ra FROM PhotoObj AS p WHERE p.ra > 180 AND p.dec < 5 ORDER BY p.ra"
	stmt, err := ParseStatement(first)
	if err != nil {
		t.Fatal(err)
	}
	script, err := ParseAll("CREATE TABLE t ( a INT ) ; INSERT INTO t VALUES ( 1 ) ; DELETE FROM t WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	_, perr := ParseStatement("SELECT a FROM t WHERE a = = 1")
	if perr == nil {
		t.Fatal("damaged statement parsed")
	}
	want := sqlast.Print(stmt)
	wantScript := printAll(script)
	wantErr := perr.Error()
	for i := 1; i <= 4; i++ {
		longer := "SELECT " + strings.Repeat("x , ", 20*i) + "y FROM " +
			strings.Repeat("t"+strings.Repeat("z", i)+" , ", 10*i) + "u WHERE q = 'zzzz' AND r <> 9"
		if _, err := ParseStatement(longer); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseSelect(longer); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseAll(longer + " ; " + longer); err != nil {
			t.Fatal(err)
		}
	}
	if got := sqlast.Print(stmt); got != want {
		t.Errorf("statement changed after later parses:\n got %s\nwant %s", got, want)
	}
	if got := printAll(script); got != wantScript {
		t.Errorf("script changed after later parses:\n got %s\nwant %s", got, wantScript)
	}
	if got := perr.Error(); got != wantErr {
		t.Errorf("parse error changed after later parses: got %q, want %q", got, wantErr)
	}
}

func printAll(stmts []sqlast.Stmt) string {
	parts := make([]string, len(stmts))
	for i, s := range stmts {
		parts[i] = sqlast.Print(s)
	}
	return strings.Join(parts, " ; ")
}

// TestParseStatementAllocs bounds a warm ParseStatement's allocations to
// the parser and the AST: the token slice comes from a reused buffer.
func TestParseStatementAllocs(t *testing.T) {
	const sql = "SELECT p.objid , p.ra FROM PhotoObj AS p WHERE p.ra > 180 AND p.dec < 5"
	parse := func() {
		if _, err := ParseStatement(sql); err != nil {
			t.Fatal(err)
		}
	}
	parse()
	if got := testing.AllocsPerRun(100, parse); got > parseStatementAllocs {
		t.Errorf("ParseStatement allocates %.0f times, want at most %d", got, parseStatementAllocs)
	}
}

// parseStatementAllocs is the parser and the AST nodes of the statement above;
// a freshly allocated token slice would make it 16.
const parseStatementAllocs = 15

// TestPrefixResetForgetsSequence serves two unrelated statements from one
// Prefix, each as its own reference sequence. Without the Reset between
// them the second would reuse rules stored for the first at the same
// indices and be recognized as the first.
func TestPrefixResetForgetsSequence(t *testing.T) {
	lex := func(sql string) []sqllex.Token {
		toks, err := sqllex.LexWords(sql)
		if err != nil {
			t.Fatal(err)
		}
		return toks
	}
	a := lex("SELECT a , b FROM t WHERE x > 1")
	b := lex("SELECT a , b b2 c FROM t")
	var p Prefix
	if err := p.Recognize(a, len(a)); err != nil {
		t.Fatalf("Recognize(a) = %v", err)
	}
	p.Reset()
	_, want := ParseStatementTokens(b)
	if want == nil {
		t.Fatal("b parses; the test needs a failing statement")
	}
	if got := p.Recognize(b, len(b)); got == nil || got.Error() != want.Error() {
		t.Errorf("Recognize(b) after Reset = %v, want %v", got, want)
	}
}

// TestRecognizeAllocs requires the recognize mode to build nothing: over a
// warm Prefix, with shared = 0 so that every rule runs, recognizing a
// statement that parses allocates nothing, and one that fails allocates
// its ParseError alone. The failures are every single-token deletion of
// recognizeStatements, plus a CASE with no WHEN arm, whose check must not
// read the arms a recognizer never builds, and a TOP count that is no
// integer, whose check must build no strconv error.
func TestRecognizeAllocs(t *testing.T) {
	var p Prefix
	recognize := func(toks []sqllex.Token) float64 {
		p.Recognize(toks, len(toks)) // grows the memo rows
		return testing.AllocsPerRun(5, func() { p.Recognize(toks, 0) })
	}
	caseEnd, err := sqllex.LexWords("SELECT CASE a END FROM t")
	if err != nil {
		t.Fatal(err)
	}
	_, want := ParseStatementTokens(caseEnd)
	if got := p.Recognize(caseEnd, 0); got == nil || !strings.Contains(got.Error(), "at least one WHEN arm") || got.Error() != want.Error() {
		t.Errorf("Recognize(CASE with no arm) = %v, want %v", got, want)
	}
	if n := recognize(caseEnd); n > 1 {
		t.Errorf("recognizing a CASE with no arm allocates %.0f times, want at most 1", n)
	}
	topFrac, err := sqllex.LexWords("SELECT TOP 1.5 a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	_, want = ParseStatementTokens(topFrac)
	if got := p.Recognize(topFrac, 0); got == nil || got.Error() != want.Error() {
		t.Errorf("Recognize(TOP 1.5) = %v, want %v", got, want)
	}
	if n := recognize(topFrac); n > 1 {
		t.Errorf("recognizing TOP 1.5 allocates %.0f times, want at most 1", n)
	}
	failures := 0
	for _, sql := range recognizeStatements() {
		toks, err := sqllex.LexWords(sql)
		if err != nil {
			t.Fatal(err)
		}
		if n := recognize(toks); n != 0 {
			t.Errorf("recognizing %q allocates %.0f times, want 0", sql, n)
		}
		for i := range toks {
			del := append(append([]sqllex.Token(nil), toks[:i]...), toks[i+1:]...)
			if p.Recognize(del, 0) == nil {
				continue
			}
			failures++
			if n := recognize(del); n > 1 {
				t.Errorf("recognizing %q without token %d (%s) allocates %.0f times, want at most 1", sql, i, toks[i].Text, n)
			}
		}
	}
	if failures == 0 {
		t.Fatal("no deletion failed to parse")
	}
}
