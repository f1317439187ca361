package sqlparse

import (
	"errors"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/sqlast"
	"repro/internal/sqllex"
)

// sameParseError reports whether two parse results carry the same error:
// both nil, or both a *ParseError with equal Pos, Near and message.
func sameParseError(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	var g, w *ParseError
	if !errors.As(got, &g) || !errors.As(want, &w) {
		return got.Error() == want.Error()
	}
	return *g == *w
}

// spliceTokens are the tokens TestRecognizeMatchesParse inserts: one of
// each lexical kind plus the keywords that open or join list elements.
func spliceTokens(t *testing.T) []sqllex.Token {
	toks, err := sqllex.LexWords("SELECT FROM WHERE AND OR NOT AS ON JOIN BY , ( ) . * = x0 0 'v' @v")
	if err != nil {
		t.Fatal(err)
	}
	return toks
}

// recognizeStatements are the texts TestRecognizeMatchesParse damages:
// random ASTs, printed, plus statements outside RandSelect's reach. Between
// them they reach every node a plain parse builds and Recognize does not;
// deleting WHEN from the simple CASE leaves a CASE with no arm.
func recognizeStatements() []string {
	out := []string{
		"WITH hz ( a , b ) AS ( SELECT plate , mjd FROM SpecObj WHERE z > 0.5 ) SELECT s.plate , COUNT(*) AS n FROM hz AS s JOIN PhotoObj AS p ON s.plate = p.plate WHERE p.ra BETWEEN 100 AND 200 AND NOT p.dec > 0 GROUP BY s.plate HAVING COUNT(*) > 5 ORDER BY n DESC LIMIT 10 OFFSET 2",
		"SELECT a FROM ( SELECT b FROM u ) AS d , ( t LEFT OUTER JOIN v ON t.k = v.k ) CROSS JOIN w WHERE a IN ( 1 , 2 ) OR a NOT LIKE 'x%' AND b IS NOT NULL",
		"SELECT DISTINCT TOP 5 t.* , CASE WHEN a > 1 THEN 'y' ELSE 'n' END , CAST ( b AS VARCHAR ( 8 ) ) FROM t UNION ALL SELECT * FROM u",
		"INSERT INTO t ( a , b ) VALUES ( 1 , 'x' ) , ( 2 , 'y' )",
		"UPDATE t AS x SET a = 1 , b = a + 2 WHERE EXISTS ( SELECT 1 FROM u WHERE u.a = x.a )",
		"CREATE TABLE t ( a INT , b VARCHAR ( 32 ) )",
		"DECLARE @x INT = 5 ;",
		"SELECT COUNT ( DISTINCT x ) , s.f ( * ) , a.b.c , w.x.y.z , CASE a WHEN 1 THEN 'one' END FROM t WHERE b NOT LIKE 'x%'",
		"DELETE FROM s.t WHERE a NOT LIKE 'x%' AND b IN ( SELECT c FROM u )",
		"DROP TABLE s.t",
		"CREATE VIEW v AS SELECT a , b FROM t WHERE c IS NULL",
		"EXEC dbo.proc 1 , 'x'",
		"SET @v = 1",
		"SELECT NULL , TRUE , - a , b || 'x' FROM t WHERE c = @v",
		"INSERT INTO t SELECT a FROM u",
		"CREATE TABLE t2 AS SELECT a FROM t",
		"WAITFOR DELAY '00:00:01'",
		"BEGIN TRANSACTION",
		"select a from t where b is null",
		"SELECT a FROM t left join u on t.a = u.a",
		"SELECT a FROM t WHERE b = true",
	}
	r := rand.New(rand.NewSource(4242))
	for i := 0; i < 150; i++ {
		out = append(out, sqlast.Print(sqlast.RandSelect(r)))
	}
	return out
}

// TestRecognizeMatchesParse splices every splice token into every gap of
// each statement, and deletes every token, and checks that Recognize
// returns the error ParseStatementTokens returns on the same buffer. One
// Prefix serves each statement with shared = gap, once with gaps ascending
// (the repair search's order) and once descending, where stored entries go
// stale and must not be reused.
func TestRecognizeMatchesParse(t *testing.T) {
	splices := spliceTokens(t)
	n := 0
	for _, sql := range recognizeStatements() {
		toks, err := sqllex.LexWords(sql)
		if err != nil {
			t.Fatalf("lex %q: %v", sql, err)
		}
		if _, err := ParseStatementTokens(toks); err != nil {
			t.Fatalf("%q does not parse: %v", sql, err)
		}
		gaps := make([]int, len(toks)+1)
		for i := range gaps {
			gaps[i] = i
		}
		for _, descending := range []bool{false, true} {
			if descending {
				sort.Sort(sort.Reverse(sort.IntSlice(gaps)))
			}
			var prefix Prefix
			check := func(buf []sqllex.Token, gap int, what string) {
				n++
				_, want := ParseStatementTokens(buf)
				if got := prefix.Recognize(buf, gap); !sameParseError(got, want) {
					t.Errorf("%s at gap %d of %q (descending %v): Recognize = %v, parse = %v", what, gap, sql, descending, got, want)
				}
			}
			for _, gap := range gaps {
				buf := make([]sqllex.Token, len(toks)+1)
				copy(buf, toks[:gap])
				copy(buf[gap+1:], toks[gap:])
				for _, s := range splices {
					buf[gap] = s
					check(buf, gap, "insert "+s.Text)
				}
				if gap < len(toks) {
					del := append(append([]sqllex.Token(nil), toks[:gap]...), toks[gap+1:]...)
					check(del, gap, "delete "+toks[gap].Text)
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("no buffers checked")
	}
}

// TestRecognizeReusesStoredResults shows the memo at work by breaking its
// contract: a second buffer that differs inside the prefix it claims to
// share gets the first buffer's stored select list, table list and
// conjunct, and so is recognized although it does not parse. Claiming only
// the prefix it really shares gives the parse error.
func TestRecognizeReusesStoredResults(t *testing.T) {
	first, err := sqllex.LexWords("SELECT a , b FROM t WHERE x = 1 AND")
	if err != nil {
		t.Fatal(err)
	}
	second, err := sqllex.LexWords("SELECT ( , b FROM t WHERE x = 1")
	if err != nil {
		t.Fatal(err)
	}
	_, want := ParseStatementTokens(second)
	if want == nil {
		t.Fatal("second buffer parsed")
	}
	var prefix Prefix
	if err := prefix.Recognize(first, len(first)); err == nil {
		t.Fatal("trailing AND recognized")
	}
	if err := prefix.Recognize(second, len(second)); err != nil {
		t.Errorf("false shared prefix: Recognize = %v, want the stored results reused (nil)", err)
	}
	if got := prefix.Recognize(second, 1); !sameParseError(got, want) {
		t.Errorf("true shared prefix: Recognize = %v, want %v", got, want)
	}
}

// tokenReaders returns the functions of file, other than the parser's token
// accessors, that select a field named toks.
func tokenReaders(fset *token.FileSet, file *ast.File) []string {
	allowed := map[string]bool{"cur": true, "peekAt": true, "atEOF": true, "errorf": true}
	var out []string
	for _, decl := range file.Decls {
		name := "package-level declaration"
		if fd, ok := decl.(*ast.FuncDecl); ok {
			name = fd.Name.Name
			if fd.Recv != nil && allowed[name] && receiverType(fd) == "parser" {
				continue
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "toks" {
				out = append(out, fset.Position(sel.Pos()).String()+" in "+name)
			}
			return true
		})
	}
	return out
}

func receiverType(fd *ast.FuncDecl) string {
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// TestRecognizeOnlyAccessorsReadTokens guards the memo's soundness
// precondition: the parser reads its tokens only through cur, peekAt and
// atEOF, which record the horizon (errorf reads the last token once cur is
// at EOF, past any shared prefix), and its state is nothing but the tokens,
// the position, the tree level (which the memo keys on) and the bookkeeping.
// A direct token read, or another field a rule could consult, would let a
// reused result differ from a re-parse.
func TestRecognizeOnlyAccessorsReadTokens(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var fields []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		file, err := goparser.ParseFile(fset, path, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tokenReaders(fset, file) {
			t.Errorf("%s reads p.toks directly; read tokens through cur, peekAt or atEOF", r)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "parser" {
				return true
			}
			for _, f := range ts.Type.(*ast.StructType).Fields.List {
				for _, name := range f.Names {
					fields = append(fields, name.Name)
				}
			}
			return false
		})
	}
	if want := "toks pos horizon prefix depth reach"; strings.Join(fields, " ") != want {
		t.Errorf("parser fields = %q, want %q: a rule result must depend on the tokens, start position and start level alone", strings.Join(fields, " "), want)
	}

	// The guard itself fires on a planted read.
	planted := `package sqlparse
func (p *parser) cur() int { return len(p.toks) }
func (p *parser) sneak() int { return len(p.toks) }
`
	file, err := goparser.ParseFile(fset, "planted.go", planted, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := tokenReaders(fset, file); len(got) != 1 || !strings.HasSuffix(got[0], " in sneak") {
		t.Errorf("planted read: tokenReaders = %q, want one finding in sneak", got)
	}
}
