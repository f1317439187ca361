package sqllex

import (
	"strings"
	"testing"
	"unsafe"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexBasicSelect(t *testing.T) {
	toks, err := Lex("SELECT plate, mjd FROM SpecObj WHERE z > 0.5;")
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	want := []Kind{Keyword, Ident, Comma, Ident, Keyword, Ident, Keyword, Ident, Op, Number, Semi}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v want %v (%q)", i, got[i], want[i], toks[i].Text)
		}
	}
}

func TestLexKeywordCaseInsensitive(t *testing.T) {
	toks, err := Lex("select From wHeRe")
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	for _, tok := range toks {
		if tok.Kind != Keyword {
			t.Errorf("%q should be keyword, got %v", tok.Text, tok.Kind)
		}
	}
	if toks[0].Upper() != "SELECT" {
		t.Errorf("Upper = %q, want SELECT", toks[0].Upper())
	}
}

func TestLexWordIndices(t *testing.T) {
	toks, err := Lex("SELECT a -- comment\nFROM b")
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	// SELECT=0 a=1 comment(no word) FROM=2 b=3
	var nonComment []Token
	for _, tok := range toks {
		if tok.Kind != Comment {
			nonComment = append(nonComment, tok)
		}
	}
	for i, tok := range nonComment {
		if int(tok.Word) != i {
			t.Errorf("token %q word index = %d, want %d", tok.Text, tok.Word, i)
		}
	}
}

func TestLexStringLiterals(t *testing.T) {
	cases := []struct{ in, val string }{
		{"'hello'", "hello"},
		{"'it''s'", "it's"},
		{"''", ""},
	}
	for _, c := range cases {
		toks, err := Lex(c.in)
		if err != nil {
			t.Fatalf("Lex(%q): %v", c.in, err)
		}
		if len(toks) != 1 || toks[0].Kind != String {
			t.Fatalf("Lex(%q) = %v, want one String", c.in, toks)
		}
		if got := toks[0].Val(); got != c.val {
			t.Errorf("Val(%q) = %q, want %q", c.in, got, c.val)
		}
	}
}

func TestLexQuotedIdentifiers(t *testing.T) {
	cases := []struct{ in, val string }{
		{`"My Table"`, "My Table"},
		{`[My Table]`, "My Table"},
		{`"a""b"`, `a"b`},
	}
	for _, c := range cases {
		toks, err := Lex(c.in)
		if err != nil {
			t.Fatalf("Lex(%q): %v", c.in, err)
		}
		if len(toks) != 1 || toks[0].Kind != QuotedIdent {
			t.Fatalf("Lex(%q) = %v, want one QuotedIdent", c.in, toks)
		}
		if got := toks[0].Val(); got != c.val {
			t.Errorf("Val(%q) = %q, want %q", c.in, got, c.val)
		}
	}
}

func TestLexNumbers(t *testing.T) {
	for _, in := range []string{"42", "3.14", "0.5", ".5", "1e10", "2.5E-3", "1."} {
		toks, err := Lex(in)
		if err != nil {
			t.Fatalf("Lex(%q): %v", in, err)
		}
		if len(toks) != 1 || toks[0].Kind != Number {
			t.Errorf("Lex(%q) = %v, want one Number", in, toks)
		}
		if toks[0].Text != in {
			t.Errorf("Lex(%q) text = %q", in, toks[0].Text)
		}
	}
}

func TestLexOperators(t *testing.T) {
	in := "= <> != < > <= >= + - * / % || ."
	toks, err := Lex(in)
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	wantTexts := strings.Fields(in)
	if len(toks) != len(wantTexts) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(wantTexts))
	}
	for i, tok := range toks {
		if tok.Kind != Op || tok.Text != wantTexts[i] {
			t.Errorf("token %d = (%v %q), want (Op %q)", i, tok.Kind, tok.Text, wantTexts[i])
		}
	}
}

func TestLexComments(t *testing.T) {
	toks, err := Lex("SELECT 1 -- line\n/* block\ncomment */ + 2")
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	var comments int
	for _, tok := range toks {
		if tok.Kind == Comment {
			comments++
		}
	}
	if comments != 2 {
		t.Errorf("got %d comments, want 2", comments)
	}
	words, err := LexWords("SELECT 1 -- line\n+ 2")
	if err != nil {
		t.Fatalf("LexWords: %v", err)
	}
	if len(words) != 4 {
		t.Errorf("LexWords returned %d tokens, want 4", len(words))
	}
}

func TestLexVariables(t *testing.T) {
	toks, err := Lex("DECLARE @x INT SET @x = @@rowcount")
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	var vars []string
	for _, tok := range toks {
		if tok.Kind == Variable {
			vars = append(vars, tok.Text)
		}
	}
	if len(vars) != 3 || vars[0] != "@x" || vars[2] != "@@rowcount" {
		t.Errorf("variables = %v", vars)
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("SELECT a\nFROM b")
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	from := toks[2]
	if from.Pos.Line != 2 || from.Pos.Col != 1 {
		t.Errorf("FROM at %v, want 2:1", from.Pos)
	}
	if from.Pos.Offset != 9 {
		t.Errorf("FROM offset = %d, want 9", from.Pos.Offset)
	}
}

func TestLexErrors(t *testing.T) {
	cases := []string{"'unterminated", `"unterminated`, "[unterminated", "/* unterminated", "SELECT ?"}
	for _, in := range cases {
		if _, err := Lex(in); err == nil {
			t.Errorf("Lex(%q) succeeded, want error", in)
		}
	}
}

func TestLexErrorPosition(t *testing.T) {
	_, err := Lex("SELECT ?")
	lexErr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type = %T, want *Error", err)
	}
	if lexErr.Pos.Col != 8 {
		t.Errorf("error at col %d, want 8", lexErr.Pos.Col)
	}
}

func TestWords(t *testing.T) {
	got := Words("SELECT a ,  b\n FROM t")
	if len(got) != 6 {
		t.Errorf("Words = %v, want 6 fields", got)
	}
}

func TestWordCountMatchesFields(t *testing.T) {
	for _, src := range []string{
		"",
		"   ",
		" \t\n\v\f\r ",
		"SELECT a ,  b\n FROM t",
		"  leading and trailing  ",
		"a\u0085b",       // NEL is space
		"a\u00a0b",       // NO-BREAK SPACE is space
		"a\u3000b c",     // IDEOGRAPHIC SPACE is space
		"a\u2028\u2029b", // line and paragraph separators
		"a\u200bb",       // ZERO WIDTH SPACE is not
		"a\xffb \xc2",    // invalid UTF-8 is not space
		"\xc2\x85",       // NEL's encoding, whole
		"\x85 a",         // a lone continuation byte
		"SELECT 'x\u00a0y' FROM t",
	} {
		if got, want := WordCount(src), len(strings.Fields(src)); got != want {
			t.Errorf("WordCount(%q) = %d, want %d", src, got, want)
		}
	}
}

func TestIsKeyword(t *testing.T) {
	if !IsKeyword("SELECT") || !IsKeyword("WAITFOR") {
		t.Error("expected SELECT and WAITFOR to be keywords")
	}
	if IsKeyword("COUNT") || IsKeyword("PLATE") {
		t.Error("COUNT and PLATE must not be keywords")
	}
}

func TestTokenIs(t *testing.T) {
	toks, _ := Lex("select count")
	if !toks[0].Is("SELECT") {
		t.Error("Is(SELECT) = false")
	}
	if toks[1].Is("COUNT") {
		t.Error("Ident must not satisfy Is")
	}
}

func TestKindString(t *testing.T) {
	if Keyword.String() != "Keyword" {
		t.Errorf("Keyword.String() = %q", Keyword.String())
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

// An E after a number that does not start an exponent ends the number; the
// tokens after it keep their true columns.
func TestLexNumberExponentBackoutColumns(t *testing.T) {
	type tok struct {
		text           string
		off, line, col int
	}
	cases := []struct {
		in   string
		want []tok
	}{
		{"SELECT 1e FROM t", []tok{
			{"SELECT", 0, 1, 1}, {"1", 7, 1, 8}, {"e", 8, 1, 9}, {"FROM", 10, 1, 11}, {"t", 15, 1, 16},
		}},
		{"SELECT 1e+ FROM t", []tok{
			{"SELECT", 0, 1, 1}, {"1", 7, 1, 8}, {"e", 8, 1, 9}, {"+", 9, 1, 10}, {"FROM", 11, 1, 12}, {"t", 16, 1, 17},
		}},
		{"x = 2.5E-y\nAND 3e2 z", []tok{
			{"x", 0, 1, 1}, {"=", 2, 1, 3}, {"2.5", 4, 1, 5}, {"E", 7, 1, 8}, {"-", 8, 1, 9}, {"y", 9, 1, 10},
			{"AND", 11, 2, 1}, {"3e2", 15, 2, 5}, {"z", 19, 2, 9},
		}},
	}
	for _, c := range cases {
		toks, err := Lex(c.in)
		if err != nil {
			t.Fatalf("Lex(%q): %v", c.in, err)
		}
		if len(toks) != len(c.want) {
			t.Fatalf("Lex(%q) = %d tokens, want %d", c.in, len(toks), len(c.want))
		}
		for i, w := range c.want {
			got := toks[i]
			if got.Text != w.text || got.Pos != (Pos{Offset: w.off, Line: int32(w.line), Col: int32(w.col)}) {
				t.Errorf("Lex(%q) token %d = %q at %+v, want %q at {Offset:%d Line:%d Col:%d}",
					c.in, i, got.Text, got.Pos, w.text, w.off, w.line, w.col)
			}
		}
	}
}

func TestTokenSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Token{}); got != 40 {
		t.Errorf("unsafe.Sizeof(Token{}) = %d, want 40", got)
	}
}
