// Package sqllex implements a lexical scanner for the SQL dialect used by the
// benchmark workloads (ANSI SQL plus the T-SQL constructs that appear in the
// SDSS and SQLShare logs: TOP, bracketed identifiers, DECLARE/SET/EXEC,
// WAITFOR). Tokens carry byte, line, column, and word-index positions; the
// word index counts non-comment tokens. The miss_token_loc task measures
// positions in whitespace words instead (Words, WordCount), which the
// mutation and repair packages count from the text.
package sqllex

import (
	"fmt"
	"strings"
	"unicode"
)

// Kind classifies a token.
type Kind uint8

// Token kinds.
const (
	EOF Kind = iota
	Ident
	QuotedIdent // "name" or [name]
	Keyword
	Number
	String // 'literal'
	Op     // operators and punctuation such as = <> . +
	Comma
	LParen
	RParen
	Semi
	Comment
	Variable // @name (T-SQL variable)
)

var kindNames = map[Kind]string{
	EOF:         "EOF",
	Ident:       "Ident",
	QuotedIdent: "QuotedIdent",
	Keyword:     "Keyword",
	Number:      "Number",
	String:      "String",
	Op:          "Op",
	Comma:       "Comma",
	LParen:      "LParen",
	RParen:      "RParen",
	Semi:        "Semi",
	Comment:     "Comment",
	Variable:    "Variable",
}

// String returns the human-readable name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Pos locates a token within the input text.
type Pos struct {
	Offset int   // byte offset, 0-based
	Line   int32 // 1-based
	Col    int32 // 1-based, in bytes
}

// String renders the position as line:col.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a single lexical element. Its field sizes and order pack it
// into 40 bytes on 64-bit platforms: token slices are the lexer's whole
// allocation, so their size is its cost.
type Token struct {
	Text string // exactly as written, including quotes/brackets
	Pos  Pos
	Word int32 // index among non-comment tokens, 0-based
	Kind Kind
}

// Upper returns the uppercase form of Text for case-insensitive matching.
// It is computed on demand rather than stored per token: for text with no
// lowercase ASCII letters (keywords, operators, numbers — the bulk of SQL)
// it returns Text itself without allocating, and consumers that never look
// at a token's case pay nothing at all.
func (t Token) Upper() string { return upper(t.Text) }

// Val returns the semantic value: unquoted identifier text, string contents
// without quotes, or Text otherwise.
func (t Token) Val() string {
	switch t.Kind {
	case QuotedIdent:
		if len(t.Text) >= 2 {
			inner := t.Text[1 : len(t.Text)-1]
			if t.Text[0] == '"' {
				return strings.ReplaceAll(inner, `""`, `"`)
			}
			return inner // [name]
		}
		return t.Text
	case String:
		if len(t.Text) >= 2 {
			return strings.ReplaceAll(t.Text[1:len(t.Text)-1], "''", "'")
		}
		return t.Text
	default:
		return t.Text
	}
}

// Is reports whether the token is a keyword with the given uppercase name.
func (t Token) Is(kw string) bool { return t.Kind == Keyword && MatchUpper(t.Text, kw) }

// MatchUpper reports whether text equals word ignoring ASCII case, without
// allocating. word must already be uppercase ASCII (the form keywords and
// operators are written in); non-ASCII text never matches.
func MatchUpper(text, word string) bool {
	if len(text) != len(word) {
		return false
	}
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != word[i] {
			return false
		}
	}
	return true
}

// keywords is the set of reserved words recognized by the scanner. Function
// names (COUNT, AVG, ...) are deliberately not keywords; they lex as Ident.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "ASC": true, "DESC": true, "LIMIT": true,
	"OFFSET": true, "TOP": true, "DISTINCT": true, "ALL": true, "AS": true,
	"JOIN": true, "INNER": true, "LEFT": true, "RIGHT": true, "FULL": true,
	"OUTER": true, "CROSS": true, "ON": true, "AND": true, "OR": true,
	"NOT": true, "IN": true, "EXISTS": true, "BETWEEN": true, "LIKE": true,
	"IS": true, "NULL": true, "UNION": true, "INTERSECT": true, "EXCEPT": true,
	"WITH": true, "CASE": true, "WHEN": true, "THEN": true, "ELSE": true,
	"END": true, "CREATE": true, "TABLE": true, "VIEW": true, "INSERT": true,
	"INTO": true, "VALUES": true, "UPDATE": true, "SET": true, "DELETE": true,
	"DECLARE": true, "EXEC": true, "DROP": true, "CAST": true, "WAITFOR": true,
	"DELAY": true, "TRUE": true, "FALSE": true,
}

// IsKeyword reports whether the uppercase word is a reserved keyword.
func IsKeyword(upper string) bool { return keywords[upper] }

// maxKeywordLen bounds the stack buffer isKeywordWord uppercases into;
// INTERSECT (9 bytes) is the longest current keyword. init asserts the
// table fits so a future addition cannot silently stop matching.
const maxKeywordLen = 12

func init() {
	for kw := range keywords {
		if len(kw) > maxKeywordLen {
			panic("sqllex: keyword " + kw + " exceeds maxKeywordLen")
		}
	}
}

// isKeywordWord reports whether text names a keyword, ignoring ASCII case,
// without allocating: the candidate is uppercased into a stack buffer and
// looked up directly (the compiler elides the string conversion in the map
// access).
func isKeywordWord(text string) bool {
	if len(text) > maxKeywordLen {
		return false
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c >= 0x80 {
			return false // keywords are pure ASCII
		}
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	return keywords[string(buf[:len(text)])]
}

// Error is a lexical error with a position.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("lex error at %s: %s", e.Pos, e.Msg) }

type scanner struct {
	src  string
	off  int
	line int32
	col  int32
	word int32
}

// Lex scans the input and returns its tokens, excluding the trailing EOF
// token. Comments are returned in place but do not consume word indices.
func Lex(src string) ([]Token, error) {
	s := &scanner{src: src, line: 1, col: 1}
	// The seed workloads average one token per 3.6 source bytes (cell
	// inputs and workload queries of seeds 1 and 2). Sizing for one per 3
	// bytes means about 97% of those lexes fit without regrowing, so Lex
	// allocates once.
	toks := make([]Token, 0, len(src)/3+8)
	for {
		tok, err := s.next()
		if err != nil {
			return toks, err
		}
		if tok.Kind == EOF {
			return toks, nil
		}
		toks = append(toks, tok)
	}
}

// LexWords scans the input and returns only word-bearing tokens (no
// comments), which is the view used for word-position bookkeeping.
func LexWords(src string) ([]Token, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	// Most SQL has no comments; leave those token slices untouched.
	for i, t := range toks {
		if t.Kind == Comment {
			out := toks[:i]
			for _, t := range toks[i+1:] {
				if t.Kind != Comment {
					out = append(out, t)
				}
			}
			return out, nil
		}
	}
	return toks, nil
}

func (s *scanner) pos() Pos { return Pos{Offset: s.off, Line: s.line, Col: s.col} }

func (s *scanner) peek() byte { return s.at(s.off) }

func (s *scanner) peekAt(n int) byte { return s.at(s.off + n) }

// at returns the byte at offset i, or 0 past the end.
func (s *scanner) at(i int) byte {
	if i >= len(s.src) {
		return 0
	}
	return s.src[i]
}

func (s *scanner) advance() byte {
	c := s.src[s.off]
	s.off++
	if c == '\n' {
		s.line++
		s.col = 1
	} else {
		s.col++
	}
	return c
}

func (s *scanner) skipSpace() {
	for s.off < len(s.src) {
		c := s.src[s.off]
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
			s.advance()
			continue
		}
		return
	}
}

// identStart and identPart classify identifier bytes. Each byte is read
// as the code point of the same value (Latin-1), so bytes 0x80-0xFF that
// Latin-1 calls letters are identifier bytes. Neither table holds a
// newline, so an identifier run never changes the line.
var identStart, identPart [256]bool

func init() {
	for i := range identStart {
		c, r := byte(i), rune(i)
		identStart[i] = c == '_' || c == '#' || unicode.IsLetter(r)
		identPart[i] = identStart[i] || c == '$' || unicode.IsDigit(r)
	}
}

// skipRun advances over n bytes that hold no newline.
func (s *scanner) skipRun(n int) {
	s.off += n
	s.col += int32(n)
}

// identRun returns the end of the identifier bytes starting at from.
func (s *scanner) identRun(from int) int {
	for from < len(s.src) && identPart[s.src[from]] {
		from++
	}
	return from
}

// digitRun returns the end of the ASCII digits starting at from.
func (s *scanner) digitRun(from int) int {
	for from < len(s.src) && isDigit(s.src[from]) {
		from++
	}
	return from
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (s *scanner) next() (Token, error) {
	s.skipSpace()
	start := s.pos()
	if s.off >= len(s.src) {
		return Token{Kind: EOF, Pos: start, Word: s.word}, nil
	}
	c := s.peek()
	switch {
	case c == '-' && s.peekAt(1) == '-':
		return s.lineComment(start), nil
	case c == '/' && s.peekAt(1) == '*':
		return s.blockComment(start)
	case identStart[c]:
		return s.identifier(start), nil
	case isDigit(c) || (c == '.' && isDigit(s.peekAt(1))):
		return s.number(start), nil
	case c == '\'':
		return s.stringLit(start)
	case c == '"':
		return s.quotedIdent(start, '"', '"')
	case c == '[':
		return s.quotedIdent(start, '[', ']')
	case c == '@':
		return s.variable(start), nil
	case c == ',':
		s.advance()
		return s.emit(Comma, ",", start), nil
	case c == '(':
		s.advance()
		return s.emit(LParen, "(", start), nil
	case c == ')':
		s.advance()
		return s.emit(RParen, ")", start), nil
	case c == ';':
		s.advance()
		return s.emit(Semi, ";", start), nil
	default:
		return s.operator(start)
	}
}

func (s *scanner) emit(k Kind, text string, pos Pos) Token {
	t := Token{Kind: k, Text: text, Pos: pos, Word: s.word}
	s.word++
	return t
}

// upper is strings.ToUpper with a manual ASCII fast path: already-uppercase
// text (keywords, operators, numbers — the bulk of SQL) returns the input
// string without allocating.
func upper(s string) string {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= 0x80 {
			return strings.ToUpper(s)
		}
	}
	return s
}

func (s *scanner) lineComment(start Pos) Token {
	begin := s.off
	for s.off < len(s.src) && s.src[s.off] != '\n' {
		s.advance()
	}
	return Token{Kind: Comment, Text: s.src[begin:s.off], Pos: start, Word: s.word}
}

func (s *scanner) blockComment(start Pos) (Token, error) {
	begin := s.off
	s.advance() // '/'
	s.advance() // '*'
	for s.off < len(s.src) {
		if s.peek() == '*' && s.peekAt(1) == '/' {
			s.advance()
			s.advance()
			return Token{Kind: Comment, Text: s.src[begin:s.off], Pos: start, Word: s.word}, nil
		}
		s.advance()
	}
	return Token{}, &Error{Pos: start, Msg: "unterminated block comment"}
}

func (s *scanner) identifier(start Pos) Token {
	begin := s.off
	s.skipRun(s.identRun(begin) - begin)
	text := s.src[begin:s.off]
	kind := Ident
	if isKeywordWord(text) {
		kind = Keyword
	}
	t := Token{Kind: kind, Text: text, Pos: start, Word: s.word}
	s.word++
	return t
}

// number scans a numeric literal: digits, an optional fraction (or a
// trailing dot such as "1."), and an optional exponent. An E not followed
// by digits (after an optional sign) is not part of the number.
func (s *scanner) number(start Pos) Token {
	begin := s.off
	end := s.digitRun(begin)
	if s.at(end) == '.' && isDigit(s.at(end+1)) {
		end = s.digitRun(end + 1)
	} else if s.at(end) == '.' && !identStart[s.at(end+1)] {
		end++ // trailing-dot float such as "1."
	}
	if c := s.at(end); c == 'e' || c == 'E' {
		exp := end + 1
		if c := s.at(exp); c == '+' || c == '-' {
			exp++
		}
		if isDigit(s.at(exp)) {
			end = s.digitRun(exp)
		}
	}
	s.skipRun(end - begin)
	return s.emit(Number, s.src[begin:s.off], start)
}

func (s *scanner) stringLit(start Pos) (Token, error) {
	begin := s.off
	s.advance() // opening quote
	for s.off < len(s.src) {
		c := s.advance()
		if c == '\'' {
			if s.peek() == '\'' { // escaped quote
				s.advance()
				continue
			}
			return s.emit(String, s.src[begin:s.off], start), nil
		}
	}
	return Token{}, &Error{Pos: start, Msg: "unterminated string literal"}
}

func (s *scanner) quotedIdent(start Pos, open, close byte) (Token, error) {
	begin := s.off
	s.advance() // opening delimiter
	for s.off < len(s.src) {
		c := s.advance()
		if c == close {
			if close == '"' && s.peek() == '"' {
				s.advance()
				continue
			}
			return s.emit(QuotedIdent, s.src[begin:s.off], start), nil
		}
	}
	return Token{}, &Error{Pos: start, Msg: fmt.Sprintf("unterminated quoted identifier (%c...%c)", open, close)}
}

func (s *scanner) variable(start Pos) Token {
	begin := s.off
	s.advance() // '@'
	if s.peek() == '@' {
		s.advance() // system variable @@x
	}
	s.skipRun(s.identRun(s.off) - s.off)
	return s.emit(Variable, s.src[begin:s.off], start)
}

// twoByteOps are the multi-byte operators, checked before single-byte ones.
var twoByteOps = []string{"<>", "!=", "<=", ">=", "||"}

func (s *scanner) operator(start Pos) (Token, error) {
	if s.off+1 < len(s.src) {
		two := s.src[s.off : s.off+2]
		for _, op := range twoByteOps {
			if two == op {
				s.advance()
				s.advance()
				return s.emit(Op, op, start), nil
			}
		}
	}
	c := s.peek()
	switch c {
	case '=', '<', '>', '+', '-', '*', '/', '%', '.':
		// The text is sliced from the source: string(c) would allocate.
		s.skipRun(1)
		return s.emit(Op, s.src[s.off-1:s.off], start), nil
	}
	return Token{}, &Error{Pos: start, Msg: fmt.Sprintf("unexpected character %q", string(c))}
}

// Words splits raw SQL text into whitespace-separated words, the unit the
// paper uses for word_count and missing-token positions.
func Words(src string) []string { return strings.Fields(src) }

// WordCount is len(Words(src)) without building the slice: the number of
// maximal runs of non-space runes, with space as unicode.IsSpace defines it
// (invalid UTF-8 decodes to U+FFFD, which is not space).
func WordCount(src string) int {
	n, inWord := 0, false
	for _, r := range src {
		if unicode.IsSpace(r) {
			inWord = false
		} else if !inWord {
			n, inWord = n+1, true
		}
	}
	return n
}
