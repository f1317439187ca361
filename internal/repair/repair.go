// Package repair implements a missing-token detector: given a damaged SQL
// query, it searches for a single token insertion near the parse-failure
// point that makes the query parse (and classifies what was inserted). It
// backs the miss_token oracle inside the simulated models and the sqlcheck
// CLI's fix suggestions. Its natural error modes — keywords repair reliably,
// while table/column/alias insertions are often interchangeable — mirror the
// difficulty ordering the paper observes.
package repair

import (
	"errors"
	"strings"

	"repro/internal/catalog"
	"repro/internal/freelist"
	"repro/internal/mutate"
	"repro/internal/semcheck"
	"repro/internal/sqlast"
	"repro/internal/sqllex"
	"repro/internal/sqlparse"
)

// Result describes a detected missing token.
type Result struct {
	Found bool
	Kind  mutate.TokenKind
	// WordIndex is the estimated word position of the missing token in the
	// damaged text (0-based, whitespace words).
	WordIndex int
	// Inserted is the token text whose insertion repaired the query.
	Inserted string
}

// keyword candidates tried during repair, most common first.
var keywordCandidates = []string{
	"SELECT", "FROM", "WHERE", "BY", "GROUP", "ON", "AND", "AS", "IN",
	"JOIN", "ORDER", "HAVING", "BETWEEN", "VALUES", "INTO", "SET", "TABLE",
}

// Detect analyzes a possibly damaged query. When the query parses and is
// semantically clean against the schema, it reports Found=false. Otherwise
// it tries single-token insertions around the failure point and returns the
// first repair that makes the query parse. The query is lexed once; every
// later parse reuses its tokens.
func Detect(sql string, schema *catalog.Schema) Result {
	buf := sqllex.GetBuffer()
	defer buf.Release()
	toks, err := buf.LexWords(sql)
	return DetectTokens(sql, toks, err, schema)
}

// DetectTokens is Detect over the result of sqllex.LexWords(sql), for
// callers that derive other facts from the same tokens. The Result keeps
// no part of toks.
func DetectTokens(sql string, toks []sqllex.Token, err error, schema *catalog.Schema) Result {
	if err != nil || len(toks) == 0 {
		return Result{Found: true, Kind: mutate.TokValue, WordIndex: 0, Inserted: "?"}
	}
	stmt, perr := sqlparse.ParseStatementTokens(toks)
	if perr != nil {
		return repairAt(sql, toks, failureIndex(perr, toks))
	}
	return detectSemanticGap(sql, toks, stmt, schema)
}

// failureIndex maps a parse error back to the index of the offending token.
func failureIndex(err error, toks []sqllex.Token) int {
	var pe *sqlparse.ParseError
	if !errors.As(err, &pe) {
		return len(toks)
	}
	for i, t := range toks {
		if t.Pos.Offset >= pe.Pos.Offset {
			return i
		}
	}
	return len(toks)
}

// candidate is one token repairAt tries to insert, lexed once.
type candidate struct {
	tok  sqllex.Token
	kind mutate.TokenKind
}

func lexCandidate(text string, kind mutate.TokenKind) candidate {
	toks, err := sqllex.LexWords(text)
	if err != nil || len(toks) != 1 {
		panic("repair: candidate " + text + " is not one token")
	}
	return candidate{toks[0], kind}
}

var (
	eqCandidate   = lexCandidate("=", mutate.TokComparison)
	zeroCandidate = lexCandidate("0", mutate.TokValue)
	// baseCandidates are tried at every gap: the keywords, most common
	// first, then an identifier (kind refined by context) and values.
	baseCandidates = func() []candidate {
		out := make([]candidate, 0, len(keywordCandidates)+4)
		for _, kw := range keywordCandidates {
			out = append(out, lexCandidate(kw, mutate.TokKeyword))
		}
		return append(out,
			lexCandidate("x0", mutate.TokColumn),
			zeroCandidate,
			lexCandidate("'v'", mutate.TokValue),
			eqCandidate,
		)
	}()
)

// repairAt tries inserting candidate tokens at gap positions around the
// failure token and returns the first insertion that parses. Candidates are
// recognized from tokens, which is equivalent to parsing the re-joined text:
// the lexer is context-free and the parser ignores token positions. Every
// buffer agrees with toks before its gap, so one sqlparse.Prefix serves the
// whole search with shared = gap: a candidate parse reuses the select items,
// table references and conjuncts that end before the gap and parses only
// the element that contains it. Gaps are tried in increasing order, so what
// one gap stores stays reusable at every later one.
func repairAt(sql string, toks []sqllex.Token, fail int) Result {
	sc := scratches.Get()
	defer sc.release()
	gap, c, ok := sc.search(toks, fail, func(buf []sqllex.Token, gap int, _ candidate) bool {
		return sc.prefix.Recognize(buf, gap) == nil
	})
	if !ok {
		// Unrepairable with one token: still clearly damaged.
		return Result{Found: true, Kind: mutate.TokKeyword, WordIndex: wordIndexOfToken(sql, toks, fail), Inserted: ""}
	}
	kind := c.kind
	if c.kind == mutate.TokColumn {
		kind = classifyIdentGap(toks, gap)
	}
	return Result{
		Found:     true,
		Kind:      kind,
		WordIndex: wordIndexOfToken(sql, toks, gap),
		Inserted:  c.tok.Text,
	}
}

// scratch is the storage of one repair search: the splice buffer, the
// candidate list and the rule memo. Searches take it from a free list, so a
// search allocates none of them once the list is warm.
type scratch struct {
	buf    []sqllex.Token
	cands  []candidate
	prefix sqlparse.Prefix
}

// maxScratchTokens caps the splice buffers the free list keeps: 256 tokens
// (10 KiB, plus 40 KiB of memo rows at 160 B a token) hold 684 of the 692
// damaged queries of seeds 1 and 2, whose longest has 303 tokens. A longer
// query grows its scratch, which release then drops, so the rare long query
// does not set what the list keeps.
const maxScratchTokens = 256

var scratches freelist.List[scratch]

// release gives sc back to the free list unless its buffer outgrew
// maxScratchTokens. It zeroes the buffer and resets the memo first, so a
// kept scratch pins no query text.
func (sc *scratch) release() {
	if cap(sc.buf) > maxScratchTokens {
		return
	}
	clear(sc.buf[:cap(sc.buf)])
	sc.prefix.Reset()
	scratches.Put(sc)
}

// search splices candidate tokens into toks at each gap from three before
// the failure token to two after it, in increasing order, and calls try with
// each spliced buffer until try accepts one. The buffer is sc's and is
// reused between calls; try must not keep it.
func (sc *scratch) search(toks []sqllex.Token, fail int, try func(buf []sqllex.Token, gap int, c candidate) bool) (int, candidate, bool) {
	lo := fail - 3
	if lo < 0 {
		lo = 0
	}
	hi := fail + 2
	if hi > len(toks) {
		hi = len(toks)
	}
	if n := len(toks) + 1; cap(sc.buf) < n {
		sc.buf = make([]sqllex.Token, n)
	}
	buf := sc.buf[:len(toks)+1]
	if sc.cands == nil {
		sc.cands = make([]candidate, 0, len(baseCandidates)+2)
	}
	cands := sc.cands // never outgrows its capacity, so it stays sc's
	for gap := lo; gap <= hi; gap++ {
		copy(buf, toks[:gap])
		copy(buf[gap+1:], toks[gap:])
		cands = cands[:0]
		// A gap flanked by value-like tokens most plausibly lost a
		// comparison operator; try it first there.
		if valueLike(toks, gap-1) && valueLike(toks, gap) {
			cands = append(cands, eqCandidate)
		}
		// A gap right after a comparison operator most plausibly lost the
		// literal operand.
		if gap > 0 && toks[gap-1].Kind == sqllex.Op && comparisonOp(toks[gap-1].Text) {
			cands = append(cands, zeroCandidate)
		}
		cands = append(cands, baseCandidates...)
		for _, c := range cands {
			buf[gap] = c.tok
			if try(buf, gap, c) {
				return gap, c, true
			}
		}
	}
	return 0, candidate{}, false
}

// comparisonOp reports whether the operator text is a comparison.
func comparisonOp(text string) bool {
	switch text {
	case "=", "<>", "!=", "<", ">", "<=", ">=":
		return true
	}
	return false
}

// valueLike reports whether the token at index i can be a comparison
// operand (identifier, number, or string).
func valueLike(toks []sqllex.Token, i int) bool {
	if i < 0 || i >= len(toks) {
		return false
	}
	switch toks[i].Kind {
	case sqllex.Ident, sqllex.QuotedIdent, sqllex.Number, sqllex.String:
		return true
	}
	return false
}

// classifyIdentGap decides whether an identifier inserted at the gap plays
// the role of a table, alias, or column, from surrounding tokens.
func classifyIdentGap(toks []sqllex.Token, gap int) mutate.TokenKind {
	var prev, next sqllex.Token
	if gap > 0 {
		prev = toks[gap-1]
	}
	if gap < len(toks) {
		next = toks[gap]
	}
	switch {
	case prev.Is("FROM") || prev.Is("JOIN") || prev.Is("INTO") || prev.Is("UPDATE") || prev.Is("TABLE"):
		return mutate.TokTable
	case prev.Is("AS"):
		return mutate.TokAlias
	case next.Kind == sqllex.Op && next.Text == ".":
		return mutate.TokAlias // qualifier position
	case prev.Kind == sqllex.Op && prev.Text == ".":
		return mutate.TokColumn
	case prev.Kind == sqllex.Comma && inFromList(toks, gap):
		return mutate.TokTable // comma-separated FROM list (implicit joins)
	default:
		return mutate.TokColumn
	}
}

// inFromList reports whether the gap sits inside a comma-separated FROM
// clause (the nearest structural keyword looking backwards is FROM).
func inFromList(toks []sqllex.Token, gap int) bool {
	depth := 0
	for i := gap - 1; i >= 0; i-- {
		t := toks[i]
		switch {
		case t.Kind == sqllex.RParen:
			depth++
		case t.Kind == sqllex.LParen:
			depth--
		case depth == 0 && t.Is("FROM"):
			return true
		case depth == 0 && (t.Is("SELECT") || t.Is("WHERE") || t.Is("ON") || t.Is("BY")):
			return false
		}
	}
	return false
}

// wordIndexOfToken converts a token gap index to a whitespace-word index in
// the damaged text.
func wordIndexOfToken(sql string, toks []sqllex.Token, gap int) int {
	if gap >= len(toks) {
		gap = len(toks) - 1
	}
	if gap < 0 {
		return 0
	}
	// Count word starts up to and including the gap token's offset.
	offset := toks[gap].Pos.Offset
	idx := -1
	inWord := false
	for i := 0; i <= offset && i < len(sql); i++ {
		c := sql[i]
		space := c == ' ' || c == '\t' || c == '\n' || c == '\r'
		if !space && !inWord {
			idx++
			inWord = true
		} else if space {
			inWord = false
		}
	}
	if idx < 0 {
		return 0
	}
	return idx
}

// detectSemanticGap handles removals that leave the query parsable (dropped
// aliases, AS keywords, or a dropped FROM that turns the table name into an
// implicit alias): the semantic checker's diagnostics reveal them.
func detectSemanticGap(sql string, toks []sqllex.Token, stmt sqlast.Stmt, schema *catalog.Schema) Result {
	if schema == nil {
		return Result{}
	}
	// A SELECT with no FROM whose projection "alias" names a known table is
	// the signature of a dropped FROM keyword.
	if sel, ok := stmt.(*sqlast.SelectStmt); ok && len(sel.From) == 0 {
		for _, item := range sel.Items {
			if item.Alias == "" {
				continue
			}
			if _, found := schema.Table(item.Alias); !found {
				continue
			}
			for i, t := range toks {
				if (t.Kind == sqllex.Ident || t.Kind == sqllex.QuotedIdent) &&
					strings.EqualFold(t.Val(), item.Alias) {
					return Result{Found: true, Kind: mutate.TokKeyword, WordIndex: wordIndexOfToken(sql, toks, i), Inserted: "FROM"}
				}
			}
		}
	}
	diags := semcheck.New(schema).Check(stmt)
	if len(diags) == 0 {
		return Result{}
	}
	mid := wordIndexOfToken(sql, toks, len(toks)/2)
	switch semcheck.Primary(diags) {
	case semcheck.CodeAliasAmbiguous:
		// A dropped qualifier: the first unqualified reference that is
		// ambiguous across the FROM tables marks the spot.
		if idx, ok := firstAmbiguousRef(sql, toks, stmt, schema); ok {
			return Result{Found: true, Kind: mutate.TokAlias, WordIndex: idx, Inserted: ""}
		}
		return Result{Found: true, Kind: mutate.TokAlias, WordIndex: mid, Inserted: ""}
	case semcheck.CodeAliasUndefined:
		for i, t := range toks {
			if t.Kind == sqllex.Op && t.Text == "." && i > 0 {
				return Result{Found: true, Kind: mutate.TokAlias, WordIndex: wordIndexOfToken(sql, toks, i-1), Inserted: ""}
			}
		}
		return Result{Found: true, Kind: mutate.TokAlias, WordIndex: mid, Inserted: ""}
	case semcheck.CodeUnknownColumn:
		if idx, ok := firstUnknownIdent(sql, toks, stmt, schema); ok {
			return Result{Found: true, Kind: mutate.TokColumn, WordIndex: idx, Inserted: ""}
		}
		return Result{Found: true, Kind: mutate.TokColumn, WordIndex: mid, Inserted: ""}
	case semcheck.CodeUnknownTable:
		for i, t := range toks {
			if t.Is("FROM") && i+1 < len(toks) {
				return Result{Found: true, Kind: mutate.TokTable, WordIndex: wordIndexOfToken(sql, toks, i+1), Inserted: ""}
			}
		}
		return Result{Found: true, Kind: mutate.TokTable, WordIndex: mid, Inserted: ""}
	case semcheck.CodeConditionMismatch:
		for i, t := range toks {
			if t.Kind == sqllex.Op && comparisonOp(t.Text) {
				return Result{Found: true, Kind: mutate.TokValue, WordIndex: wordIndexOfToken(sql, toks, i), Inserted: ""}
			}
		}
		return Result{Found: true, Kind: mutate.TokValue, WordIndex: mid, Inserted: ""}
	default:
		// Some other semantic damage: a token is evidently gone even though
		// its role is unclear; guess column at the query's middle.
		return Result{Found: true, Kind: mutate.TokColumn, WordIndex: mid, Inserted: ""}
	}
}

// fromTables extracts the base tables referenced by the statement's FROM
// clauses (resolvable against the schema).
func fromTables(stmt sqlast.Stmt, schema *catalog.Schema) []*catalog.Table {
	var out []*catalog.Table
	sqlast.Walk(stmt, func(n sqlast.Node) bool {
		if tn, ok := n.(*sqlast.TableName); ok {
			if tab, found := schema.Table(tn.Name); found {
				out = append(out, tab)
			}
		}
		return true
	})
	return out
}

// firstAmbiguousRef finds the first unqualified identifier whose name is a
// column of at least two FROM tables.
func firstAmbiguousRef(sql string, toks []sqllex.Token, stmt sqlast.Stmt, schema *catalog.Schema) (int, bool) {
	tables := fromTables(stmt, schema)
	if len(tables) < 2 {
		return 0, false
	}
	for i, t := range toks {
		if t.Kind != sqllex.Ident {
			continue
		}
		if i > 0 && toks[i-1].Text == "." {
			continue // qualified
		}
		if i+1 < len(toks) && (toks[i+1].Text == "." || toks[i+1].Kind == sqllex.LParen) {
			continue // qualifier or function
		}
		hits := 0
		for _, tab := range tables {
			if _, ok := tab.Column(t.Val()); ok {
				hits++
			}
		}
		if hits >= 2 {
			return wordIndexOfToken(sql, toks, i), true
		}
	}
	return 0, false
}

// firstUnknownIdent finds the first bare identifier that is neither a table,
// a known column of the FROM tables, nor a function name.
func firstUnknownIdent(sql string, toks []sqllex.Token, stmt sqlast.Stmt, schema *catalog.Schema) (int, bool) {
	tables := fromTables(stmt, schema)
	aliases := map[string]bool{}
	for i, t := range toks {
		if i > 0 && toks[i-1].Is("AS") && (t.Kind == sqllex.Ident || t.Kind == sqllex.QuotedIdent) {
			aliases[strings.ToLower(t.Val())] = true
		}
	}
	for i, t := range toks {
		if t.Kind != sqllex.Ident {
			continue
		}
		if i+1 < len(toks) && (toks[i+1].Kind == sqllex.LParen || toks[i+1].Text == ".") {
			continue // function or qualifier
		}
		if i > 0 && (toks[i-1].Is("AS") || toks[i-1].Text == ".") {
			continue // alias definition or qualified column
		}
		if _, isTable := schema.Table(t.Val()); isTable {
			continue
		}
		if aliases[strings.ToLower(t.Val())] {
			// A bare alias is exactly what a stripped qualified reference
			// looks like: the damage is here.
			return wordIndexOfToken(sql, toks, i), true
		}
		known := false
		for _, tab := range tables {
			if _, ok := tab.Column(t.Val()); ok {
				known = true
				break
			}
		}
		if !known {
			return wordIndexOfToken(sql, toks, i), true
		}
	}
	return 0, false
}
