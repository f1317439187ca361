package sim

import (
	"crypto/sha256"
	"strings"

	"repro/internal/analyze"
	"repro/internal/equiv"
	"repro/internal/nlgen"
	"repro/internal/repair"
	"repro/internal/runner"
	"repro/internal/semcheck"
	"repro/internal/sqlast"
	"repro/internal/sqllex"
	"repro/internal/sqlparse"
)

// Every answer* except answerState reads only pure functions of its SQL
// text. Knowledge derives those facts once per text and shares them across
// all five models: one capped LRU cache per fact kind, keyed by the SHA-256
// of the text. A digest key pins nothing, where a string key would keep
// alive the whole rendered prompt the query was sliced from.

// factCacheLimit caps each fact cache. A cold paper regeneration sees about
// 1.9k distinct texts, so 4096 entries keep every one of them while
// bounding the heap under traffic that never repeats a text.
const factCacheLimit = 4096

// digest is a fact cache key: the SHA-256 of the SQL text (of "sql1 NUL
// sql2" for a pair).
type digest [sha256.Size]byte

// digestBuf sizes the stack buffer digestOf and pairDigest copy their text
// into for hashing. At seed 1 it holds every single query (the longest is
// 1,200 bytes) and 99% of the NUL-joined pairs; a longer text spills the
// copy to the heap.
const digestBuf = 2048

func digestOf(sql string) digest {
	var buf [digestBuf]byte
	return sha256.Sum256(append(buf[:0], sql...))
}

func pairDigest(sql1, sql2 string) digest {
	var buf [digestBuf]byte
	b := append(buf[:0], sql1...)
	b = append(b, 0)
	return sha256.Sum256(append(b, sql2...))
}

// syntaxFacts is what answerSyntax reads of a query.
type syntaxFacts struct {
	dataset  string
	words    int
	hasError bool
	primary  semcheck.Code // primary diagnostic, when hasError
	detail   string        // the first diagnostic's message, when hasError
}

// missingFacts is what answerMissToken and answerFill read of a query.
type missingFacts struct {
	dataset string
	words   int
	det     repair.Result
}

// perfFacts is what answerPerf reads of a query.
type perfFacts struct {
	dataset string
	words   int // analyze's word count
	columns int
	big     int // distinct production-scale tables named
}

// explainFacts is what answerExplain reads of a query.
type explainFacts struct {
	ok    bool // the query parses as a SELECT
	facts nlgen.Facts
}

// equivFacts is what answerEquiv reads of a query pair.
type equivFacts struct {
	dataset        string // of the left query
	ok             bool   // both sides parse as SELECTs
	words          int    // of the left query
	guess          equiv.Type
	added, removed int
	rule           bool // provably equivalent under normalization
}

// factCaches holds one cache per fact kind.
type factCaches struct {
	syntax  runner.Flight[digest, syntaxFacts]
	missing runner.Flight[digest, missingFacts]
	perf    runner.Flight[digest, perfFacts]
	explain runner.Flight[digest, explainFacts]
	equiv   runner.Flight[digest, equivFacts]
}

func (c *factCaches) setLimit(n int) {
	c.syntax.SetLimit(n)
	c.missing.SetLimit(n)
	c.perf.SetLimit(n)
	c.explain.SetLimit(n)
	c.equiv.SetLimit(n)
}

// cached returns the fact for key from cache, computing it on a miss.
func cached[V any](cache *runner.Flight[digest, V], key digest, compute func() V) V {
	v, _ := cache.Do(key, func() (V, error) { return compute(), nil })
	return v
}

// Each compute function below lexes its text once (each side of a pair
// once) and derives every field from those tokens. A text that does not lex
// takes the string forms, whose messages and fallbacks stay byte-identical.
// No fact keeps a token slice, so the tokens go into a sqllex.Buffer that
// is released when the facts are done.

func (k *Knowledge) syntaxFacts(sql string) syntaxFacts {
	return cached(&k.facts.syntax, digestOf(sql), func() syntaxFacts {
		buf := sqllex.GetBuffer()
		defer buf.Release()
		toks, err := buf.LexWords(sql)
		f := syntaxFacts{dataset: k.detectDatasetTokens(toks, err), words: sqllex.WordCount(sql)}
		if diags := k.diagnostics(sql, toks, err); len(diags) > 0 {
			f.hasError, f.primary, f.detail = true, semcheck.Primary(diags), diags[0].Msg
		}
		return f
	})
}

// diagnostics is k.checker.CheckSQL(sql) over the result of
// sqllex.LexWords(sql).
func (k *Knowledge) diagnostics(sql string, toks []sqllex.Token, err error) []semcheck.Diagnostic {
	if err != nil {
		return k.checker.CheckSQL(sql)
	}
	stmt, err := sqlparse.ParseStatementTokens(toks)
	if err != nil {
		return []semcheck.Diagnostic{{Code: semcheck.CodeParse, Msg: err.Error()}}
	}
	return k.checker.Check(stmt)
}

func (k *Knowledge) missingFacts(sql string) missingFacts {
	return cached(&k.facts.missing, digestOf(sql), func() missingFacts {
		buf := sqllex.GetBuffer()
		defer buf.Release()
		toks, err := buf.LexWords(sql)
		return missingFacts{
			dataset: k.detectDatasetTokens(toks, err),
			words:   sqllex.WordCount(sql),
			det:     repair.DetectTokens(sql, toks, err, k.Merged),
		}
	})
}

func (k *Knowledge) perfFacts(sql string) perfFacts {
	return cached(&k.facts.perf, digestOf(sql), func() perfFacts {
		buf := sqllex.GetBuffer()
		defer buf.Release()
		toks, err := buf.LexWords(sql)
		f := perfFacts{dataset: k.detectDatasetTokens(toks, err), words: sqllex.WordCount(sql)}
		if err != nil {
			return f // analyze's lexical fallback: no columns, no tables
		}
		if stmt, err := sqlparse.ParseStatementTokens(toks); err == nil {
			f.columns = analyze.ComputeStmt(stmt, sql).ColumnCount
		}
		f.big = countBigTables(toks)
		return f
	})
}

func (k *Knowledge) explainFacts(sql string) explainFacts {
	return cached(&k.facts.explain, digestOf(sql), func() explainFacts {
		// The extracted facts keep substrings of the parsed text; parsing a
		// copy keeps them from pinning the prompt the query came from.
		sel, err := sqlparse.ParseSelect(strings.Clone(sql))
		if err != nil {
			return explainFacts{}
		}
		return explainFacts{ok: true, facts: nlgen.Extract(sel)}
	})
}

func (k *Knowledge) equivFacts(sql1, sql2 string) equivFacts {
	return cached(&k.facts.equiv, pairDigest(sql1, sql2), func() equivFacts {
		buf1, buf2 := sqllex.GetBuffer(), sqllex.GetBuffer()
		defer buf1.Release()
		defer buf2.Release()
		toks1, err1 := buf1.LexWords(sql1)
		toks2, err2 := buf2.LexWords(sql2)
		f := equivFacts{dataset: k.detectDatasetTokens(toks1, err1)}
		if err1 != nil || err2 != nil {
			return f
		}
		sel1, ok1 := parseSelectTokens(toks1)
		sel2, ok2 := parseSelectTokens(toks2)
		if !ok1 || !ok2 {
			return f
		}
		f.ok = true
		f.words = sqllex.WordCount(sql1)
		f.guess = equiv.ClassifyPair(sel1, sel2)
		f.added, f.removed = equiv.DiffTokens(toks1, toks2)
		f.rule = equiv.RuleEquivalent(sel1, sel2)
		return f
	})
}

// parseSelectTokens reports whether the tokens parse as a SELECT, as
// sqlparse.ParseSelect would on their text.
func parseSelectTokens(toks []sqllex.Token) (*sqlast.SelectStmt, bool) {
	stmt, err := sqlparse.ParseStatementTokens(toks)
	if err != nil {
		return nil, false
	}
	sel, ok := stmt.(*sqlast.SelectStmt)
	return sel, ok
}
