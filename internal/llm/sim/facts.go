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

func digestOf(sql string) digest { return sha256.Sum256([]byte(sql)) }

func pairDigest(sql1, sql2 string) digest {
	h := sha256.New()
	h.Write([]byte(sql1))
	h.Write([]byte{0})
	h.Write([]byte(sql2))
	var d digest
	h.Sum(d[:0])
	return d
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

func (k *Knowledge) syntaxFacts(sql string) syntaxFacts {
	return cached(&k.facts.syntax, digestOf(sql), func() syntaxFacts {
		f := syntaxFacts{dataset: k.DetectDataset(sql), words: len(sqllex.Words(sql))}
		if diags := k.checker.CheckSQL(sql); len(diags) > 0 {
			f.hasError, f.primary, f.detail = true, semcheck.Primary(diags), diags[0].Msg
		}
		return f
	})
}

func (k *Knowledge) missingFacts(sql string) missingFacts {
	return cached(&k.facts.missing, digestOf(sql), func() missingFacts {
		return missingFacts{
			dataset: k.DetectDataset(sql),
			words:   len(sqllex.Words(sql)),
			det:     repair.Detect(sql, k.Merged),
		}
	})
}

func (k *Knowledge) perfFacts(sql string) perfFacts {
	return cached(&k.facts.perf, digestOf(sql), func() perfFacts {
		props := analyze.Compute(sql)
		return perfFacts{
			dataset: k.DetectDataset(sql),
			words:   props.WordCount,
			columns: props.ColumnCount,
			big:     countBigTables(sql),
		}
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
		f := equivFacts{dataset: k.DetectDataset(sql1)}
		sel1, err1 := sqlparse.ParseSelect(sql1)
		sel2, err2 := sqlparse.ParseSelect(sql2)
		if err1 != nil || err2 != nil {
			return f
		}
		f.ok = true
		f.words = len(sqllex.Words(sql1))
		f.guess = equiv.ClassifyPair(sel1, sel2)
		f.added, f.removed = equiv.DiffStats(sql1, sql2)
		f.rule = equiv.RuleEquivalent(sel1, sel2)
		return f
	})
}
