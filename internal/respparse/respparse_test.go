package respparse

import (
	"errors"
	"testing"

	"repro/internal/equiv"
	"repro/internal/mutate"
	"repro/internal/semcheck"
)

func TestParseSyntaxVariants(t *testing.T) {
	cases := []struct {
		resp    string
		has     bool
		errType string
	}{
		{"No, the query does not contain any syntax errors. It is well-formed SQL.", false, ""},
		{"Yes, the query contains an error. **Error type:** aggr-attr. Explanation: mixed aggregates.", true, "aggr-attr"},
		{"Yes. There is a problem with this query (nested-mismatch): subquery rows.", true, "nested-mismatch"},
		{"Based on my analysis, there are no syntax errors in this query.", false, ""},
		{"Based on my analysis, yes — the query has an error. Error type: alias-ambiguous. Details: x.", true, "alias-ambiguous"},
		{"no error", false, ""},
		{"yes; type=condition-mismatch; detail=types differ", true, "condition-mismatch"},
		{"The query appears to be free of syntax errors.", false, ""},
		{"The query appears to contain a alias-undefined error. Bad alias.", true, "alias-undefined"},
	}
	for _, c := range cases {
		v, err := ParseSyntax(c.resp)
		if err != nil {
			t.Errorf("ParseSyntax(%q): %v", c.resp, err)
			continue
		}
		if v.HasError != c.has || v.ErrorType != c.errType {
			t.Errorf("ParseSyntax(%q) = %+v, want has=%v type=%q", c.resp, v, c.has, c.errType)
		}
	}
}

func TestParseMissTokenVariants(t *testing.T) {
	cases := []struct {
		resp    string
		missing bool
		kind    string
		pos     int // 0-based, -1 none
	}{
		{"No, the query has no syntax errors and no missing words.", false, "", -1},
		{`Yes, there is a missing word. Type: keyword. The missing word is "FROM", at word position 3.`, true, "keyword", 2},
		{"yes; kind=comparison; token==; position=7", true, "comparison", 6},
		{"Based on my analysis, nothing is missing from this query.", false, "", -1},
		{`Based on my analysis, yes — a token is missing. Kind: alias, token "s", around word 5.`, true, "alias", 4},
		{"The query does not appear to be missing any words.", false, "", -1},
		{`The query appears to be missing a table ("SpecObj") near word 4.`, true, "table", 3},
		{"no; nothing missing", false, "", -1},
	}
	for _, c := range cases {
		v, err := ParseMissToken(c.resp)
		if err != nil {
			t.Errorf("ParseMissToken(%q): %v", c.resp, err)
			continue
		}
		if v.Missing != c.missing || v.Kind != c.kind || v.Position != c.pos {
			t.Errorf("ParseMissToken(%q) = %+v, want missing=%v kind=%q pos=%d", c.resp, v, c.missing, c.kind, c.pos)
		}
	}
}

func TestParseEquivVariants(t *testing.T) {
	cases := []struct {
		resp  string
		equal bool
		typ   string
	}{
		{"Yes, the two queries are equivalent: the rewrite is a cte transformation that preserves results.", true, "cte"},
		{"No, the two queries are not equivalent; they can return different results. The difference is a value-change change.", false, "value-change"},
		{"equivalent; type=reorder-conditions", true, "reorder-conditions"},
		{"not equivalent; type=logical-conditions", false, "logical-conditions"},
		{"The two queries appear to be equivalent (a join-nested rewrite).", true, "join-nested"},
		{"The two queries do not appear to be equivalent. The modification resembles agg-function.", false, "agg-function"},
		{"No — the queries differ in their results. It appears to be a drop-predicate modification.", false, "drop-predicate"},
	}
	for _, c := range cases {
		v, err := ParseEquiv(c.resp)
		if err != nil {
			t.Errorf("ParseEquiv(%q): %v", c.resp, err)
			continue
		}
		if v.Equivalent != c.equal || v.Type != c.typ {
			t.Errorf("ParseEquiv(%q) = %+v, want equal=%v type=%q", c.resp, v, c.equal, c.typ)
		}
	}
}

func TestParsePerfVariants(t *testing.T) {
	costly := []string{
		"Yes, this query will likely take longer than usual to run, given its joins and scan volume.",
		"yes; high cost",
		"Yes — this looks like a heavy query that takes longer than usual.",
		"This query is likely to take longer than usual.",
	}
	fast := []string{
		"No, this query should run quickly; it touches limited data.",
		"no; low cost",
		"No — this looks like a light query.",
		"This query is unlikely to take longer than usual.",
	}
	for _, r := range costly {
		got, err := ParsePerf(r)
		if err != nil || !got {
			t.Errorf("ParsePerf(%q) = %v, %v; want true", r, got, err)
		}
	}
	for _, r := range fast {
		got, err := ParsePerf(r)
		if err != nil || got {
			t.Errorf("ParsePerf(%q) = %v, %v; want false", r, got, err)
		}
	}
}

func TestUnparseable(t *testing.T) {
	if _, err := ParseSyntax("the weather is nice"); !errors.Is(err, ErrUnparseable) {
		t.Error("expected ErrUnparseable for syntax")
	}
	if _, err := ParsePerf("the weather is nice"); !errors.Is(err, ErrUnparseable) {
		t.Error("expected ErrUnparseable for perf")
	}
	if _, err := ParseEquiv("the weather is nice"); !errors.Is(err, ErrUnparseable) {
		t.Error("expected ErrUnparseable for equiv")
	}
}

func TestParseExplanation(t *testing.T) {
	if got := ParseExplanation("  Explanation: This query lists plates.  "); got != "This query lists plates." {
		t.Errorf("ParseExplanation = %q", got)
	}
}

func TestLongestVocabWins(t *testing.T) {
	v, err := ParseEquiv("equivalent; type=distinct-groupby")
	if err != nil || v.Type != "distinct-groupby" {
		t.Errorf("got %+v, want distinct-groupby (not a shorter substring match)", v)
	}
}

// Every label of the syntax-error, missing-token and equivalence
// vocabularies parses back from a terse answer naming it.
func TestEveryLabelParsesBack(t *testing.T) {
	for _, code := range semcheck.PaperErrorTypes {
		if v, err := ParseSyntax("yes; type=" + string(code)); err != nil || !v.HasError || v.ErrorType != string(code) {
			t.Errorf("syntax label %s parses to %+v, %v", code, v, err)
		}
	}
	for _, kind := range mutate.TokenKinds {
		if v, err := ParseMissToken("yes; kind=" + string(kind)); err != nil || !v.Missing || v.Kind != string(kind) {
			t.Errorf("token kind %s parses to %+v, %v", kind, v, err)
		}
	}
	for answer, types := range map[string][]equiv.Type{
		"equivalent":     equiv.EquivTypes(),
		"not equivalent": equiv.NonEquivTypes(),
	} {
		for _, typ := range types {
			v, err := ParseEquiv(answer + "; type=" + string(typ))
			if err != nil || v.Equivalent != (answer == "equivalent") || v.Type != string(typ) {
				t.Errorf("equivalence type %s parses to %+v, %v", typ, v, err)
			}
		}
	}
}
