package repair

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/sqllex"
	"repro/internal/sqlparse"
)

// sameParseError reports whether two parse results carry the same error:
// both nil, or both a *sqlparse.ParseError with equal fields: position,
// message format and argument, and near text.
func sameParseError(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	var g, w *sqlparse.ParseError
	if !errors.As(got, &g) || !errors.As(want, &w) {
		return got.Error() == want.Error()
	}
	return *g == *w
}

// TestRecognizeMatchesParseOnRepairBuffers checks the memoized recognizer
// against a fresh parse on every buffer the repair search builds: for each
// input that fails to parse, at every gap and for every candidate (the
// search is not stopped at the first repair), Prefix.Recognize with
// shared = gap must return the error ParseStatementTokens returns on the
// same buffer. Inputs are the syntax, tokens and fill inputs of seeds 1-3
// and the seed-1 deletion sweep, so stored failures and end-of-input
// horizons are compared directly, not only through the final Result.
func TestRecognizeMatchesParseOnRepairBuffers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three benchmarks")
	}
	searched, buffers := 0, 0
	for _, seed := range []int64{1, 2, 3} {
		b, err := core.Build(core.BuildConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		inputs := cellInputs(t, b)
		if seed == 1 {
			inputs = append(inputs, deletionInputs(t, b)...)
		}
		for _, in := range inputs {
			toks, err := sqllex.LexWords(in.sql)
			if err != nil || len(toks) == 0 {
				continue
			}
			_, perr := sqlparse.ParseStatementTokens(toks)
			if perr == nil {
				continue
			}
			searched++
			var prefix sqlparse.Prefix
			new(scratch).search(toks, failureIndex(perr, toks), func(buf []sqllex.Token, gap int, c candidate) bool {
				buffers++
				_, want := sqlparse.ParseStatementTokens(buf)
				if got := prefix.Recognize(buf, gap); !sameParseError(got, want) {
					t.Errorf("seed %d %s, %q at gap %d: Recognize = %v, parse = %v\n%s", seed, in.where, c.tok.Text, gap, got, want, in.sql)
				}
				return false
			})
		}
	}
	if searched == 0 || buffers == 0 {
		t.Fatalf("searched %d inputs, %d buffers", searched, buffers)
	}
	t.Logf("%d inputs searched, %d buffers compared", searched, buffers)
}
