// Package respparse post-processes verbose LLM responses into task labels —
// the "automated scripts" of the paper's Section 3.4. Models phrase answers
// differently (terse key=value, hedged prose, markdown), so extraction works
// from negation-aware patterns rather than fixed formats.
package respparse

import (
	"errors"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/equiv"
	"repro/internal/mutate"
	"repro/internal/semcheck"
)

// ErrUnparseable is returned when no label can be extracted.
var ErrUnparseable = errors.New("response could not be parsed")

// SyntaxVerdict is the label pair for syntax_error / syntax_error_type.
type SyntaxVerdict struct {
	HasError  bool
	ErrorType string // one of the six codes, "" when absent
}

// The label vocabularies, read from the packages that define the labels.
var (
	errorTypes = labels(semcheck.PaperErrorTypes)
	tokenKinds = labels(mutate.TokenKinds)
	equivTypes = append(labels(equiv.EquivTypes()), labels(equiv.NonEquivTypes())...)
)

// labels converts a list of string-typed labels to plain strings.
func labels[T ~string](ts []T) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = string(t)
	}
	return out
}

var syntaxNegatives = []string{
	"no syntax errors", "does not contain any syntax errors", "no error",
	"free of syntax errors", "no, the query does not", "looks fine",
	"no errors", "well-formed", "is valid",
}

var syntaxPositives = []string{
	"contains an error", "has an error", "there is a problem", "type=",
	"error type", "contain a", "syntax error at", "has an issue",
}

// ParseSyntax extracts the syntax_error verdict.
func ParseSyntax(resp string) (SyntaxVerdict, error) {
	lower := strings.ToLower(resp)
	for _, neg := range syntaxNegatives {
		if strings.Contains(lower, neg) {
			return SyntaxVerdict{HasError: false}, nil
		}
	}
	for _, pos := range syntaxPositives {
		if strings.Contains(lower, pos) {
			return SyntaxVerdict{HasError: true, ErrorType: findVocab(lower, errorTypes)}, nil
		}
	}
	// Fall back to leading yes/no.
	switch leadingYesNo(lower) {
	case "yes":
		return SyntaxVerdict{HasError: true, ErrorType: findVocab(lower, errorTypes)}, nil
	case "no":
		return SyntaxVerdict{HasError: false}, nil
	}
	return SyntaxVerdict{}, ErrUnparseable
}

// MissTokenVerdict is the label triple for the miss_token tasks.
type MissTokenVerdict struct {
	Missing  bool
	Kind     string // keyword/table/column/value/alias/comparison
	Token    string
	Position int // 0-based word index; -1 when absent
}

var missingNegatives = []string{
	"no missing", "nothing missing", "nothing is missing", "no syntax errors and no missing",
	"not missing", "does not appear to be missing", "appears complete", "no, the query has no",
}

var missingPositives = []string{
	"missing word", "word is missing", "token is missing", "kind=", "is missing a",
	"missing a", "a word is missing",
}

var posPattern = regexp.MustCompile(`(?i)(?:position|word)\D{0,12}?(\d+)`)
var quotedToken = regexp.MustCompile(`"([^"]+)"|token=([^;\s]+)|\(([^)]+)\)`)

// ParseMissToken extracts the miss_token verdict. Reported positions are
// 1-based in prose and converted to 0-based indexes.
func ParseMissToken(resp string) (MissTokenVerdict, error) {
	lower := strings.ToLower(resp)
	for _, neg := range missingNegatives {
		if strings.Contains(lower, neg) {
			return MissTokenVerdict{Missing: false, Position: -1}, nil
		}
	}
	positive := false
	for _, pos := range missingPositives {
		if strings.Contains(lower, pos) {
			positive = true
			break
		}
	}
	if !positive && leadingYesNo(lower) != "yes" {
		if leadingYesNo(lower) == "no" {
			return MissTokenVerdict{Missing: false, Position: -1}, nil
		}
		return MissTokenVerdict{Position: -1}, ErrUnparseable
	}
	v := MissTokenVerdict{Missing: true, Position: -1}
	v.Kind = findVocab(lower, tokenKinds)
	if mres := posPattern.FindStringSubmatch(resp); mres != nil {
		if n, err := strconv.Atoi(mres[1]); err == nil && n > 0 {
			v.Position = n - 1
		}
	}
	if qm := quotedToken.FindStringSubmatch(resp); qm != nil {
		for _, g := range qm[1:] {
			if g != "" {
				v.Token = g
				break
			}
		}
	}
	return v, nil
}

// FillVerdict is the label pair for the fill_token task.
type FillVerdict struct {
	Missing bool
	Token   string // the recovered token text; "" when none was extracted
}

var fillNegatives = []string{
	"query is complete", "appears to be complete", "is complete", "complete;",
	"nothing missing", "nothing is missing", "no missing",
}

var fillPositives = []string{
	"missing token is", "missing the token", "missing token:", "token=",
}

// ParseFill extracts the fill_token verdict: whether the model thinks a
// token is absent and, if so, which token it supplied. Tokens are accepted
// quoted, as token=..., or parenthesized (the forms the model styles use).
// Positive phrases win over completeness talk — "the missing token is
// \"FROM\"; with it, the query is complete" names a token and must grade
// as missing, so negatives are only consulted when no positive phrase
// matched.
func ParseFill(resp string) (FillVerdict, error) {
	lower := strings.ToLower(resp)
	for _, pos := range fillPositives {
		if !strings.Contains(lower, pos) {
			continue
		}
		v := FillVerdict{Missing: true}
		if qm := quotedToken.FindStringSubmatch(resp); qm != nil {
			for _, g := range qm[1:] {
				if g != "" {
					v.Token = g
					break
				}
			}
		}
		return v, nil
	}
	for _, neg := range fillNegatives {
		if strings.Contains(lower, neg) {
			return FillVerdict{}, nil
		}
	}
	// No stock phrase either way: a bare quoted token still reads as a
	// recovery attempt, else fall back to leading yes/no.
	if qm := quotedToken.FindStringSubmatch(resp); qm != nil {
		for _, g := range qm[1:] {
			if g != "" {
				return FillVerdict{Missing: true, Token: g}, nil
			}
		}
	}
	switch leadingYesNo(lower) {
	case "yes":
		return FillVerdict{Missing: true}, nil
	case "no":
		return FillVerdict{}, nil
	}
	return FillVerdict{}, ErrUnparseable
}

// EquivVerdict is the label pair for query_equiv / query_equiv_type.
type EquivVerdict struct {
	Equivalent bool
	Type       string
}

var equivNegatives = []string{
	"not equivalent", "are not equivalent", "do not appear to be equivalent",
	"differ in their results", "not the same results",
}

// ParseEquiv extracts the equivalence verdict.
func ParseEquiv(resp string) (EquivVerdict, error) {
	lower := strings.ToLower(resp)
	typ := findVocab(lower, equivTypes)
	for _, neg := range equivNegatives {
		if strings.Contains(lower, neg) {
			return EquivVerdict{Equivalent: false, Type: typ}, nil
		}
	}
	if strings.Contains(lower, "equivalent") || leadingYesNo(lower) == "yes" {
		return EquivVerdict{Equivalent: true, Type: typ}, nil
	}
	if leadingYesNo(lower) == "no" {
		return EquivVerdict{Equivalent: false, Type: typ}, nil
	}
	return EquivVerdict{}, ErrUnparseable
}

var perfPositives = []string{
	"take longer", "takes longer", "high cost", "likely to take longer",
	"heavy query", "will be slow", "longer than usual to run",
}

var perfNegatives = []string{
	"run quickly", "low cost", "unlikely to take longer", "light query",
	"should be fast", "not take longer",
}

// ParsePerf extracts the performance_pred verdict (true = costly).
func ParsePerf(resp string) (bool, error) {
	lower := strings.ToLower(resp)
	for _, neg := range perfNegatives {
		if strings.Contains(lower, neg) {
			return false, nil
		}
	}
	for _, pos := range perfPositives {
		if strings.Contains(lower, pos) {
			return true, nil
		}
	}
	switch leadingYesNo(lower) {
	case "yes":
		return true, nil
	case "no":
		return false, nil
	}
	return false, ErrUnparseable
}

// ParseExplanation returns the explanation text, trimmed of boilerplate.
func ParseExplanation(resp string) string {
	out := strings.TrimSpace(resp)
	for _, prefix := range []string{"Explanation:", "Answer:", "Summary:"} {
		out = strings.TrimSpace(strings.TrimPrefix(out, prefix))
	}
	return out
}

// leadingYesNo classifies the first word of the response.
func leadingYesNo(lower string) string {
	trimmed := strings.TrimLeft(lower, " \t\n*->")
	switch {
	case strings.HasPrefix(trimmed, "yes"):
		return "yes"
	case strings.HasPrefix(trimmed, "no"):
		return "no"
	default:
		return ""
	}
}

// findVocab returns the longest vocabulary item present in the text
// (longest first avoids "cte" matching inside "distinct-groupby" etc.).
func findVocab(lower string, vocab []string) string {
	best := ""
	for _, v := range vocab {
		if strings.Contains(lower, v) && len(v) > len(best) {
			best = v
		}
	}
	return best
}
