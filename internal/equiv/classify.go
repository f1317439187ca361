package equiv

import (
	"strings"

	"repro/internal/sqlast"
	"repro/internal/sqllex"
)

// Similarity measures the lexical overlap of two queries as Jaccard
// similarity over their token multisets. Subtle edits (a changed literal or
// operator) score near 1; structural rewrites (join <-> subquery) score
// much lower.
func Similarity(sql1, sql2 string) float64 {
	a := tokenCounts(sql1)
	b := tokenCounts(sql2)
	var inter, union int
	for tok, ca := range a {
		cb := b[tok]
		if ca < cb {
			inter += ca
			union += cb
		} else {
			inter += cb
			union += ca
		}
	}
	for tok, cb := range b {
		if _, seen := a[tok]; !seen {
			union += cb
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// DiffStats measures the absolute token-multiset difference between two
// queries: how many token occurrences each side has that the other lacks.
// Subtle single-token edits yield tiny diffs regardless of query length,
// which is how the simulated models distinguish "modified condition" pairs
// from structural rewrites.
func DiffStats(sql1, sql2 string) (added, removed int) {
	return diffCounts(tokenCounts(sql1), tokenCounts(sql2))
}

// DiffTokens is DiffStats over the sqllex.LexWords tokens of two queries
// that both lex. It counts both sides into one map of net counts (second
// side minus first): a positive count is that many added occurrences, a
// negative one that many removed.
func DiffTokens(toks1, toks2 []sqllex.Token) (added, removed int) {
	net := make(map[string]int, len(toks1))
	for _, t := range toks1 {
		net[t.Upper()]--
	}
	for _, t := range toks2 {
		net[t.Upper()]++
	}
	for _, n := range net {
		if n > 0 {
			added += n
		} else {
			removed -= n
		}
	}
	return added, removed
}

func diffCounts(a, b map[string]int) (added, removed int) {
	for tok, cb := range b {
		if ca := a[tok]; cb > ca {
			added += cb - ca
		}
	}
	for tok, ca := range a {
		if cb := b[tok]; ca > cb {
			removed += ca - cb
		}
	}
	return added, removed
}

// tokenCounts counts the query's tokens by uppercase text, or its
// lowercased whitespace words when it does not lex.
func tokenCounts(sql string) map[string]int {
	toks, err := sqllex.LexWords(sql)
	if err != nil {
		out := map[string]int{}
		for _, w := range sqllex.Words(sql) {
			out[strings.ToLower(w)]++
		}
		return out
	}
	return countTokens(toks)
}

func countTokens(toks []sqllex.Token) map[string]int {
	out := make(map[string]int, len(toks))
	for _, t := range toks {
		out[t.Upper()]++
	}
	return out
}

// ClassifyPair guesses which transformation relates two SELECTs, using the
// same structural signals a careful reader would: presence of CTEs, IN vs
// EXISTS vs JOIN forms, operator and literal diffs, DISTINCT/GROUP BY
// changes. It is heuristic; the simulated models add calibrated noise on
// top, and its own mistakes are part of the channel.
func ClassifyPair(a, b *sqlast.SelectStmt) Type {
	fa, fb := pairFeatures(a), pairFeatures(b)
	switch {
	case fa.ctes != fb.ctes:
		return CTEWrap
	case fa.exists != fb.exists && fa.inSubs != fb.inSubs:
		return SwapSubqueries
	case fa.joins > fb.joins && fb.inSubs > fa.inSubs:
		return JoinNested
	case fb.joins > fa.joins && fa.inSubs > fb.inSubs:
		return NestedJoin
	case fa.betweens != fb.betweens:
		return BetweenSplit
	case fa.inLists != fb.inLists && fa.ors != fb.ors:
		return InListOr
	case fa.nots != fb.nots:
		return NotPushdown
	case fa.distinct != fb.distinct && fa.groupBys != fb.groupBys:
		return DistinctGroupBy
	case fa.joinTypes != fb.joinTypes:
		return ChangeJoinCondition
	case fa.aggNames != fb.aggNames:
		return AggFunction
	case fa.ands != fb.ands && fa.ors != fb.ors:
		return LogicalConditions
	case fa.distinct != fb.distinct:
		return DistinctToggle
	case fa.predCount != fb.predCount:
		return DropPredicate
	case fa.literals != fb.literals:
		return ValueChange
	case fa.cmpOps != fb.cmpOps:
		return ComparisonOp
	case fa.projection != fb.projection:
		return ProjectionChange
	case fa.firstTable != fb.firstTable:
		return CommuteJoin
	default:
		return ReorderConditions
	}
}

// ConfusePair returns the transformation most often mistaken for the given
// one (used when the calibrated type-accuracy roll fails).
func ConfusePair(t Type) Type {
	if c, ok := confusions[t]; ok {
		return c
	}
	return ReorderConditions
}

// confusions maps each transformation to the one most often mistaken for it.
var confusions = map[Type]Type{
	ReorderConditions:   NotPushdown,
	CTEWrap:             NestedJoin,
	JoinNested:          NestedJoin,
	NestedJoin:          JoinNested,
	SwapSubqueries:      JoinNested,
	BetweenSplit:        ReorderConditions,
	InListOr:            LogicalConditions,
	NotPushdown:         ComparisonOp,
	DistinctGroupBy:     DistinctToggle,
	CommuteJoin:         ReorderConditions,
	AggFunction:         ProjectionChange,
	ChangeJoinCondition: CommuteJoin,
	LogicalConditions:   ReorderConditions,
	ValueChange:         ComparisonOp,
	ComparisonOp:        ValueChange,
	DropPredicate:       ReorderConditions,
	ProjectionChange:    AggFunction,
	DistinctToggle:      DistinctGroupBy,
}

type pairFeature struct {
	ctes       int
	exists     int
	inSubs     int
	inLists    int
	joins      int
	joinTypes  string
	betweens   int
	nots       int
	ands       int
	ors        int
	distinct   bool
	groupBys   int
	aggNames   string
	literals   string
	cmpOps     string
	predCount  int
	projection string
	firstTable string
}

func pairFeatures(sel *sqlast.SelectStmt) pairFeature {
	f := pairFeature{distinct: sel.Distinct, groupBys: len(sel.GroupBy)}
	f.ctes = len(sel.With)
	var aggs, lits, ops []string
	sqlast.Walk(sel, func(n sqlast.Node) bool {
		switch t := n.(type) {
		case *sqlast.Exists:
			f.exists++
		case *sqlast.In:
			if t.Sub != nil {
				f.inSubs++
			} else {
				f.inLists++
			}
		case *sqlast.Join:
			f.joins++
			f.joinTypes += t.Type + ","
		case *sqlast.Between:
			f.betweens++
		case *sqlast.Unary:
			if t.Op == "NOT" {
				f.nots++
			}
		case *sqlast.Binary:
			switch t.Op {
			case "AND":
				f.ands++
			case "OR":
				f.ors++
			case "=", "<>", "<", ">", "<=", ">=":
				ops = append(ops, t.Op)
				f.predCount++
			case "LIKE":
				f.predCount++
			}
		case *sqlast.FuncCall:
			if sqlast.IsAggregate(t.Name) {
				aggs = append(aggs, strings.ToUpper(t.Name))
			}
		case *sqlast.Literal:
			lits = append(lits, t.Text)
		}
		return true
	})
	f.aggNames = strings.Join(sortCopy(aggs), ",")
	f.literals = strings.Join(sortCopy(lits), ",")
	f.cmpOps = strings.Join(sortCopy(ops), ",")
	for _, item := range sel.Items {
		f.projection += sqlast.PrintExpr(item.Expr) + ","
	}
	if len(sel.From) > 0 {
		if tn, ok := firstTableOf(sel.From[0]); ok {
			f.firstTable = strings.ToLower(tn)
		}
	}
	return f
}

func firstTableOf(ref sqlast.TableRef) (string, bool) {
	switch t := ref.(type) {
	case *sqlast.TableName:
		return t.Name, true
	case *sqlast.Join:
		return firstTableOf(t.Left)
	case *sqlast.SubqueryTable:
		return "", false
	}
	return "", false
}

func sortCopy(ss []string) []string {
	out := append([]string{}, ss...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
