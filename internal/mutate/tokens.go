package mutate

import (
	"math/rand"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlast"
	"repro/internal/sqllex"
)

// TokenKind is one of the paper's six missing-token categories.
type TokenKind string

// Token categories for the miss_token tasks.
const (
	TokKeyword    TokenKind = "keyword"
	TokTable      TokenKind = "table"
	TokColumn     TokenKind = "column"
	TokValue      TokenKind = "value"
	TokAlias      TokenKind = "alias"
	TokComparison TokenKind = "comparison"
)

// TokenKinds lists the categories in the paper's figure order.
var TokenKinds = []TokenKind{TokKeyword, TokTable, TokColumn, TokValue, TokAlias, TokComparison}

// Removal records a token deletion with its ground truth.
type Removal struct {
	SQL       string    // the damaged query
	Removed   string    // the deleted token's text
	Kind      TokenKind // its category
	WordIndex int       // 0-based word position of the deleted token
}

// comparisonOps are the operator texts in the comparison category.
var comparisonOps = map[string]bool{
	"=": true, "<": true, ">": true, "<=": true, ">=": true, "<>": true, "!=": true,
}

// structuralKeywords are removable keywords; trailing modifiers like ASC are
// excluded because their absence leaves a valid query.
var structuralKeywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "JOIN": true, "ON": true, "AND": true,
	"OR": true, "IN": true, "AS": true, "BETWEEN": true, "LIKE": true,
	"EXISTS": true, "UNION": true, "INTERSECT": true, "EXCEPT": true,
	"VALUES": true, "INTO": true, "SET": true, "TABLE": true, "NOT": true,
}

// RemoveToken deletes one token of the requested kind from the query text,
// returning the damaged SQL and the ground-truth position: the 0-based index
// of the whitespace-separated word that contained the token (the paper's
// "word count position"). It returns false when the query holds no token of
// that kind. Token classification uses the AST: identifiers are split into
// table names, aliases, and columns; function names are never treated as
// columns.
func RemoveToken(sql string, stmt sqlast.Stmt, kind TokenKind, r *rand.Rand) (Removal, bool) {
	buf := sqllex.GetBuffer()
	defer buf.Release()
	toks, err := buf.LexWords(sql)
	if err != nil || len(toks) == 0 {
		return Removal{}, false
	}
	names := collectNames(stmt)

	var candidates []int
	for i, t := range toks {
		if classify(t, toks, i, names) == kind {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return Removal{}, false
	}
	idx := candidates[r.Intn(len(candidates))]
	tok := toks[idx]

	// Cut the token's bytes from the original text. Removing one side of a
	// qualified name also drops the now-dangling dot.
	start, end := tok.Pos.Offset, tok.Pos.Offset+len(tok.Text)
	if idx+1 < len(toks) && toks[idx+1].Text == "." && toks[idx+1].Pos.Offset == end {
		end = toks[idx+1].Pos.Offset + 1
	} else if idx > 0 && toks[idx-1].Text == "." && toks[idx-1].Pos.Offset+1 == start {
		start = toks[idx-1].Pos.Offset
	}
	damaged := strings.Join(strings.Fields(sql[:start]+" "+sql[end:]), " ")

	return Removal{
		SQL:       damaged,
		Removed:   tok.Text,
		Kind:      kind,
		WordIndex: wordIndexAt(sql, tok.Pos.Offset),
	}, true
}

// wordIndexAt returns the index of the whitespace-separated word containing
// the byte offset.
func wordIndexAt(sql string, offset int) int {
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

// names holds the identifier classification sets extracted from a statement.
type nameSets struct {
	tables  map[string]bool
	aliases map[string]bool
}

func collectNames(stmt sqlast.Stmt) nameSets {
	ns := nameSets{tables: map[string]bool{}, aliases: map[string]bool{}}
	if stmt == nil {
		return ns
	}
	sqlast.Walk(stmt, func(n sqlast.Node) bool {
		switch t := n.(type) {
		case *sqlast.TableName:
			ns.tables[strings.ToLower(catalog.BareName(t.Name))] = true
			if t.Alias != "" {
				ns.aliases[strings.ToLower(t.Alias)] = true
			}
		case *sqlast.SubqueryTable:
			if t.Alias != "" {
				ns.aliases[strings.ToLower(t.Alias)] = true
			}
		case *sqlast.SelectStmt:
			for _, cte := range t.With {
				ns.tables[strings.ToLower(cte.Name)] = true
			}
		case *sqlast.ColumnRef:
			if t.Table != "" {
				ns.aliases[strings.ToLower(catalog.BareName(t.Table))] = true
			}
		}
		return true
	})
	// Statement-level table references.
	switch t := stmt.(type) {
	case *sqlast.CreateTableStmt:
		ns.tables[strings.ToLower(catalog.BareName(t.Name))] = true
	case *sqlast.CreateViewStmt:
		ns.tables[strings.ToLower(catalog.BareName(t.Name))] = true
	case *sqlast.InsertStmt:
		ns.tables[strings.ToLower(catalog.BareName(t.Table))] = true
	case *sqlast.UpdateStmt:
		ns.tables[strings.ToLower(catalog.BareName(t.Table))] = true
	case *sqlast.DeleteStmt:
		ns.tables[strings.ToLower(catalog.BareName(t.Table))] = true
	case *sqlast.DropStmt:
		ns.tables[strings.ToLower(catalog.BareName(t.Name))] = true
	}
	// A name used both as alias and table counts as a table.
	for name := range ns.tables {
		delete(ns.aliases, name)
	}
	return ns
}

// classify determines the category of one token in context; returns "" for
// tokens that belong to no category (punctuation, functions, etc).
func classify(t sqllex.Token, toks []sqllex.Token, i int, ns nameSets) TokenKind {
	switch t.Kind {
	case sqllex.Keyword:
		if structuralKeywords[t.Upper()] {
			return TokKeyword
		}
		return ""
	case sqllex.Number, sqllex.String:
		return TokValue
	case sqllex.Op:
		if comparisonOps[t.Text] {
			return TokComparison
		}
		return ""
	case sqllex.Ident, sqllex.QuotedIdent:
		// Function name: identifier directly followed by '('.
		if i+1 < len(toks) && toks[i+1].Kind == sqllex.LParen {
			return ""
		}
		lower := strings.ToLower(t.Val())
		if ns.tables[lower] {
			return TokTable
		}
		if ns.aliases[lower] {
			return TokAlias
		}
		return TokColumn
	default:
		return ""
	}
}
