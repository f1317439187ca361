// Package sqlparse implements a recursive-descent parser for the benchmark's
// SQL dialect, producing sqlast trees. Parse errors satisfy errors.Is with
// ErrSyntax and carry source positions, which the syntax_error oracle relies
// on.
package sqlparse

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sqlast"
	"repro/internal/sqllex"
)

// ErrSyntax is the sentinel wrapped by every parse error.
var ErrSyntax = errors.New("syntax error")

// ParseError describes a parse failure at a position. Its message is
// formatted only by Error, so a recognizer that asks just whether and where
// a statement fails formats none.
type ParseError struct {
	Pos    sqllex.Pos
	Near   string // the offending token text, "" at end of input
	format string // the message; a verb in it takes arg
	arg    string
}

func (e *ParseError) Error() string {
	msg := e.format
	if strings.Contains(msg, "%") {
		msg = fmt.Sprintf(msg, e.arg)
	}
	if e.Near == "" {
		return fmt.Sprintf("syntax error at %s: %s (at end of input)", e.Pos, msg)
	}
	return fmt.Sprintf("syntax error at %s: %s (near %q)", e.Pos, msg, e.Near)
}

// Unwrap makes errors.Is(err, ErrSyntax) true.
func (e *ParseError) Unwrap() error { return ErrSyntax }

// parser is a recursive-descent parser over one token slice. A rule's
// result is a function of toks and the start pos alone, and every read of
// toks goes through cur, peekAt or atEOF (errorf reads the last token only
// once cur is at EOF), which record the highest index read in horizon. That
// is what lets a Prefix reuse a rule result on another token slice that
// agrees with this one up to and including the horizon. A Prefix only asks
// whether its tokens parse, so under one (prefix != nil) the rules build no
// tree: they return nil nodes and allocate nothing but a ParseError.
type parser struct {
	toks    []sqllex.Token
	pos     int
	horizon int     // highest token index read so far; may be >= len(toks)
	prefix  *Prefix // rule memo of Prefix.Recognize; nil for a plain parse
	depth   int     // tree level of the node being parsed (see descend)
	reach   int     // deepest level reached in the innermost operator chain
}

// maxDepth bounds how deep a statement's tree may nest. The grammar recurses
// once per level, and so do the walkers and printers of the tree it builds,
// so without a bound one statement could exhaust the stack. The parser counts
// a level for every node below its parent, every parenthesis, and every
// operator of a left-deep chain (a + b + c), which pushes what the chain has
// parsed so far one level down. That count is never below the tree's height;
// for the generated workloads of seeds 1-3 it is at most 29.
const maxDepth = 128

var errDepthMsg = fmt.Sprintf("nesting exceeds %d levels", maxDepth)

// ParseStatement parses a single SQL statement (an optional trailing
// semicolon is consumed). Trailing tokens are an error.
func ParseStatement(sql string) (sqlast.Stmt, error) {
	buf := sqllex.GetBuffer()
	defer buf.Release()
	toks, err := lexWords(buf, sql)
	if err != nil {
		return nil, err
	}
	return ParseStatementTokens(toks)
}

// ParseStatementTokens is ParseStatement over already-lexed word tokens (the
// sqllex.LexWords view, comments removed). The parser reads token positions
// only to locate a ParseError, so spliced token slices parse exactly as
// their re-lexed text would; toks is not modified. A caller that only needs
// to know whether many related slices parse, and where they fail, should use
// Prefix.Recognize, which returns the same error without re-parsing a prefix
// the slices share.
func ParseStatementTokens(toks []sqllex.Token) (sqlast.Stmt, error) {
	p := &parser{toks: toks}
	return p.statement()
}

// statement parses one whole statement: an optional trailing semicolon is
// consumed and anything after it is an error.
func (p *parser) statement() (sqlast.Stmt, error) {
	stmt, err := below(p, (*parser).parseStatement)
	if err != nil {
		return nil, err
	}
	p.accept(sqllex.Semi, "")
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input")
	}
	return stmt, nil
}

// ParseSelect parses a statement and requires it to be a SELECT.
func ParseSelect(sql string) (*sqlast.SelectStmt, error) {
	stmt, err := ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlast.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("%w: expected a SELECT statement, got %T", ErrSyntax, stmt)
	}
	return sel, nil
}

// ParseAll parses a script of semicolon-separated statements.
func ParseAll(sql string) ([]sqlast.Stmt, error) {
	buf := sqllex.GetBuffer()
	defer buf.Release()
	toks, err := lexWords(buf, sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []sqlast.Stmt
	for !p.atEOF() {
		stmt, err := below(p, (*parser).parseStatement)
		if err != nil {
			return stmts, err
		}
		stmts = append(stmts, stmt)
		if !p.accept(sqllex.Semi, "") && !p.atEOF() {
			return stmts, p.errorf("expected ';' between statements")
		}
	}
	return stmts, nil
}

// lexWords lexes sql into buf for one of the string entry points. The
// tokens die with the parse: the parser copies what it keeps of a token
// (its text, its position in a ParseError) out of the slice, so the AST
// holds no reference to it.
func lexWords(buf *sqllex.Buffer, sql string) ([]sqllex.Token, error) {
	toks, err := buf.LexWords(sql)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSyntax, err)
	}
	return toks, nil
}

// build reports whether the rules construct the tree: true for a plain
// parse, false under Prefix.Recognize.
func (p *parser) build() bool { return p.prefix == nil }

// onHeap returns a pointer to a copy of v. A rule that fills a node in a
// local variable returns it through onHeap once it knows it is building:
// taking the local's own address would allocate it where it is declared,
// recognizing or not.
func onHeap[T any](v T) *T { return &v }

// see raises the horizon to token index i.
func (p *parser) see(i int) {
	if i > p.horizon {
		p.horizon = i
	}
}

func (p *parser) atEOF() bool {
	p.see(p.pos)
	return p.pos >= len(p.toks)
}

func (p *parser) cur() sqllex.Token {
	if p.atEOF() {
		return sqllex.Token{Kind: sqllex.EOF}
	}
	return p.toks[p.pos]
}

func (p *parser) peekAt(n int) sqllex.Token {
	p.see(p.pos + n)
	if p.pos+n >= len(p.toks) {
		return sqllex.Token{Kind: sqllex.EOF}
	}
	return p.toks[p.pos+n]
}

func (p *parser) advance() sqllex.Token {
	t := p.cur()
	p.pos++
	return t
}

// accept consumes the current token if it matches kind (and text when text is
// non-empty, compared case-insensitively).
func (p *parser) accept(kind sqllex.Kind, text string) bool {
	t := p.cur()
	if t.Kind != kind {
		return false
	}
	if text != "" && !sqllex.MatchUpper(t.Text, text) {
		return false
	}
	p.pos++
	return true
}

// acceptKw consumes the current token when it is the given keyword.
func (p *parser) acceptKw(kw string) bool { return p.accept(sqllex.Keyword, kw) }

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errorf("expected %s", kw)
	}
	return nil
}

func (p *parser) expect(kind sqllex.Kind, what string) (sqllex.Token, error) {
	t := p.cur()
	if t.Kind != kind {
		return t, p.errorf("expected %s", what)
	}
	p.pos++
	return t, nil
}

// errorf returns a ParseError at the current token. format has at most one
// verb, which takes arg[0].
func (p *parser) errorf(format string, arg ...string) error {
	t := p.cur()
	pos := t.Pos
	if t.Kind == sqllex.EOF && len(p.toks) > 0 {
		last := p.toks[len(p.toks)-1]
		pos = last.Pos
		pos.Offset += len(last.Text)
		pos.Col += int32(len(last.Text))
	}
	e := &ParseError{Pos: pos, Near: t.Text, format: format}
	if len(arg) > 0 {
		e.arg = arg[0]
	}
	return e
}

// descend moves one tree level down, failing past maxDepth. The caller moves
// back up (p.depth--) once it has parsed the level.
func (p *parser) descend() error {
	p.depth++
	p.reach = max(p.reach, p.depth)
	if p.depth > maxDepth {
		return p.errorf(errDepthMsg)
	}
	return nil
}

// below runs rule one tree level down.
func below[T any](p *parser, rule func(*parser) (T, error)) (T, error) {
	if err := p.descend(); err != nil {
		var none T
		return none, err
	}
	x, err := rule(p)
	p.depth--
	return x, err
}

// beginChain starts a left-deep operator chain, whose reach is tracked apart
// from the enclosing one's; endChain(outer) folds it back in once the chain
// has parsed. A failed parse needs no reach, so its error paths skip it.
func (p *parser) beginChain() (outer int) {
	outer, p.reach = p.reach, p.depth
	return outer
}

func (p *parser) endChain(outer int) { p.reach = max(p.reach, outer) }

// wrap puts one more operator node above everything the current chain has
// parsed, which moves all of it one level down.
func (p *parser) wrap() error {
	p.reach++
	if p.reach > maxDepth {
		return p.errorf(errDepthMsg)
	}
	return nil
}

// operand wraps the chain and parses an operator's right operand, which sits
// one level below the operator.
func operand[T any](p *parser, rule func(*parser) (T, error)) (T, error) {
	if err := p.wrap(); err != nil {
		var none T
		return none, err
	}
	return below(p, rule)
}

// identifier consumes an Ident or QuotedIdent and returns its value.
func (p *parser) identifier(what string) (string, error) {
	t := p.cur()
	if t.Kind == sqllex.Ident || t.Kind == sqllex.QuotedIdent {
		p.pos++
		return t.Val(), nil
	}
	return "", p.errorf("expected %s", what)
}

// ---------------------------------------------------------------------------
// Statements

func (p *parser) parseStatement() (sqlast.Stmt, error) {
	t := p.cur()
	// BEGIN/COMMIT/ROLLBACK are not lexer keywords (the workload dialect never
	// uses them as identifiers, but keeping them out of the keyword table means
	// zero tokenization risk for existing queries); they arrive as Idents.
	if t.Kind == sqllex.Ident {
		for _, kind := range [...]string{"BEGIN", "COMMIT", "ROLLBACK"} {
			if sqllex.MatchUpper(t.Text, kind) {
				return p.parseTxn(kind)
			}
		}
	}
	if t.Kind != sqllex.Keyword {
		return nil, p.errorf("expected a statement keyword")
	}
	switch t.Upper() {
	case "SELECT", "WITH":
		return p.parseSelect()
	case "CREATE":
		return p.parseCreate()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "DECLARE":
		return p.parseDeclare()
	case "SET":
		return p.parseSetVar()
	case "EXEC":
		return p.parseExec()
	case "DROP":
		return p.parseDrop()
	case "WAITFOR":
		return p.parseWaitfor()
	default:
		return nil, p.errorf("unsupported statement %s", t.Upper())
	}
}

// parseSelect parses a query one level below the current one.
func (p *parser) parseSelect() (*sqlast.SelectStmt, error) {
	return below(p, (*parser).parseQuery)
}

func (p *parser) parseQuery() (*sqlast.SelectStmt, error) {
	var with []sqlast.CTE
	if p.acceptKw("WITH") {
		for {
			name, err := p.identifier("CTE name")
			if err != nil {
				return nil, err
			}
			cte := sqlast.CTE{Name: name}
			if p.accept(sqllex.LParen, "") {
				for {
					col, err := p.identifier("CTE column")
					if err != nil {
						return nil, err
					}
					if p.build() {
						cte.Columns = append(cte.Columns, col)
					}
					if !p.accept(sqllex.Comma, "") {
						break
					}
				}
				if _, err := p.expect(sqllex.RParen, "')'"); err != nil {
					return nil, err
				}
			}
			if err := p.expectKw("AS"); err != nil {
				return nil, err
			}
			if _, err := p.expect(sqllex.LParen, "'('"); err != nil {
				return nil, err
			}
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			cte.Select = sel
			if _, err := p.expect(sqllex.RParen, "')'"); err != nil {
				return nil, err
			}
			if p.build() {
				with = append(with, cte)
			}
			if !p.accept(sqllex.Comma, "") {
				break
			}
		}
	}
	sel, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}

	// Set operations chain onto the right, each one level below the last.
	cur, top := sel, p.depth
	for {
		var op string
		switch {
		case p.acceptKw("UNION"):
			op = "UNION"
		case p.acceptKw("INTERSECT"):
			op = "INTERSECT"
		case p.acceptKw("EXCEPT"):
			op = "EXCEPT"
		}
		if op == "" {
			break
		}
		all := p.acceptKw("ALL")
		if err := p.descend(); err != nil {
			return nil, err
		}
		right, err := p.parseSelectCore()
		if err != nil {
			return nil, err
		}
		if p.build() {
			cur.SetOp = &sqlast.SetOp{Op: op, All: all, Right: right}
			cur = right
		}
	}

	// ORDER BY / LIMIT apply to the whole chain and attach to the head.
	p.depth = top
	var order []sqlast.OrderItem
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			desc := p.acceptKw("DESC")
			if !desc {
				p.acceptKw("ASC")
			}
			if p.build() {
				order = append(order, sqlast.OrderItem{Expr: e, Desc: desc})
			}
			if !p.accept(sqllex.Comma, "") {
				break
			}
		}
	}
	limit, err := p.optionalInt("LIMIT")
	if err != nil {
		return nil, err
	}
	offset, err := p.optionalInt("OFFSET")
	if err != nil || !p.build() {
		return nil, err
	}
	sel.With, sel.OrderBy, sel.Limit, sel.Offset = with, order, limit, offset
	return sel, nil
}

// parseSelectCore parses SELECT ... [HAVING ...] without WITH, set ops,
// ORDER BY, or LIMIT.
func (p *parser) parseSelectCore() (*sqlast.SelectStmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	var sel sqlast.SelectStmt
	for {
		if p.acceptKw("DISTINCT") {
			sel.Distinct = true
			continue
		}
		if p.acceptKw("TOP") {
			n, err := p.intLiteral()
			if err != nil {
				return nil, err
			}
			if p.build() {
				sel.Top = onHeap(n)
			}
			continue
		}
		break
	}
	items, err := p.selectList()
	if err != nil {
		return nil, err
	}
	sel.Items = items
	if p.acceptKw("FROM") {
		from, err := below(p, (*parser).fromList)
		if err != nil {
			return nil, err
		}
		sel.From = from
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if p.build() {
				sel.GroupBy = append(sel.GroupBy, e)
			}
			if !p.accept(sqllex.Comma, "") {
				break
			}
		}
	}
	if p.acceptKw("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if !p.build() {
		return nil, nil
	}
	return onHeap(sel), nil
}

// parseSelectList parses the comma-separated items of a select list.
func (p *parser) parseSelectList() ([]sqlast.SelectItem, error) {
	var items []sqlast.SelectItem
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		if p.build() {
			items = append(items, item)
		}
		if !p.accept(sqllex.Comma, "") {
			return items, nil
		}
	}
}

func (p *parser) parseSelectItem() (sqlast.SelectItem, error) {
	t := p.cur()
	// Bare star.
	if t.Kind == sqllex.Op && t.Text == "*" {
		p.pos++
		return p.star(""), nil
	}
	// Qualified star: ident.*
	if (t.Kind == sqllex.Ident || t.Kind == sqllex.QuotedIdent) &&
		p.peekAt(1).Kind == sqllex.Op && p.peekAt(1).Text == "." &&
		p.peekAt(2).Kind == sqllex.Op && p.peekAt(2).Text == "*" {
		p.pos += 3
		return p.star(t.Val()), nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return sqlast.SelectItem{}, err
	}
	item := sqlast.SelectItem{Expr: e}
	if p.acceptKw("AS") {
		alias, err := p.identifier("alias")
		if err != nil {
			return sqlast.SelectItem{}, err
		}
		item.Alias = alias
	} else if c := p.cur(); c.Kind == sqllex.Ident || c.Kind == sqllex.QuotedIdent {
		// Implicit alias: SELECT expr alias
		p.pos++
		item.Alias = c.Val()
	}
	return item, nil
}

// star is the select item table.* (every column when table is "").
func (p *parser) star(table string) sqlast.SelectItem {
	if !p.build() {
		return sqlast.SelectItem{}
	}
	return sqlast.SelectItem{Expr: &sqlast.Star{Table: table}}
}

// parseFromList parses the comma-separated table references after FROM.
func (p *parser) parseFromList() ([]sqlast.TableRef, error) {
	var from []sqlast.TableRef
	for {
		tr, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		if p.build() {
			from = append(from, tr)
		}
		if !p.accept(sqllex.Comma, "") {
			return from, nil
		}
	}
}

func (p *parser) parseTableRef() (sqlast.TableRef, error) {
	outer := p.beginChain()
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		joinType := ""
		switch {
		case p.acceptKw("JOIN"):
			joinType = "INNER"
		case p.acceptKw("INNER"):
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			joinType = "INNER"
		case p.cur().Is("LEFT"), p.cur().Is("RIGHT"), p.cur().Is("FULL"):
			joinType = p.advance().Upper()
			p.acceptKw("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
		case p.acceptKw("CROSS"):
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			joinType = "CROSS"
		}
		if joinType == "" {
			p.endChain(outer)
			return left, nil
		}
		// The right input and ON sit one level below the join.
		right, err := operand(p, (*parser).parseTablePrimary)
		if err != nil {
			return nil, err
		}
		var on sqlast.Expr
		if joinType != "CROSS" {
			if err := p.expectKw("ON"); err != nil {
				return nil, err
			}
			if on, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
		if p.build() {
			left = &sqlast.Join{Left: left, Right: right, Type: joinType, On: on}
		}
	}
}

func (p *parser) parseTablePrimary() (sqlast.TableRef, error) {
	if p.accept(sqllex.LParen, "") {
		// A parenthesized SELECT is a derived table; anything else is a
		// parenthesized join tree.
		if p.cur().Is("SELECT") || p.cur().Is("WITH") {
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(sqllex.RParen, "')'"); err != nil {
				return nil, err
			}
			alias := p.optionalAlias()
			if !p.build() {
				return nil, nil
			}
			return &sqlast.SubqueryTable{Select: sel, Alias: alias}, nil
		}
		ref, err := below(p, (*parser).tableRef)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(sqllex.RParen, "')'"); err != nil {
			return nil, err
		}
		return ref, nil
	}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	alias := p.optionalAlias()
	if !p.build() {
		return nil, nil
	}
	return &sqlast.TableName{Name: name, Alias: alias}, nil
}

// optionalAlias consumes [AS] ident if present. An AS not followed by an
// identifier is left in place for the caller to fail on.
func (p *parser) optionalAlias() string {
	n := 0
	if p.cur().Is("AS") {
		n = 1
	}
	if c := p.peekAt(n); c.Kind == sqllex.Ident || c.Kind == sqllex.QuotedIdent {
		p.pos += n + 1
		return c.Val()
	}
	return ""
}

// qualifiedName consumes ident(.ident)* and joins with dots (when building).
func (p *parser) qualifiedName() (string, error) {
	part, err := p.identifier("table name")
	if err != nil {
		return "", err
	}
	name := part
	for p.cur().Kind == sqllex.Op && p.cur().Text == "." &&
		(p.peekAt(1).Kind == sqllex.Ident || p.peekAt(1).Kind == sqllex.QuotedIdent) {
		p.pos++
		part, err = p.identifier("name part")
		if err != nil {
			return "", err
		}
		if p.build() {
			name += "." + part
		}
	}
	return name, nil
}

func (p *parser) parseCreate() (sqlast.Stmt, error) {
	if err := p.expectKw("CREATE"); err != nil {
		return nil, err
	}
	switch {
	case p.acceptKw("TABLE"):
		name, err := p.qualifiedName()
		if err != nil {
			return nil, err
		}
		if p.acceptKw("AS") {
			sel, err := p.parseSelect()
			if err != nil || !p.build() {
				return nil, err
			}
			return &sqlast.CreateTableStmt{Name: name, AsSelect: sel}, nil
		}
		if _, err := p.expect(sqllex.LParen, "'('"); err != nil {
			return nil, err
		}
		var cols []sqlast.ColumnDef
		for {
			col, err := p.identifier("column name")
			if err != nil {
				return nil, err
			}
			typ, err := p.typeName()
			if err != nil {
				return nil, err
			}
			if p.build() {
				cols = append(cols, sqlast.ColumnDef{Name: col, Type: typ})
			}
			if !p.accept(sqllex.Comma, "") {
				break
			}
		}
		if _, err := p.expect(sqllex.RParen, "')'"); err != nil || !p.build() {
			return nil, err
		}
		return &sqlast.CreateTableStmt{Name: name, Cols: cols}, nil
	case p.acceptKw("VIEW"):
		name, err := p.qualifiedName()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AS"); err != nil {
			return nil, err
		}
		sel, err := p.parseSelect()
		if err != nil || !p.build() {
			return nil, err
		}
		return &sqlast.CreateViewStmt{Name: name, Select: sel}, nil
	default:
		return nil, p.errorf("expected TABLE or VIEW after CREATE")
	}
}

// typeName consumes a type such as INT, FLOAT, VARCHAR(32).
func (p *parser) typeName() (string, error) {
	base, err := p.identifier("type name")
	if err != nil {
		return "", err
	}
	if p.accept(sqllex.LParen, "") {
		n, err := p.expect(sqllex.Number, "type size")
		if err != nil {
			return "", err
		}
		if _, err := p.expect(sqllex.RParen, "')'"); err != nil {
			return "", err
		}
		if p.build() {
			base += "(" + n.Text + ")"
		}
	}
	return base, nil
}

func (p *parser) parseInsert() (sqlast.Stmt, error) {
	if err := p.expectKw("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	table, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	ins := sqlast.InsertStmt{Table: table}
	if p.accept(sqllex.LParen, "") {
		for {
			col, err := p.identifier("column name")
			if err != nil {
				return nil, err
			}
			if p.build() {
				ins.Columns = append(ins.Columns, col)
			}
			if !p.accept(sqllex.Comma, "") {
				break
			}
		}
		if _, err := p.expect(sqllex.RParen, "')'"); err != nil {
			return nil, err
		}
	}
	if p.cur().Is("SELECT") || p.cur().Is("WITH") {
		sel, err := p.parseSelect()
		if err != nil || !p.build() {
			return nil, err
		}
		ins.Select = sel
		return onHeap(ins), nil
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(sqllex.LParen, "'('"); err != nil {
			return nil, err
		}
		var row []sqlast.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if p.build() {
				row = append(row, e)
			}
			if !p.accept(sqllex.Comma, "") {
				break
			}
		}
		if _, err := p.expect(sqllex.RParen, "')'"); err != nil {
			return nil, err
		}
		if p.build() {
			ins.Rows = append(ins.Rows, row)
		}
		if !p.accept(sqllex.Comma, "") {
			break
		}
	}
	if !p.build() {
		return nil, nil
	}
	return onHeap(ins), nil
}

func (p *parser) parseUpdate() (sqlast.Stmt, error) {
	if err := p.expectKw("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	up := sqlast.UpdateStmt{Table: table}
	if p.acceptKw("AS") {
		alias, err := p.identifier("alias")
		if err != nil {
			return nil, err
		}
		up.Alias = alias
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.qualifiedName()
		if err != nil {
			return nil, err
		}
		if !p.accept(sqllex.Op, "=") {
			return nil, p.errorf("expected '=' in SET")
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.build() {
			up.Set = append(up.Set, sqlast.Assignment{Column: col, Value: val})
		}
		if !p.accept(sqllex.Comma, "") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Where = e
	}
	if !p.build() {
		return nil, nil
	}
	return onHeap(up), nil
}

func (p *parser) parseDelete() (sqlast.Stmt, error) {
	if err := p.expectKw("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	table, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	var where sqlast.Expr
	if p.acceptKw("WHERE") {
		if where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if !p.build() {
		return nil, nil
	}
	return &sqlast.DeleteStmt{Table: table, Where: where}, nil
}

func (p *parser) parseDeclare() (sqlast.Stmt, error) {
	if err := p.expectKw("DECLARE"); err != nil {
		return nil, err
	}
	v, err := p.expect(sqllex.Variable, "variable name")
	if err != nil {
		return nil, err
	}
	typ, err := p.typeName()
	if err != nil {
		return nil, err
	}
	var init sqlast.Expr
	if p.accept(sqllex.Op, "=") {
		if init, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if !p.build() {
		return nil, nil
	}
	return &sqlast.DeclareStmt{Name: v.Text, Type: typ, Init: init}, nil
}

func (p *parser) parseSetVar() (sqlast.Stmt, error) {
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	v, err := p.expect(sqllex.Variable, "variable name")
	if err != nil {
		return nil, err
	}
	if !p.accept(sqllex.Op, "=") {
		return nil, p.errorf("expected '=' in SET")
	}
	e, err := p.parseExpr()
	if err != nil || !p.build() {
		return nil, err
	}
	return &sqlast.SetVarStmt{Name: v.Text, Value: e}, nil
}

func (p *parser) parseExec() (sqlast.Stmt, error) {
	if err := p.expectKw("EXEC"); err != nil {
		return nil, err
	}
	proc, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	var args []sqlast.Expr
	for !p.atEOF() && p.cur().Kind != sqllex.Semi {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.build() {
			args = append(args, e)
		}
		if !p.accept(sqllex.Comma, "") {
			break
		}
	}
	if !p.build() {
		return nil, nil
	}
	return &sqlast.ExecStmt{Proc: proc, Args: args}, nil
}

func (p *parser) parseDrop() (sqlast.Stmt, error) {
	if err := p.expectKw("DROP"); err != nil {
		return nil, err
	}
	var kind string
	switch {
	case p.acceptKw("TABLE"):
		kind = "TABLE"
	case p.acceptKw("VIEW"):
		kind = "VIEW"
	default:
		return nil, p.errorf("expected TABLE or VIEW after DROP")
	}
	name, err := p.qualifiedName()
	if err != nil || !p.build() {
		return nil, err
	}
	return &sqlast.DropStmt{Kind: kind, Name: name}, nil
}

func (p *parser) parseWaitfor() (sqlast.Stmt, error) {
	if err := p.expectKw("WAITFOR"); err != nil {
		return nil, err
	}
	if err := p.expectKw("DELAY"); err != nil {
		return nil, err
	}
	t, err := p.expect(sqllex.String, "delay string")
	if err != nil || !p.build() {
		return nil, err
	}
	return &sqlast.WaitforStmt{Delay: t.Val()}, nil
}

// parseTxn parses BEGIN [TRANSACTION|WORK], COMMIT [TRANSACTION|WORK], or
// ROLLBACK [TRANSACTION|WORK]. The caller has matched the leading word.
func (p *parser) parseTxn(kind string) (sqlast.Stmt, error) {
	p.pos++
	if !p.accept(sqllex.Ident, "TRANSACTION") && !p.accept(sqllex.Ident, "WORK") {
		p.acceptKw("TRANSACTION") // in case a future lexer promotes it
	}
	if !p.build() {
		return nil, nil
	}
	return &sqlast.TxnStmt{Kind: kind}, nil
}

func (p *parser) intLiteral() (int, error) {
	t, err := p.expect(sqllex.Number, "integer")
	if err != nil {
		return 0, err
	}
	n, ok := atoi(t.Text)
	if !ok {
		return 0, p.errorf("expected integer, got %q", t.Text)
	}
	return n, nil
}

// atoi parses a number token as strconv.Atoi does, but rejects a
// non-digit before strconv sees it, so a failure such as TOP 1.5 builds no
// *NumError. A number token carries no sign.
func atoi(s string) (int, bool) {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(s)
	return n, err == nil
}

// optionalInt consumes [kw integer] and returns the integer for the tree:
// nil when kw is absent or when not building.
func (p *parser) optionalInt(kw string) (*int, error) {
	if !p.acceptKw(kw) {
		return nil, nil
	}
	n, err := p.intLiteral()
	if err != nil || !p.build() {
		return nil, err
	}
	return onHeap(n), nil
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

// parseExpr parses an expression one level below the current one.
func (p *parser) parseExpr() (sqlast.Expr, error) { return below(p, (*parser).parseOr) }

func (p *parser) parseOr() (sqlast.Expr, error) {
	outer := p.beginChain()
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		right, err := operand(p, (*parser).parseAnd)
		if err != nil {
			return nil, err
		}
		left = p.binary("OR", left, right)
	}
	p.endChain(outer)
	return left, nil
}

func (p *parser) parseAnd() (sqlast.Expr, error) {
	outer := p.beginChain()
	left, err := p.conjunct()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		right, err := operand(p, (*parser).conjunct)
		if err != nil {
			return nil, err
		}
		left = p.binary("AND", left, right)
	}
	p.endChain(outer)
	return left, nil
}

func (p *parser) parseNot() (sqlast.Expr, error) {
	if p.acceptKw("NOT") {
		x, err := below(p, (*parser).parseNot)
		if err != nil {
			return nil, err
		}
		return p.unary("NOT", x), nil
	}
	return p.parseComparison()
}

// binary builds the node l op r, or nothing when not building.
func (p *parser) binary(op string, l, r sqlast.Expr) sqlast.Expr {
	if !p.build() {
		return nil
	}
	return &sqlast.Binary{Op: op, L: l, R: r}
}

// unary builds the node op x, or nothing when not building.
func (p *parser) unary(op string, x sqlast.Expr) sqlast.Expr {
	if !p.build() {
		return nil
	}
	return &sqlast.Unary{Op: op, X: x}
}

func (p *parser) parseComparison() (sqlast.Expr, error) {
	outer := p.beginChain()
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		// IS [NOT] NULL
		if p.acceptKw("IS") {
			if err := p.wrap(); err != nil {
				return nil, err
			}
			not := p.acceptKw("NOT")
			if err := p.expectKw("NULL"); err != nil {
				return nil, err
			}
			if p.build() {
				left = &sqlast.IsNull{X: left, Not: not}
			}
			continue
		}
		// [NOT] IN / BETWEEN / LIKE
		not := false
		if p.cur().Is("NOT") {
			next := p.peekAt(1)
			if next.Is("IN") || next.Is("BETWEEN") || next.Is("LIKE") {
				p.pos++
				not = true
			}
		}
		switch {
		case p.acceptKw("IN"):
			if err := p.wrap(); err != nil {
				return nil, err
			}
			if _, err := p.expect(sqllex.LParen, "'('"); err != nil {
				return nil, err
			}
			var list []sqlast.Expr
			var sub *sqlast.SelectStmt
			if p.cur().Is("SELECT") || p.cur().Is("WITH") {
				if sub, err = p.parseSelect(); err != nil {
					return nil, err
				}
			} else {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					if p.build() {
						list = append(list, e)
					}
					if !p.accept(sqllex.Comma, "") {
						break
					}
				}
			}
			if _, err := p.expect(sqllex.RParen, "')'"); err != nil {
				return nil, err
			}
			if p.build() {
				left = &sqlast.In{X: left, Not: not, List: list, Sub: sub}
			}
			continue
		case p.acceptKw("BETWEEN"):
			lo, err := operand(p, (*parser).parseAdditive)
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("AND"); err != nil {
				return nil, err
			}
			hi, err := below(p, (*parser).parseAdditive)
			if err != nil {
				return nil, err
			}
			if p.build() {
				left = &sqlast.Between{X: left, Not: not, Lo: lo, Hi: hi}
			}
			continue
		case p.acceptKw("LIKE"):
			right, err := operand(p, (*parser).parseAdditive)
			if err != nil {
				return nil, err
			}
			left = p.binary("LIKE", left, right)
			if not {
				if err := p.wrap(); err != nil {
					return nil, err
				}
				left = p.unary("NOT", left)
			}
			continue
		}
		if not {
			return nil, p.errorf("expected IN, BETWEEN, or LIKE after NOT")
		}
		t := p.cur()
		if t.Kind == sqllex.Op {
			switch t.Text {
			case "=", "<>", "!=", "<", ">", "<=", ">=":
				p.pos++
				right, err := operand(p, (*parser).parseAdditive)
				if err != nil {
					return nil, err
				}
				op := t.Text
				if op == "!=" {
					op = "<>"
				}
				left = p.binary(op, left, right)
				continue
			}
		}
		p.endChain(outer)
		return left, nil
	}
}

func (p *parser) parseAdditive() (sqlast.Expr, error) {
	outer := p.beginChain()
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind == sqllex.Op && (t.Text == "+" || t.Text == "-" || t.Text == "||") {
			p.pos++
			right, err := operand(p, (*parser).parseMultiplicative)
			if err != nil {
				return nil, err
			}
			left = p.binary(t.Text, left, right)
			continue
		}
		p.endChain(outer)
		return left, nil
	}
}

func (p *parser) parseMultiplicative() (sqlast.Expr, error) {
	outer := p.beginChain()
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind == sqllex.Op && (t.Text == "*" || t.Text == "/" || t.Text == "%") {
			p.pos++
			right, err := operand(p, (*parser).parseUnary)
			if err != nil {
				return nil, err
			}
			left = p.binary(t.Text, left, right)
			continue
		}
		p.endChain(outer)
		return left, nil
	}
}

func (p *parser) parseUnary() (sqlast.Expr, error) {
	t := p.cur()
	if t.Kind == sqllex.Op && (t.Text == "-" || t.Text == "+") {
		p.pos++
		x, err := below(p, (*parser).parseUnary)
		if err != nil {
			return nil, err
		}
		return p.unary(t.Text, x), nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (sqlast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case sqllex.Number:
		p.pos++
		if !p.build() {
			return nil, nil
		}
		return sqlast.Number(t.Text), nil
	case sqllex.String:
		p.pos++
		if !p.build() {
			return nil, nil
		}
		return sqlast.Str(t.Val()), nil
	case sqllex.Variable:
		p.pos++
		if !p.build() {
			return nil, nil
		}
		return &sqlast.VarRef{Name: t.Text}, nil
	case sqllex.LParen:
		p.pos++
		if p.cur().Is("SELECT") || p.cur().Is("WITH") {
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(sqllex.RParen, "')'"); err != nil || !p.build() {
				return nil, err
			}
			return &sqlast.Subquery{Select: sel}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(sqllex.RParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case sqllex.Keyword:
		switch t.Upper() {
		case "NULL":
			p.pos++
			if !p.build() {
				return nil, nil
			}
			return sqlast.Null(), nil
		case "TRUE", "FALSE":
			p.pos++
			if !p.build() {
				return nil, nil
			}
			return &sqlast.Literal{Kind: sqlast.LitBool, Text: t.Upper()}, nil
		case "EXISTS":
			p.pos++
			if _, err := p.expect(sqllex.LParen, "'('"); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(sqllex.RParen, "')'"); err != nil || !p.build() {
				return nil, err
			}
			return &sqlast.Exists{Sub: sub}, nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			p.pos++
			if _, err := p.expect(sqllex.LParen, "'('"); err != nil {
				return nil, err
			}
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("AS"); err != nil {
				return nil, err
			}
			typ, err := p.typeName()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(sqllex.RParen, "')'"); err != nil || !p.build() {
				return nil, err
			}
			return &sqlast.Cast{X: x, Type: typ}, nil
		}
		return nil, p.errorf("unexpected keyword %s in expression", t.Upper())
	case sqllex.Ident, sqllex.QuotedIdent:
		return p.parseNameExpr()
	}
	return nil, p.errorf("unexpected token in expression")
}

func (p *parser) parseCase() (sqlast.Expr, error) {
	if err := p.expectKw("CASE"); err != nil {
		return nil, err
	}
	var c sqlast.Case
	if !p.cur().Is("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	arms := 0 // counted, not read off c.Whens, which only a building parse fills
	for p.acceptKw("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		arms++
		if p.build() {
			c.Whens = append(c.Whens, sqlast.When{Cond: cond, Result: res})
		}
	}
	if arms == 0 {
		return nil, p.errorf("CASE requires at least one WHEN arm")
	}
	if p.acceptKw("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("END"); err != nil || !p.build() {
		return nil, err
	}
	return onHeap(c), nil
}

// parseNameExpr handles identifiers: function calls, qualified column
// references, and bare columns.
func (p *parser) parseNameExpr() (sqlast.Expr, error) {
	first, err := p.identifier("identifier")
	if err != nil {
		return nil, err
	}
	// Qualified reference: a.b or a.b.c (schema.table.column collapses the
	// first two parts into the qualifier). Collected before deciding between
	// function call and column so that schema-qualified calls work. The
	// parts live in a stack buffer: names of up to three parts, all that
	// SQL writes, never allocate a slice.
	var buf [3]string
	parts := append(buf[:0], first)
	for p.cur().Kind == sqllex.Op && p.cur().Text == "." {
		next := p.peekAt(1)
		if next.Kind == sqllex.Op && next.Text == "*" {
			break // qualified star, handled by caller context
		}
		if next.Kind != sqllex.Ident && next.Kind != sqllex.QuotedIdent {
			return nil, p.errorf("expected identifier after '.'")
		}
		p.pos++
		part, err := p.identifier("name part")
		if err != nil {
			return nil, err
		}
		if p.build() {
			parts = append(parts, part)
		}
	}
	// Function call (possibly schema-qualified).
	if p.cur().Kind == sqllex.LParen {
		p.pos++
		var fc sqlast.FuncCall
		if p.cur().Kind == sqllex.Op && p.cur().Text == "*" {
			p.pos++
			fc.Star = true
		} else if p.cur().Kind != sqllex.RParen {
			if p.acceptKw("DISTINCT") {
				fc.Distinct = true
			}
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if p.build() {
					fc.Args = append(fc.Args, e)
				}
				if !p.accept(sqllex.Comma, "") {
					break
				}
			}
		}
		if _, err := p.expect(sqllex.RParen, "')'"); err != nil || !p.build() {
			return nil, err
		}
		fc.Name = strings.Join(parts, ".")
		return onHeap(fc), nil
	}
	if !p.build() {
		return nil, nil
	}
	switch len(parts) {
	case 1:
		return sqlast.Col("", parts[0]), nil
	case 2:
		return sqlast.Col(parts[0], parts[1]), nil
	default:
		return sqlast.Col(strings.Join(parts[:len(parts)-1], "."), parts[len(parts)-1]), nil
	}
}
