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

// ParseError describes a parse failure at a position.
type ParseError struct {
	Pos  sqllex.Pos
	Msg  string
	Near string // the offending token text, "" at end of input
}

func (e *ParseError) Error() string {
	if e.Near == "" {
		return fmt.Sprintf("syntax error at %s: %s (at end of input)", e.Pos, e.Msg)
	}
	return fmt.Sprintf("syntax error at %s: %s (near %q)", e.Pos, e.Msg, e.Near)
}

// Unwrap makes errors.Is(err, ErrSyntax) true.
func (e *ParseError) Unwrap() error { return ErrSyntax }

// parser is a recursive-descent parser over one token slice. A rule's
// result is a function of toks and the start pos alone, and every read of
// toks goes through cur, peekAt or atEOF (errorf reads the last token only
// once cur is at EOF), which record the highest index read in horizon. That
// is what lets a Prefix reuse a rule result on another token slice that
// agrees with this one up to and including the horizon.
type parser struct {
	toks    []sqllex.Token
	pos     int
	horizon int     // highest token index read so far; may be >= len(toks)
	prefix  *Prefix // rule memo of Prefix.Recognize; nil for a plain parse
}

// ParseStatement parses a single SQL statement (an optional trailing
// semicolon is consumed). Trailing tokens are an error.
func ParseStatement(sql string) (sqlast.Stmt, error) {
	p, err := newParser(sql)
	if err != nil {
		return nil, err
	}
	return p.statement()
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
	stmt, err := p.parseStatement()
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
	p, err := newParser(sql)
	if err != nil {
		return nil, err
	}
	var stmts []sqlast.Stmt
	for !p.atEOF() {
		stmt, err := p.parseStatement()
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

func newParser(sql string) (*parser, error) {
	toks, err := sqllex.LexWords(sql)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSyntax, err)
	}
	return &parser{toks: toks}, nil
}

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

func (p *parser) errorf(format string, args ...any) error {
	t := p.cur()
	pos := t.Pos
	if t.Kind == sqllex.EOF && len(p.toks) > 0 {
		last := p.toks[len(p.toks)-1]
		pos = last.Pos
		pos.Offset += len(last.Text)
		pos.Col += int32(len(last.Text))
	}
	return &ParseError{Pos: pos, Msg: fmt.Sprintf(format, args...), Near: t.Text}
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
		switch t.Upper() {
		case "BEGIN", "COMMIT", "ROLLBACK":
			return p.parseTxn(t.Upper())
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

func (p *parser) parseSelect() (*sqlast.SelectStmt, error) {
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
					cte.Columns = append(cte.Columns, col)
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
			with = append(with, cte)
			if !p.accept(sqllex.Comma, "") {
				break
			}
		}
	}
	sel, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}
	sel.With = with

	// Set operations chain onto the right.
	cur := sel
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
		right, err := p.parseSelectCore()
		if err != nil {
			return nil, err
		}
		cur.SetOp = &sqlast.SetOp{Op: op, All: all, Right: right}
		cur = right
	}

	// ORDER BY / LIMIT apply to the whole chain and attach to the head.
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := sqlast.OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(sqllex.Comma, "") {
				break
			}
		}
	}
	if p.acceptKw("LIMIT") {
		n, err := p.intLiteral()
		if err != nil {
			return nil, err
		}
		sel.Limit = &n
	}
	if p.acceptKw("OFFSET") {
		n, err := p.intLiteral()
		if err != nil {
			return nil, err
		}
		sel.Offset = &n
	}
	return sel, nil
}

// parseSelectCore parses SELECT ... [HAVING ...] without WITH, set ops,
// ORDER BY, or LIMIT.
func (p *parser) parseSelectCore() (*sqlast.SelectStmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	sel := &sqlast.SelectStmt{}
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
			sel.Top = &n
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
		from, err := p.fromList()
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
			sel.GroupBy = append(sel.GroupBy, e)
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
	return sel, nil
}

// parseSelectList parses the comma-separated items of a select list.
func (p *parser) parseSelectList() ([]sqlast.SelectItem, error) {
	var items []sqlast.SelectItem
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
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
		return sqlast.SelectItem{Expr: &sqlast.Star{}}, nil
	}
	// Qualified star: ident.*
	if (t.Kind == sqllex.Ident || t.Kind == sqllex.QuotedIdent) &&
		p.peekAt(1).Kind == sqllex.Op && p.peekAt(1).Text == "." &&
		p.peekAt(2).Kind == sqllex.Op && p.peekAt(2).Text == "*" {
		p.pos += 3
		return sqlast.SelectItem{Expr: &sqlast.Star{Table: t.Val()}}, nil
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

// parseFromList parses the comma-separated table references after FROM.
func (p *parser) parseFromList() ([]sqlast.TableRef, error) {
	var from []sqlast.TableRef
	for {
		tr, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		from = append(from, tr)
		if !p.accept(sqllex.Comma, "") {
			return from, nil
		}
	}
}

func (p *parser) parseTableRef() (sqlast.TableRef, error) {
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
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		join := &sqlast.Join{Left: left, Right: right, Type: joinType}
		if joinType != "CROSS" {
			if err := p.expectKw("ON"); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			join.On = cond
		}
		left = join
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
			st := &sqlast.SubqueryTable{Select: sel}
			st.Alias = p.optionalAlias()
			return st, nil
		}
		ref, err := p.tableRef()
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
	tn := &sqlast.TableName{Name: name}
	tn.Alias = p.optionalAlias()
	return tn, nil
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

// qualifiedName consumes ident(.ident)* and joins with dots.
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
		name += "." + part
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
		ct := &sqlast.CreateTableStmt{Name: name}
		if p.acceptKw("AS") {
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			ct.AsSelect = sel
			return ct, nil
		}
		if _, err := p.expect(sqllex.LParen, "'('"); err != nil {
			return nil, err
		}
		for {
			col, err := p.identifier("column name")
			if err != nil {
				return nil, err
			}
			typ, err := p.typeName()
			if err != nil {
				return nil, err
			}
			ct.Cols = append(ct.Cols, sqlast.ColumnDef{Name: col, Type: typ})
			if !p.accept(sqllex.Comma, "") {
				break
			}
		}
		if _, err := p.expect(sqllex.RParen, "')'"); err != nil {
			return nil, err
		}
		return ct, nil
	case p.acceptKw("VIEW"):
		name, err := p.qualifiedName()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AS"); err != nil {
			return nil, err
		}
		sel, err := p.parseSelect()
		if err != nil {
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
		return base + "(" + n.Text + ")", nil
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
	ins := &sqlast.InsertStmt{Table: table}
	if p.accept(sqllex.LParen, "") {
		for {
			col, err := p.identifier("column name")
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
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
		if err != nil {
			return nil, err
		}
		ins.Select = sel
		return ins, nil
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
			row = append(row, e)
			if !p.accept(sqllex.Comma, "") {
				break
			}
		}
		if _, err := p.expect(sqllex.RParen, "')'"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(sqllex.Comma, "") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseUpdate() (sqlast.Stmt, error) {
	if err := p.expectKw("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	up := &sqlast.UpdateStmt{Table: table}
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
		up.Set = append(up.Set, sqlast.Assignment{Column: col, Value: val})
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
	return up, nil
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
	del := &sqlast.DeleteStmt{Table: table}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = e
	}
	return del, nil
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
	d := &sqlast.DeclareStmt{Name: v.Text, Type: typ}
	if p.accept(sqllex.Op, "=") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Init = e
	}
	return d, nil
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
	if err != nil {
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
	ex := &sqlast.ExecStmt{Proc: proc}
	for !p.atEOF() && p.cur().Kind != sqllex.Semi {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ex.Args = append(ex.Args, e)
		if !p.accept(sqllex.Comma, "") {
			break
		}
	}
	return ex, nil
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
	if err != nil {
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
	if err != nil {
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
	return &sqlast.TxnStmt{Kind: kind}, nil
}

func (p *parser) intLiteral() (int, error) {
	t, err := p.expect(sqllex.Number, "integer")
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(t.Text)
	if err != nil {
		return 0, p.errorf("expected integer, got %q", t.Text)
	}
	return n, nil
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

func (p *parser) parseExpr() (sqlast.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (sqlast.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &sqlast.Binary{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (sqlast.Expr, error) {
	left, err := p.conjunct()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		right, err := p.conjunct()
		if err != nil {
			return nil, err
		}
		left = &sqlast.Binary{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (sqlast.Expr, error) {
	if p.acceptKw("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &sqlast.Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (sqlast.Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		// IS [NOT] NULL
		if p.acceptKw("IS") {
			not := p.acceptKw("NOT")
			if err := p.expectKw("NULL"); err != nil {
				return nil, err
			}
			left = &sqlast.IsNull{X: left, Not: not}
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
			in := &sqlast.In{X: left, Not: not}
			if _, err := p.expect(sqllex.LParen, "'('"); err != nil {
				return nil, err
			}
			if p.cur().Is("SELECT") || p.cur().Is("WITH") {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				in.Sub = sub
			} else {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					in.List = append(in.List, e)
					if !p.accept(sqllex.Comma, "") {
						break
					}
				}
			}
			if _, err := p.expect(sqllex.RParen, "')'"); err != nil {
				return nil, err
			}
			left = in
			continue
		case p.acceptKw("BETWEEN"):
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &sqlast.Between{X: left, Not: not, Lo: lo, Hi: hi}
			continue
		case p.acceptKw("LIKE"):
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			var e sqlast.Expr = &sqlast.Binary{Op: "LIKE", L: left, R: right}
			if not {
				e = &sqlast.Unary{Op: "NOT", X: e}
			}
			left = e
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
				right, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				op := t.Text
				if op == "!=" {
					op = "<>"
				}
				left = &sqlast.Binary{Op: op, L: left, R: right}
				continue
			}
		}
		return left, nil
	}
}

func (p *parser) parseAdditive() (sqlast.Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind == sqllex.Op && (t.Text == "+" || t.Text == "-" || t.Text == "||") {
			p.pos++
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &sqlast.Binary{Op: t.Text, L: left, R: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseMultiplicative() (sqlast.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind == sqllex.Op && (t.Text == "*" || t.Text == "/" || t.Text == "%") {
			p.pos++
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &sqlast.Binary{Op: t.Text, L: left, R: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseUnary() (sqlast.Expr, error) {
	t := p.cur()
	if t.Kind == sqllex.Op && (t.Text == "-" || t.Text == "+") {
		p.pos++
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &sqlast.Unary{Op: t.Text, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (sqlast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case sqllex.Number:
		p.pos++
		return sqlast.Number(t.Text), nil
	case sqllex.String:
		p.pos++
		return sqlast.Str(t.Val()), nil
	case sqllex.Variable:
		p.pos++
		return &sqlast.VarRef{Name: t.Text}, nil
	case sqllex.LParen:
		p.pos++
		if p.cur().Is("SELECT") || p.cur().Is("WITH") {
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(sqllex.RParen, "')'"); err != nil {
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
			return sqlast.Null(), nil
		case "TRUE", "FALSE":
			p.pos++
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
			if _, err := p.expect(sqllex.RParen, "')'"); err != nil {
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
			if _, err := p.expect(sqllex.RParen, "')'"); err != nil {
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
	c := &sqlast.Case{}
	if !p.cur().Is("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
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
		c.Whens = append(c.Whens, sqlast.When{Cond: cond, Result: res})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN arm")
	}
	if p.acceptKw("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return c, nil
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
		parts = append(parts, part)
	}
	// Function call (possibly schema-qualified).
	if p.cur().Kind == sqllex.LParen {
		p.pos++
		fc := &sqlast.FuncCall{Name: strings.Join(parts, ".")}
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
				fc.Args = append(fc.Args, e)
				if !p.accept(sqllex.Comma, "") {
					break
				}
			}
		}
		if _, err := p.expect(sqllex.RParen, "')'"); err != nil {
			return nil, err
		}
		return fc, nil
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
