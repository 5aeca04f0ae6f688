package sqlparser

import (
	"fmt"
	"strconv"

	"ontoaccess/internal/lex"
	"ontoaccess/internal/rdb"
)

// Parser is a recursive-descent SQL parser.
type Parser struct {
	lx  *lexer
	tok token
}

// NewParser creates a parser over src and loads the first token.
func NewParser(src string) (*Parser, error) {
	p := &Parser{lx: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseScript parses a sequence of ';'-separated statements.
func ParseScript(src string) ([]Statement, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	var out []Statement
	for {
		for p.tok.kind == tSemicolon {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if p.tok.kind == tEOF {
			return out, nil
		}
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		switch p.tok.kind {
		case tSemicolon, tEOF:
		default:
			return nil, p.errorf("expected ';' or end of input after statement, found %s", p.tok.kind)
		}
	}
}

// ParseStatement parses exactly one statement.
func ParseStatement(src string) (Statement, error) {
	stmts, err := ParseScript(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sql: expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

func (p *Parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *Parser) errorf(format string, args ...any) error {
	return lex.Errorf("sql", p.tok.line, p.tok.col, format, args...)
}

func (p *Parser) isKeyword(kw string) bool {
	return p.tok.kind == tKeyword && p.tok.val == kw
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return p.errorf("expected %s, found %s %q", kw, p.tok.kind, p.tok.val)
	}
	return p.advance()
}

func (p *Parser) expect(kind tokKind) (token, error) {
	if p.tok.kind != kind {
		return token{}, p.errorf("expected %s, found %s %q", kind, p.tok.kind, p.tok.val)
	}
	t := p.tok
	return t, p.advance()
}

// expectIdent accepts an identifier. Reserved words are rejected;
// quote them ("type") if a schema really needs one — the common
// schema words of the paper (type, year, name, ...) are not reserved.
func (p *Parser) expectIdent() (string, error) {
	if p.tok.kind != tIdent {
		return "", p.errorf("expected identifier, found %s %q", p.tok.kind, p.tok.val)
	}
	v := p.tok.val
	return v, p.advance()
}

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.isKeyword("CREATE"):
		return p.parseCreateTable()
	case p.isKeyword("DROP"):
		return p.parseDropTable()
	case p.isKeyword("INSERT"):
		return p.parseInsert()
	case p.isKeyword("UPDATE"):
		return p.parseUpdate()
	case p.isKeyword("DELETE"):
		return p.parseDelete()
	case p.isKeyword("SELECT"):
		return p.parseSelect()
	default:
		return nil, p.errorf("expected a SQL statement, found %s %q", p.tok.kind, p.tok.val)
	}
}

func (p *Parser) parseCreateTable() (Statement, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tLParen); err != nil {
		return nil, err
	}
	schema := &rdb.TableSchema{Name: name}
	for {
		switch {
		case p.isKeyword("PRIMARY"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			schema.PrimaryKey = append(schema.PrimaryKey, cols...)
		case p.isKeyword("FOREIGN"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			if len(cols) != 1 {
				return nil, p.errorf("only single-column foreign keys are supported")
			}
			if err := p.expectKeyword("REFERENCES"); err != nil {
				return nil, err
			}
			ref, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			// Optional referenced column list "(id)" is parsed and
			// ignored: references always target the primary key.
			if p.tok.kind == tLParen {
				if _, err := p.parseParenIdentList(); err != nil {
					return nil, err
				}
			}
			schema.ForeignKeys = append(schema.ForeignKeys, rdb.ForeignKey{Column: cols[0], RefTable: ref})
		default:
			col, pk, fk, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			schema.Columns = append(schema.Columns, col)
			if pk {
				schema.PrimaryKey = append(schema.PrimaryKey, col.Name)
			}
			if fk != nil {
				schema.ForeignKeys = append(schema.ForeignKeys, *fk)
			}
		}
		if p.tok.kind == tComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if _, err := p.expect(tRParen); err != nil {
		return nil, err
	}
	return CreateTable{Schema: schema}, nil
}

func (p *Parser) parseColumnDef() (rdb.Column, bool, *rdb.ForeignKey, error) {
	var col rdb.Column
	name, err := p.expectIdent()
	if err != nil {
		return col, false, nil, err
	}
	col.Name = name
	if p.tok.kind != tKeyword {
		return col, false, nil, p.errorf("expected column type, found %s", p.tok.kind)
	}
	ct, ok := typeFromKeyword(p.tok.val)
	if !ok {
		return col, false, nil, p.errorf("unknown column type %q", p.tok.val)
	}
	col.Type = ct
	if err := p.advance(); err != nil {
		return col, false, nil, err
	}
	if p.tok.kind == tLParen { // VARCHAR(n)
		if err := p.advance(); err != nil {
			return col, false, nil, err
		}
		n, err := p.expect(tNumber)
		if err != nil {
			return col, false, nil, err
		}
		length, err := strconv.Atoi(n.val)
		if err != nil || length <= 0 {
			return col, false, nil, p.errorf("invalid length %q", n.val)
		}
		col.Length = length
		if _, err := p.expect(tRParen); err != nil {
			return col, false, nil, err
		}
	}
	isPK := false
	var fk *rdb.ForeignKey
	for {
		switch {
		case p.isKeyword("NOT"):
			if err := p.advance(); err != nil {
				return col, false, nil, err
			}
			if err := p.expectKeyword("NULL"); err != nil {
				return col, false, nil, err
			}
			col.NotNull = true
		case p.isKeyword("UNIQUE"):
			if err := p.advance(); err != nil {
				return col, false, nil, err
			}
			col.Unique = true
		case p.isKeyword("AUTO_INCREMENT"):
			if err := p.advance(); err != nil {
				return col, false, nil, err
			}
			col.AutoIncrement = true
		case p.isKeyword("DEFAULT"):
			if err := p.advance(); err != nil {
				return col, false, nil, err
			}
			v, err := p.parseLiteralValue()
			if err != nil {
				return col, false, nil, err
			}
			col.Default = &v
		case p.isKeyword("PRIMARY"):
			if err := p.advance(); err != nil {
				return col, false, nil, err
			}
			if err := p.expectKeyword("KEY"); err != nil {
				return col, false, nil, err
			}
			isPK = true
		case p.isKeyword("REFERENCES"):
			if err := p.advance(); err != nil {
				return col, false, nil, err
			}
			ref, err := p.expectIdent()
			if err != nil {
				return col, false, nil, err
			}
			if p.tok.kind == tLParen {
				if _, err := p.parseParenIdentList(); err != nil {
					return col, false, nil, err
				}
			}
			fk = &rdb.ForeignKey{Column: col.Name, RefTable: ref}
		default:
			return col, isPK, fk, nil
		}
	}
}

func (p *Parser) parseParenIdentList() ([]string, error) {
	if _, err := p.expect(tLParen); err != nil {
		return nil, err
	}
	var out []string
	for {
		id, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if p.tok.kind == tComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if _, err := p.expect(tRParen); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *Parser) parseDropTable() (Statement, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return DropTable{Table: name}, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := Insert{Table: table}
	if p.tok.kind == tLParen {
		cols, err := p.parseParenIdentList()
		if err != nil {
			return nil, err
		}
		ins.Columns = cols
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tLParen); err != nil {
			return nil, err
		}
		var row []rdb.Value
		for {
			v, err := p.parseLiteralValue()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if p.tok.kind == tComma {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if p.tok.kind == tComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	return ins, nil
}

// parseLiteralValue parses a literal: number, string, NULL, TRUE,
// FALSE, with optional leading minus on numbers.
func (p *Parser) parseLiteralValue() (rdb.Value, error) {
	neg := false
	if p.tok.kind == tMinus {
		neg = true
		if err := p.advance(); err != nil {
			return rdb.Null, err
		}
	}
	switch {
	case p.tok.kind == tNumber:
		v, err := numberValue(p.tok.val, neg)
		if err != nil {
			return rdb.Null, p.errorf("%v", err)
		}
		return v, p.advance()
	case p.tok.kind == tString:
		if neg {
			return rdb.Null, p.errorf("cannot negate a string")
		}
		v := rdb.String_(p.tok.val)
		return v, p.advance()
	case p.isKeyword("NULL"):
		if neg {
			return rdb.Null, p.errorf("cannot negate NULL")
		}
		return rdb.Null, p.advance()
	case p.isKeyword("TRUE"):
		return rdb.Bool(true), p.advance()
	case p.isKeyword("FALSE"):
		return rdb.Bool(false), p.advance()
	default:
		return rdb.Null, p.errorf("expected literal value, found %s %q", p.tok.kind, p.tok.val)
	}
}

func numberValue(lex string, neg bool) (rdb.Value, error) {
	if i, err := strconv.ParseInt(lex, 10, 64); err == nil {
		if neg {
			i = -i
		}
		return rdb.Int(i), nil
	}
	f, err := strconv.ParseFloat(lex, 64)
	if err != nil {
		return rdb.Null, fmt.Errorf("malformed number %q", lex)
	}
	if neg {
		f = -f
	}
	return rdb.Float(f), nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	up := Update{Table: table}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tEq); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, Assignment{Column: col, Value: val})
		if p.tok.kind == tComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if p.isKeyword("WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Where = w
	}
	return up, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	del := Delete{Table: table}
	if p.isKeyword("WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

func (p *Parser) parseSelect() (Statement, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	sel := Select{Limit: -1, Offset: -1}
	if p.isKeyword("DISTINCT") {
		sel.Distinct = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if p.tok.kind == tComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	sel.From = from
	for {
		leftOuter := false
		if p.isKeyword("INNER") {
			if err := p.advance(); err != nil {
				return nil, err
			}
		} else if p.isKeyword("LEFT") {
			leftOuter = true
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.isKeyword("OUTER") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if !p.isKeyword("JOIN") {
			if leftOuter {
				return nil, p.errorf("expected JOIN after LEFT")
			}
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Joins = append(sel.Joins, Join{Ref: ref, On: on, LeftOuter: leftOuter})
	}
	if p.isKeyword("WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.isKeyword("GROUP") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if p.tok.kind == tComma {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if p.isKeyword("HAVING") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			cond, err := p.parseHavingCond()
			if err != nil {
				return nil, err
			}
			sel.Having = append(sel.Having, cond)
			if p.isKeyword("AND") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if p.isKeyword("ORDER") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Expr: e}
			if p.isKeyword("ASC") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			} else if p.isKeyword("DESC") {
				key.Desc = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			sel.OrderBy = append(sel.OrderBy, key)
			if p.tok.kind == tComma {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	for {
		switch {
		case p.isKeyword("LIMIT"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			n, err := p.expect(tNumber)
			if err != nil {
				return nil, err
			}
			sel.Limit, err = strconv.Atoi(n.val)
			if err != nil {
				return nil, p.errorf("invalid LIMIT %q", n.val)
			}
		case p.isKeyword("OFFSET"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			n, err := p.expect(tNumber)
			if err != nil {
				return nil, err
			}
			sel.Offset, err = strconv.Atoi(n.val)
			if err != nil {
				return nil, p.errorf("invalid OFFSET %q", n.val)
			}
		default:
			return sel, nil
		}
	}
}

// parseHavingCond parses one HAVING conjunct: an aggregate call
// compared with a literal value.
func (p *Parser) parseHavingCond() (HavingCond, error) {
	var cond HavingCond
	agg, _ := p.aggKeyword()
	if agg == AggNone {
		return cond, p.errorf("expected aggregate function in HAVING")
	}
	cond.Agg = agg
	if err := p.advance(); err != nil {
		return cond, err
	}
	if _, err := p.expect(tLParen); err != nil {
		return cond, err
	}
	if agg == AggCount && p.tok.kind == tStar {
		if err := p.advance(); err != nil {
			return cond, err
		}
	} else {
		e, err := p.parseExpr()
		if err != nil {
			return cond, err
		}
		cond.Expr = e
	}
	if _, err := p.expect(tRParen); err != nil {
		return cond, err
	}
	ops := map[tokKind]BinOp{tEq: OpEq, tNe: OpNe, tLt: OpLt, tLe: OpLe, tGt: OpGt, tGe: OpGe}
	op, ok := ops[p.tok.kind]
	if !ok {
		return cond, p.errorf("expected comparison operator in HAVING")
	}
	cond.Op = op
	if err := p.advance(); err != nil {
		return cond, err
	}
	v, err := p.parseLiteralValue()
	if err != nil {
		return cond, err
	}
	cond.Val = v
	return cond, nil
}

// aggFuncs holds each aggregate's keyword and the default alias the
// parser gives an aggregate item without AS.
var aggFuncs = [...]struct{ kw, alias string }{
	AggCount: {"COUNT", "count"}, AggSum: {"SUM", "sum"}, AggAvg: {"AVG", "avg"},
	AggMin: {"MIN", "min"}, AggMax: {"MAX", "max"},
}

// aggKeyword maps the current token to an aggregate function and its
// default (lowercase) alias; AggNone when it is not an aggregate.
func (p *Parser) aggKeyword() (AggFunc, string) {
	for f := AggCount; f <= AggMax; f++ {
		if p.isKeyword(aggFuncs[f].kw) {
			return f, aggFuncs[f].alias
		}
	}
	return AggNone, ""
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.tok.kind == tStar {
		return SelectItem{Star: true}, p.advance()
	}
	if agg, name := p.aggKeyword(); agg != AggNone {
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
		if _, err := p.expect(tLParen); err != nil {
			return SelectItem{}, err
		}
		item := SelectItem{Agg: agg, Alias: name}
		if agg == AggCount && p.tok.kind == tStar {
			if err := p.advance(); err != nil {
				return SelectItem{}, err
			}
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return SelectItem{}, err
			}
			item.Expr = e
		}
		if _, err := p.expect(tRParen); err != nil {
			return SelectItem{}, err
		}
		if p.isKeyword("AS") {
			if err := p.advance(); err != nil {
				return SelectItem{}, err
			}
			alias, err := p.expectIdent()
			if err != nil {
				return SelectItem{}, err
			}
			item.Alias = alias
		}
		return item, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.isKeyword("AS") {
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	}
	return item, nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name}
	if p.isKeyword("AS") {
		if err := p.advance(); err != nil {
			return TableRef{}, err
		}
		alias, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if p.tok.kind == tIdent {
		ref.Alias = p.tok.val
		if err := p.advance(); err != nil {
			return TableRef{}, err
		}
	}
	return ref, nil
}

// ---- expressions ----

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("OR") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = Binary{Op: OpOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("AND") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = Binary{Op: OpAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.isKeyword("NOT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return Not{Inner: inner}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	switch {
	case p.tok.kind == tEq, p.tok.kind == tNe, p.tok.kind == tLt,
		p.tok.kind == tLe, p.tok.kind == tGt, p.tok.kind == tGe:
		op := map[tokKind]BinOp{tEq: OpEq, tNe: OpNe, tLt: OpLt, tLe: OpLe, tGt: OpGt, tGe: OpGe}[p.tok.kind]
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return Binary{Op: op, Left: left, Right: right}, nil
	case p.isKeyword("IS"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		negate := false
		if p.isKeyword("NOT") {
			negate = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return IsNull{Inner: left, Negate: negate}, nil
	case p.isKeyword("LIKE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return Binary{Op: OpLike, Left: left, Right: right}, nil
	case p.isKeyword("NOT"):
		// NOT LIKE / NOT IN
		if err := p.advance(); err != nil {
			return nil, err
		}
		switch {
		case p.isKeyword("LIKE"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return Not{Inner: Binary{Op: OpLike, Left: left, Right: right}}, nil
		case p.isKeyword("IN"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			vals, err := p.parseParenValueList()
			if err != nil {
				return nil, err
			}
			return InList{Inner: left, Values: vals, Negate: true}, nil
		default:
			return nil, p.errorf("expected LIKE or IN after NOT")
		}
	case p.isKeyword("IN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		vals, err := p.parseParenValueList()
		if err != nil {
			return nil, err
		}
		return InList{Inner: left, Values: vals}, nil
	}
	return left, nil
}

func (p *Parser) parseParenValueList() ([]rdb.Value, error) {
	if _, err := p.expect(tLParen); err != nil {
		return nil, err
	}
	var out []rdb.Value
	for {
		v, err := p.parseLiteralValue()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		if p.tok.kind == tComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if _, err := p.expect(tRParen); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tPlus || p.tok.kind == tMinus {
		op := OpAdd
		if p.tok.kind == tMinus {
			op = OpSub
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = Binary{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tStar || p.tok.kind == tSlash {
		op := OpMul
		if p.tok.kind == tSlash {
			op = OpDiv
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		left = Binary{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch {
	case p.tok.kind == tLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return e, nil
	case p.tok.kind == tMinus:
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return Neg{Inner: inner}, nil
	case p.tok.kind == tNumber, p.tok.kind == tString,
		p.isKeyword("NULL"), p.isKeyword("TRUE"), p.isKeyword("FALSE"):
		v, err := p.parseLiteralValue()
		if err != nil {
			return nil, err
		}
		return Lit{Value: v}, nil
	case p.tok.kind == tIdent:
		// Column reference, possibly qualified.
		first := p.tok.val
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tDot {
			if err := p.advance(); err != nil {
				return nil, err
			}
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return ColRef{Table: first, Column: col}, nil
		}
		return ColRef{Column: first}, nil
	default:
		return nil, p.errorf("unexpected %s %q in expression", p.tok.kind, p.tok.val)
	}
}
