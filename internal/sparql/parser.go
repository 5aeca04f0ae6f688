package sparql

import (
	"fmt"

	"ontoaccess/internal/lex"
	"ontoaccess/internal/rdf"
)

// Parser is a recursive-descent parser over the shared SPARQL lexer.
// It is exported (within the module) so that package update can build
// the SPARQL/Update grammar on top of the same machinery, mirroring
// how the member submission reuses the SPARQL grammar.
type Parser struct {
	lx       *Lexer
	tok      Token
	Prefixes *rdf.PrefixMap
	base     string
	bnodeSeq int
}

// NewParser creates a parser and loads the first token.
func NewParser(src string) (*Parser, error) {
	p := &Parser{lx: NewLexer(src), Prefixes: rdf.NewPrefixMap()}
	if err := p.Advance(); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseQuery parses a complete SPARQL query string.
func ParseQuery(src string) (*Query, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != TokEOF {
		return nil, p.Errorf("unexpected %s after end of query", p.tok.Kind)
	}
	return q, nil
}

// Tok returns the current token.
func (p *Parser) Tok() Token { return p.tok }

// Advance moves to the next token.
func (p *Parser) Advance() error {
	t, err := p.lx.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// Errorf builds a position-annotated syntax error.
func (p *Parser) Errorf(format string, args ...any) error {
	return lex.Errorf("sparql", p.tok.Line, p.tok.Col, format, args...)
}

// Expect consumes a token of the given kind or fails.
func (p *Parser) Expect(kind TokKind) (Token, error) {
	if p.tok.Kind != kind {
		return Token{}, p.Errorf("expected %s, found %s", kind, p.tok.Kind)
	}
	t := p.tok
	return t, p.Advance()
}

// IsKeyword reports whether the current token is the given keyword.
func (p *Parser) IsKeyword(kw string) bool {
	return p.tok.Kind == TokKeyword && p.tok.Val == kw
}

// ExpectKeyword consumes a specific keyword or fails.
func (p *Parser) ExpectKeyword(kw string) error {
	if !p.IsKeyword(kw) {
		return p.Errorf("expected %s, found %s %q", kw, p.tok.Kind, p.tok.Val)
	}
	return p.Advance()
}

// ParsePrologue parses PREFIX and BASE declarations.
func (p *Parser) ParsePrologue() error {
	for {
		switch {
		case p.IsKeyword("PREFIX"):
			if err := p.Advance(); err != nil {
				return err
			}
			pn, err := p.Expect(TokPName)
			if err != nil {
				return err
			}
			if pn.Val[len(pn.Val)-1] != ':' {
				return p.Errorf("prefix declaration must end with ':'")
			}
			iri, err := p.Expect(TokIRIRef)
			if err != nil {
				return err
			}
			p.Prefixes.Set(pn.Val[:len(pn.Val)-1], rdf.ResolveIRI(p.base, iri.Val))
		case p.IsKeyword("BASE"):
			if err := p.Advance(); err != nil {
				return err
			}
			iri, err := p.Expect(TokIRIRef)
			if err != nil {
				return err
			}
			p.base = rdf.ResolveIRI(p.base, iri.Val)
		default:
			return nil
		}
	}
}

func (p *Parser) parseQuery() (*Query, error) {
	if err := p.ParsePrologue(); err != nil {
		return nil, err
	}
	q := &Query{Prefixes: p.Prefixes, Limit: -1, Offset: -1}
	switch {
	case p.IsKeyword("SELECT"):
		return p.parseSelect(q)
	case p.IsKeyword("ASK"):
		return p.parseAsk(q)
	case p.IsKeyword("CONSTRUCT"):
		return p.parseConstruct(q)
	case p.IsKeyword("DESCRIBE"):
		return nil, p.Errorf("DESCRIBE queries are not supported")
	default:
		return nil, p.Errorf("expected SELECT, ASK or CONSTRUCT, found %s %q", p.tok.Kind, p.tok.Val)
	}
}

func (p *Parser) parseSelect(q *Query) (*Query, error) {
	q.Form = FormSelect
	if err := p.Advance(); err != nil {
		return nil, err
	}
	if p.IsKeyword("DISTINCT") {
		q.Distinct = true
		if err := p.Advance(); err != nil {
			return nil, err
		}
	} else if p.IsKeyword("REDUCED") {
		// REDUCED permits but does not require duplicate elimination;
		// treating it as plain projection is conformant.
		if err := p.Advance(); err != nil {
			return nil, err
		}
	}
	switch p.tok.Kind {
	case TokStar:
		q.Star = true
		if err := p.Advance(); err != nil {
			return nil, err
		}
	case TokVar, TokLParen:
		var aggs []AggSpec
		hasAgg := false
		for {
			if p.tok.Kind == TokVar {
				q.Vars = append(q.Vars, p.tok.Val)
				aggs = append(aggs, AggSpec{})
				if err := p.Advance(); err != nil {
					return nil, err
				}
				continue
			}
			if p.tok.Kind != TokLParen {
				break
			}
			alias, spec, err := p.parseAggItem()
			if err != nil {
				return nil, err
			}
			q.Vars = append(q.Vars, alias)
			aggs = append(aggs, spec)
			hasAgg = true
		}
		if hasAgg {
			q.Aggs = aggs
		}
	default:
		return nil, p.Errorf("expected '*' or variables after SELECT, found %s", p.tok.Kind)
	}
	if p.IsKeyword("FROM") {
		return nil, p.Errorf("FROM datasets are not supported")
	}
	if p.IsKeyword("WHERE") {
		if err := p.Advance(); err != nil {
			return nil, err
		}
	}
	where, err := p.ParseGroupGraphPattern()
	if err != nil {
		return nil, err
	}
	q.Where = where
	if err := p.parseSolutionModifiers(q); err != nil {
		return nil, err
	}
	if err := p.validateAggregates(q); err != nil {
		return nil, err
	}
	return q, nil
}

// parseAggItem parses one parenthesized aggregate projection item:
// "( COUNT(*) AS ?alias )" or "( SUM(?v) AS ?alias )". The opening
// paren is the current token.
func (p *Parser) parseAggItem() (string, AggSpec, error) {
	var spec AggSpec
	if err := p.Advance(); err != nil {
		return "", spec, err
	}
	switch {
	case p.IsKeyword("COUNT"), p.IsKeyword("SUM"), p.IsKeyword("AVG"),
		p.IsKeyword("MIN"), p.IsKeyword("MAX"):
		spec.Fn = p.tok.Val
	default:
		return "", spec, p.Errorf("expected aggregate function, found %s %q", p.tok.Kind, p.tok.Val)
	}
	if err := p.Advance(); err != nil {
		return "", spec, err
	}
	if _, err := p.Expect(TokLParen); err != nil {
		return "", spec, err
	}
	if p.tok.Kind == TokStar {
		if spec.Fn != "COUNT" {
			return "", spec, p.Errorf("'*' is only valid in COUNT(*)")
		}
		if err := p.Advance(); err != nil {
			return "", spec, err
		}
	} else {
		v, err := p.Expect(TokVar)
		if err != nil {
			return "", spec, err
		}
		spec.Var = v.Val
	}
	if _, err := p.Expect(TokRParen); err != nil {
		return "", spec, err
	}
	if err := p.ExpectKeyword("AS"); err != nil {
		return "", spec, err
	}
	alias, err := p.Expect(TokVar)
	if err != nil {
		return "", spec, err
	}
	if _, err := p.Expect(TokRParen); err != nil {
		return "", spec, err
	}
	return alias.Val, spec, nil
}

// parseHavingCond parses one HAVING conjunct: an aggregate call,
// a comparison operator, and a literal right-hand side.
func (p *Parser) parseHavingCond() (HavingCond, error) {
	var cond HavingCond
	switch {
	case p.IsKeyword("COUNT"), p.IsKeyword("SUM"), p.IsKeyword("AVG"),
		p.IsKeyword("MIN"), p.IsKeyword("MAX"):
		cond.Agg.Fn = p.tok.Val
	default:
		return cond, p.Errorf("expected aggregate function in HAVING, found %s %q", p.tok.Kind, p.tok.Val)
	}
	if err := p.Advance(); err != nil {
		return cond, err
	}
	if _, err := p.Expect(TokLParen); err != nil {
		return cond, err
	}
	if p.tok.Kind == TokStar {
		if cond.Agg.Fn != "COUNT" {
			return cond, p.Errorf("'*' is only valid in COUNT(*)")
		}
		if err := p.Advance(); err != nil {
			return cond, err
		}
	} else {
		v, err := p.Expect(TokVar)
		if err != nil {
			return cond, err
		}
		cond.Agg.Var = v.Val
	}
	if _, err := p.Expect(TokRParen); err != nil {
		return cond, err
	}
	ops := map[TokKind]BinOp{
		TokEq: OpEq, TokNe: OpNe, TokLt: OpLt, TokLe: OpLe, TokGt: OpGt, TokGe: OpGe,
	}
	op, ok := ops[p.tok.Kind]
	if !ok {
		return cond, p.Errorf("expected comparison operator in HAVING, found %s", p.tok.Kind)
	}
	cond.Op = op
	if err := p.Advance(); err != nil {
		return cond, err
	}
	switch p.tok.Kind {
	case TokString:
		pt, err := p.parseLiteralTerm()
		if err != nil {
			return cond, err
		}
		cond.Lit = pt.Term
	case TokInteger:
		cond.Lit = rdf.TypedLiteral(p.tok.Val, rdf.XSDInteger)
		return cond, p.Advance()
	case TokDecimal:
		cond.Lit = rdf.TypedLiteral(p.tok.Val, rdf.XSDDecimal)
		return cond, p.Advance()
	case TokDouble:
		cond.Lit = rdf.TypedLiteral(p.tok.Val, rdf.XSDDouble)
		return cond, p.Advance()
	default:
		return cond, p.Errorf("expected literal after HAVING comparison, found %s", p.tok.Kind)
	}
	return cond, nil
}

// validateAggregates enforces the aggregation subset: aggregates do
// not combine with other solution modifiers, plain projection items
// must be GROUP BY variables, and GROUP BY requires an aggregate.
func (p *Parser) validateAggregates(q *Query) error {
	if q.Aggs == nil {
		if len(q.GroupBy) > 0 {
			return p.Errorf("GROUP BY requires an aggregate in the projection")
		}
		if len(q.Having) > 0 {
			return p.Errorf("HAVING requires an aggregate in the projection")
		}
		return nil
	}
	if q.Distinct {
		return p.Errorf("DISTINCT cannot be combined with aggregation")
	}
	if len(q.OrderBy) > 0 || q.Limit >= 0 || q.Offset >= 0 {
		return p.Errorf("ORDER BY / LIMIT / OFFSET cannot be combined with aggregation")
	}
	grouped := make(map[string]bool, len(q.GroupBy))
	for _, v := range q.GroupBy {
		grouped[v] = true
	}
	seen := make(map[string]bool, len(q.Vars))
	for i, a := range q.Aggs {
		name := q.Vars[i]
		if seen[name] {
			return p.Errorf("duplicate projection name ?%s", name)
		}
		seen[name] = true
		if a.Fn == "" && !grouped[name] {
			return p.Errorf("SELECT variable ?%s must appear in GROUP BY", name)
		}
	}
	return nil
}

func (p *Parser) parseAsk(q *Query) (*Query, error) {
	q.Form = FormAsk
	if err := p.Advance(); err != nil {
		return nil, err
	}
	if p.IsKeyword("WHERE") {
		if err := p.Advance(); err != nil {
			return nil, err
		}
	}
	where, err := p.ParseGroupGraphPattern()
	if err != nil {
		return nil, err
	}
	q.Where = where
	return q, nil
}

func (p *Parser) parseConstruct(q *Query) (*Query, error) {
	q.Form = FormConstruct
	if err := p.Advance(); err != nil {
		return nil, err
	}
	if _, err := p.Expect(TokLBrace); err != nil {
		return nil, err
	}
	tmpl, err := p.ParseTriplesBlock()
	if err != nil {
		return nil, err
	}
	q.Template = tmpl
	if _, err := p.Expect(TokRBrace); err != nil {
		return nil, err
	}
	if err := p.ExpectKeyword("WHERE"); err != nil {
		return nil, err
	}
	where, err := p.ParseGroupGraphPattern()
	if err != nil {
		return nil, err
	}
	q.Where = where
	if err := p.parseSolutionModifiers(q); err != nil {
		return nil, err
	}
	if err := p.validateAggregates(q); err != nil {
		return nil, err
	}
	return q, nil
}

func (p *Parser) parseSolutionModifiers(q *Query) error {
	if p.IsKeyword("GROUP") {
		if err := p.Advance(); err != nil {
			return err
		}
		if err := p.ExpectKeyword("BY"); err != nil {
			return err
		}
		for p.tok.Kind == TokVar {
			q.GroupBy = append(q.GroupBy, p.tok.Val)
			if err := p.Advance(); err != nil {
				return err
			}
		}
		if len(q.GroupBy) == 0 {
			return p.Errorf("expected grouping variable after GROUP BY")
		}
	}
	if p.IsKeyword("HAVING") {
		if err := p.Advance(); err != nil {
			return err
		}
		for p.tok.Kind == TokLParen {
			if err := p.Advance(); err != nil {
				return err
			}
			for {
				cond, err := p.parseHavingCond()
				if err != nil {
					return err
				}
				q.Having = append(q.Having, cond)
				if p.tok.Kind == TokAndAnd {
					if err := p.Advance(); err != nil {
						return err
					}
					continue
				}
				break
			}
			if _, err := p.Expect(TokRParen); err != nil {
				return err
			}
		}
		if len(q.Having) == 0 {
			return p.Errorf("expected '(' constraint after HAVING")
		}
	}
	if p.IsKeyword("ORDER") {
		if err := p.Advance(); err != nil {
			return err
		}
		if err := p.ExpectKeyword("BY"); err != nil {
			return err
		}
		for {
			switch {
			case p.tok.Kind == TokVar:
				q.OrderBy = append(q.OrderBy, OrderKey{Var: p.tok.Val})
				if err := p.Advance(); err != nil {
					return err
				}
			case p.IsKeyword("ASC"), p.IsKeyword("DESC"):
				desc := p.tok.Val == "DESC"
				if err := p.Advance(); err != nil {
					return err
				}
				if _, err := p.Expect(TokLParen); err != nil {
					return err
				}
				v, err := p.Expect(TokVar)
				if err != nil {
					return err
				}
				if _, err := p.Expect(TokRParen); err != nil {
					return err
				}
				q.OrderBy = append(q.OrderBy, OrderKey{Var: v.Val, Desc: desc})
			default:
				if len(q.OrderBy) == 0 {
					return p.Errorf("expected sort key after ORDER BY")
				}
				goto done
			}
		}
	done:
	}
	for {
		switch {
		case p.IsKeyword("LIMIT"):
			if err := p.Advance(); err != nil {
				return err
			}
			n, err := p.expectNonNegInt()
			if err != nil {
				return err
			}
			q.Limit = n
		case p.IsKeyword("OFFSET"):
			if err := p.Advance(); err != nil {
				return err
			}
			n, err := p.expectNonNegInt()
			if err != nil {
				return err
			}
			q.Offset = n
		default:
			return nil
		}
	}
}

func (p *Parser) expectNonNegInt() (int, error) {
	t, err := p.Expect(TokInteger)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, c := range t.Val {
		if c < '0' || c > '9' {
			return 0, p.Errorf("expected non-negative integer, found %q", t.Val)
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}

// ParseGroupGraphPattern parses "{ ... }" into a GroupPattern.
func (p *Parser) ParseGroupGraphPattern() (*GroupPattern, error) {
	if _, err := p.Expect(TokLBrace); err != nil {
		return nil, err
	}
	g := &GroupPattern{}
	for {
		switch {
		case p.tok.Kind == TokRBrace:
			return g, p.Advance()
		case p.tok.Kind == TokEOF:
			return nil, p.Errorf("unterminated group graph pattern")
		case p.IsKeyword("FILTER"):
			if err := p.Advance(); err != nil {
				return nil, err
			}
			e, err := p.parseBrackettedOrCall()
			if err != nil {
				return nil, err
			}
			g.Filters = append(g.Filters, e)
		case p.IsKeyword("OPTIONAL"):
			if err := p.Advance(); err != nil {
				return nil, err
			}
			sub, err := p.ParseGroupGraphPattern()
			if err != nil {
				return nil, err
			}
			g.Optionals = append(g.Optionals, sub)
		case p.IsKeyword("GRAPH"):
			return nil, p.Errorf("GRAPH patterns are not supported")
		case p.tok.Kind == TokLBrace:
			// Nested group, possibly a UNION chain.
			first, err := p.ParseGroupGraphPattern()
			if err != nil {
				return nil, err
			}
			alts := []*GroupPattern{first}
			for p.IsKeyword("UNION") {
				if err := p.Advance(); err != nil {
					return nil, err
				}
				next, err := p.ParseGroupGraphPattern()
				if err != nil {
					return nil, err
				}
				alts = append(alts, next)
			}
			g.Unions = append(g.Unions, alts)
		case p.IsKeyword("UNION"):
			// UNION is only valid between braced groups; ParseTriplesBlock
			// treats it as a terminator, so reaching it here means it did
			// not follow a group.
			return nil, p.Errorf("UNION must follow a braced group pattern")
		case p.tok.Kind == TokDot:
			if err := p.Advance(); err != nil {
				return nil, err
			}
		default:
			tps, err := p.ParseTriplesBlock()
			if err != nil {
				return nil, err
			}
			if len(tps) == 0 {
				// ParseTriplesBlock made no progress; consuming nothing
				// here would loop forever.
				return nil, p.Errorf("expected a triple pattern, found %s %q", p.tok.Kind, p.tok.Val)
			}
			g.Triples = append(g.Triples, tps...)
		}
	}
}

// ParseTriplesBlock parses a sequence of triple patterns up to (not
// consuming) '}' or a non-triple construct. It handles ';' predicate
// lists, ',' object lists, and '.' separators.
func (p *Parser) ParseTriplesBlock() ([]TriplePattern, error) {
	var out []TriplePattern
	for {
		if p.tok.Kind == TokRBrace || p.tok.Kind == TokEOF ||
			p.IsKeyword("FILTER") || p.IsKeyword("OPTIONAL") || p.IsKeyword("UNION") || p.tok.Kind == TokLBrace {
			return out, nil
		}
		subj, err := p.parsePatternTerm(posSubject)
		if err != nil {
			return nil, err
		}
		for {
			pred, err := p.parsePatternTerm(posPredicate)
			if err != nil {
				return nil, err
			}
			for {
				obj, err := p.parsePatternTerm(posObject)
				if err != nil {
					return nil, err
				}
				out = append(out, TriplePattern{S: subj, P: pred, O: obj})
				if p.tok.Kind == TokComma {
					if err := p.Advance(); err != nil {
						return nil, err
					}
					continue
				}
				break
			}
			if p.tok.Kind == TokSemicolon {
				if err := p.Advance(); err != nil {
					return nil, err
				}
				// Allow trailing ';' before '.' or '}'.
				if p.tok.Kind == TokDot || p.tok.Kind == TokRBrace {
					break
				}
				continue
			}
			break
		}
		if p.tok.Kind == TokDot {
			if err := p.Advance(); err != nil {
				return nil, err
			}
			continue
		}
		return out, nil
	}
}

type termPos int

const (
	posSubject termPos = iota
	posPredicate
	posObject
)

func (p *Parser) parsePatternTerm(pos termPos) (PatternTerm, error) {
	switch p.tok.Kind {
	case TokVar:
		v := p.tok.Val
		return VarTerm(v), p.Advance()
	case TokIRIRef:
		iri := rdf.ResolveIRI(p.base, p.tok.Val)
		return ConstTerm(rdf.IRI(iri)), p.Advance()
	case TokPName:
		iri, err := p.Prefixes.Expand(p.tok.Val)
		if err != nil {
			return PatternTerm{}, p.Errorf("%v", err)
		}
		return ConstTerm(rdf.IRI(iri)), p.Advance()
	case TokA:
		if pos != posPredicate {
			return PatternTerm{}, p.Errorf("'a' is only valid in predicate position")
		}
		return ConstTerm(rdf.IRI(rdf.RDFType)), p.Advance()
	case TokBlankNode:
		if pos == posPredicate {
			return PatternTerm{}, p.Errorf("blank node cannot be a predicate")
		}
		return ConstTerm(rdf.Blank(p.tok.Val)), p.Advance()
	case TokAnon:
		if pos == posPredicate {
			return PatternTerm{}, p.Errorf("blank node cannot be a predicate")
		}
		p.bnodeSeq++
		return ConstTerm(rdf.Blank(fmt.Sprintf("genid%d", p.bnodeSeq))), p.Advance()
	case TokString:
		if pos != posObject {
			return PatternTerm{}, p.Errorf("literal is only valid in object position")
		}
		return p.parseLiteralTerm()
	case TokInteger, TokDecimal, TokDouble:
		if pos != posObject {
			return PatternTerm{}, p.Errorf("literal is only valid in object position")
		}
		dt := map[TokKind]string{TokInteger: rdf.XSDInteger, TokDecimal: rdf.XSDDecimal, TokDouble: rdf.XSDDouble}[p.tok.Kind]
		lit := rdf.TypedLiteral(p.tok.Val, dt)
		return ConstTerm(lit), p.Advance()
	case TokKeyword:
		if p.tok.Val == "TRUE" || p.tok.Val == "FALSE" {
			if pos != posObject {
				return PatternTerm{}, p.Errorf("literal is only valid in object position")
			}
			lit := rdf.BooleanLiteral(p.tok.Val == "TRUE")
			return ConstTerm(lit), p.Advance()
		}
		return PatternTerm{}, p.Errorf("unexpected keyword %q in triple pattern", p.tok.Val)
	default:
		return PatternTerm{}, p.Errorf("unexpected %s in triple pattern", p.tok.Kind)
	}
}

func (p *Parser) parseLiteralTerm() (PatternTerm, error) {
	lex := p.tok.Val
	if err := p.Advance(); err != nil {
		return PatternTerm{}, err
	}
	switch p.tok.Kind {
	case TokLangTag:
		lang := p.tok.Val
		return ConstTerm(rdf.LangLiteral(lex, lang)), p.Advance()
	case TokCaretCaret:
		if err := p.Advance(); err != nil {
			return PatternTerm{}, err
		}
		switch p.tok.Kind {
		case TokIRIRef:
			dt := rdf.ResolveIRI(p.base, p.tok.Val)
			return ConstTerm(rdf.TypedLiteral(lex, dt)), p.Advance()
		case TokPName:
			dt, err := p.Prefixes.Expand(p.tok.Val)
			if err != nil {
				return PatternTerm{}, p.Errorf("%v", err)
			}
			return ConstTerm(rdf.TypedLiteral(lex, dt)), p.Advance()
		default:
			return PatternTerm{}, p.Errorf("expected datatype after '^^'")
		}
	default:
		return ConstTerm(rdf.Literal(lex)), nil
	}
}

// ---- expressions ----

// parseBrackettedOrCall parses the constraint after FILTER: either a
// parenthesized expression or a built-in call.
func (p *Parser) parseBrackettedOrCall() (Expr, error) {
	if p.tok.Kind == TokLParen {
		return p.parsePrimary()
	}
	if p.tok.Kind == TokKeyword {
		return p.parsePrimary()
	}
	return nil, p.Errorf("expected '(' or built-in call after FILTER, found %s", p.tok.Kind)
}

// ParseExpr parses a full SPARQL expression (exported for tests and
// for the update package's potential future use).
func (p *Parser) ParseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TokOrOr {
		if err := p.Advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = ExprBinary{Op: OpOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TokAndAnd {
		if err := p.Advance(); err != nil {
			return nil, err
		}
		right, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		left = ExprBinary{Op: OpAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseRelational() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	ops := map[TokKind]BinOp{
		TokEq: OpEq, TokNe: OpNe, TokLt: OpLt, TokLe: OpLe, TokGt: OpGt, TokGe: OpGe,
	}
	if op, ok := ops[p.tok.Kind]; ok {
		if err := p.Advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return ExprBinary{Op: op, Left: left, Right: right}, nil
	}
	return left, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TokPlus || p.tok.Kind == TokMinus {
		op := OpAdd
		if p.tok.Kind == TokMinus {
			op = OpSub
		}
		if err := p.Advance(); err != nil {
			return nil, err
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = ExprBinary{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TokStar || p.tok.Kind == TokSlash {
		op := OpMul
		if p.tok.Kind == TokSlash {
			op = OpDiv
		}
		if err := p.Advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = ExprBinary{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	switch p.tok.Kind {
	case TokBang:
		if err := p.Advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return ExprNot{Inner: inner}, nil
	case TokMinus:
		if err := p.Advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return ExprNeg{Inner: inner}, nil
	case TokPlus:
		if err := p.Advance(); err != nil {
			return nil, err
		}
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch p.tok.Kind {
	case TokLParen:
		if err := p.Advance(); err != nil {
			return nil, err
		}
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.Expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokVar:
		v := p.tok.Val
		return ExprVar{Name: v}, p.Advance()
	case TokString:
		pt, err := p.parseLiteralTerm()
		if err != nil {
			return nil, err
		}
		return ExprConst{Term: pt.Term}, nil
	case TokInteger:
		t := rdf.TypedLiteral(p.tok.Val, rdf.XSDInteger)
		return ExprConst{Term: t}, p.Advance()
	case TokDecimal:
		t := rdf.TypedLiteral(p.tok.Val, rdf.XSDDecimal)
		return ExprConst{Term: t}, p.Advance()
	case TokDouble:
		t := rdf.TypedLiteral(p.tok.Val, rdf.XSDDouble)
		return ExprConst{Term: t}, p.Advance()
	case TokIRIRef:
		t := rdf.IRI(rdf.ResolveIRI(p.base, p.tok.Val))
		return ExprConst{Term: t}, p.Advance()
	case TokPName:
		iri, err := p.Prefixes.Expand(p.tok.Val)
		if err != nil {
			return nil, p.Errorf("%v", err)
		}
		return ExprConst{Term: rdf.IRI(iri)}, p.Advance()
	case TokKeyword:
		name := p.tok.Val
		if name == "TRUE" || name == "FALSE" {
			t := rdf.BooleanLiteral(name == "TRUE")
			return ExprConst{Term: t}, p.Advance()
		}
		arity := keywords[name]
		if arity[1] == 0 {
			return nil, p.Errorf("unexpected keyword %q in expression", name)
		}
		if err := p.Advance(); err != nil {
			return nil, err
		}
		if _, err := p.Expect(TokLParen); err != nil {
			return nil, err
		}
		var args []Expr
		if p.tok.Kind != TokRParen {
			for {
				a, err := p.ParseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.tok.Kind != TokComma {
					break
				}
				if err := p.Advance(); err != nil {
					return nil, err
				}
			}
		}
		if _, err := p.Expect(TokRParen); err != nil {
			return nil, err
		}
		if len(args) < arity[0] || len(args) > arity[1] {
			return nil, p.Errorf("%s expects %d..%d arguments, got %d", name, arity[0], arity[1], len(args))
		}
		return ExprCall{Name: name, Args: args}, nil
	default:
		return nil, p.Errorf("unexpected %s in expression", p.tok.Kind)
	}
}
