package turtle

import (
	"fmt"
	"strings"

	"ontoaccess/internal/lex"
	"ontoaccess/internal/rdf"
)

// Parser parses Turtle documents into RDF graphs.
type Parser struct {
	lx       *lexer
	tok      token
	prefixes *rdf.PrefixMap
	base     string
	graph    *rdf.Graph
	bnodeSeq int
}

// Parse parses a complete Turtle document and returns the resulting
// graph together with the prefix map accumulated from its @prefix
// directives (useful for re-serialization with the same prefixes).
func Parse(src string) (*rdf.Graph, *rdf.PrefixMap, error) {
	p := &Parser{
		lx:       newLexer(src),
		prefixes: rdf.NewPrefixMap(),
		graph:    rdf.NewGraph(),
	}
	if err := p.advance(); err != nil {
		return nil, nil, err
	}
	for p.tok.kind != tokEOF {
		if err := p.parseStatement(); err != nil {
			return nil, nil, err
		}
	}
	return p.graph, p.prefixes, nil
}

// MustParse is Parse for trusted, test-internal documents; it panics
// on error.
func MustParse(src string) *rdf.Graph {
	g, _, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return g
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
	return lex.Errorf("turtle", p.tok.line, p.tok.col, format, args...)
}

func (p *Parser) expect(kind tokenKind) (token, error) {
	if p.tok.kind != kind {
		return token{}, p.errorf("expected %s, found %s", kind, p.tok.kind)
	}
	t := p.tok
	err := p.advance()
	return t, err
}

func (p *Parser) parseStatement() error {
	switch p.tok.kind {
	case tokPrefixDecl:
		return p.parsePrefixDecl()
	case tokBaseDecl:
		return p.parseBaseDecl()
	default:
		return p.parseTriples()
	}
}

func (p *Parser) parsePrefixDecl() error {
	atForm := p.tok.at
	if err := p.advance(); err != nil {
		return err
	}
	pn, err := p.expect(tokPName)
	if err != nil {
		return err
	}
	prefix, ok := strings.CutSuffix(pn.val, ":")
	if !ok || strings.Contains(prefix, ":") {
		return p.errorf("prefix declaration must be a prefix name ending in ':', got %q", pn.val)
	}
	iri, err := p.expect(tokIRIRef)
	if err != nil {
		return err
	}
	p.prefixes.Set(prefix, rdf.ResolveIRI(p.base, iri.val))
	// '@prefix' requires a terminating dot; SPARQL-style PREFIX does not.
	if p.tok.kind == tokDot {
		return p.advance()
	}
	if atForm {
		return p.errorf("@prefix directive must be terminated by '.'")
	}
	return nil
}

func (p *Parser) parseBaseDecl() error {
	atForm := p.tok.at
	if err := p.advance(); err != nil {
		return err
	}
	iri, err := p.expect(tokIRIRef)
	if err != nil {
		return err
	}
	p.base = rdf.ResolveIRI(p.base, iri.val)
	if p.tok.kind == tokDot {
		return p.advance()
	}
	if atForm {
		return p.errorf("@base directive must be terminated by '.'")
	}
	return nil
}

func (p *Parser) parseTriples() error {
	var subj rdf.Term
	var err error
	switch p.tok.kind {
	case tokLBracket:
		// Blank node property list as subject.
		subj, err = p.parseBlankNodePropertyList()
		if err != nil {
			return err
		}
		// predicateObjectList is optional after a [...] subject.
		if p.tok.kind == tokDot {
			return p.advance()
		}
	default:
		subj, err = p.parseSubject()
		if err != nil {
			return err
		}
	}
	if err := p.parsePredicateObjectList(subj); err != nil {
		return err
	}
	_, err = p.expect(tokDot)
	return err
}

func (p *Parser) parseSubject() (rdf.Term, error) {
	switch p.tok.kind {
	case tokIRIRef:
		iri := rdf.ResolveIRI(p.base, p.tok.val)
		return rdf.IRI(iri), p.advance()
	case tokPName:
		iri, err := p.prefixes.Expand(p.tok.val)
		if err != nil {
			return rdf.Term{}, p.errorf("%v", err)
		}
		return rdf.IRI(iri), p.advance()
	case tokBlankNode:
		t := rdf.Blank(p.tok.val)
		return t, p.advance()
	case tokAnon:
		t := p.freshBlank()
		return t, p.advance()
	case tokLParen:
		return rdf.Term{}, p.errorf("RDF collections '(...)' are not supported")
	default:
		return rdf.Term{}, p.errorf("expected subject, found %s", p.tok.kind)
	}
}

func (p *Parser) parsePredicateObjectList(subj rdf.Term) error {
	for {
		pred, err := p.parsePredicate()
		if err != nil {
			return err
		}
		if err := p.parseObjectList(subj, pred); err != nil {
			return err
		}
		if p.tok.kind != tokSemicolon {
			return nil
		}
		// Consume one or more semicolons; a trailing ';' before '.' or
		// ']' is permitted by the grammar.
		for p.tok.kind == tokSemicolon {
			if err := p.advance(); err != nil {
				return err
			}
		}
		if p.tok.kind == tokDot || p.tok.kind == tokRBracket || p.tok.kind == tokEOF {
			return nil
		}
	}
}

func (p *Parser) parsePredicate() (rdf.Term, error) {
	switch p.tok.kind {
	case tokA:
		return rdf.IRI(rdf.RDFType), p.advance()
	case tokIRIRef:
		iri := rdf.ResolveIRI(p.base, p.tok.val)
		return rdf.IRI(iri), p.advance()
	case tokPName:
		iri, err := p.prefixes.Expand(p.tok.val)
		if err != nil {
			return rdf.Term{}, p.errorf("%v", err)
		}
		return rdf.IRI(iri), p.advance()
	default:
		return rdf.Term{}, p.errorf("expected predicate, found %s", p.tok.kind)
	}
}

func (p *Parser) parseObjectList(subj, pred rdf.Term) error {
	for {
		obj, err := p.parseObject()
		if err != nil {
			return err
		}
		p.graph.Add(rdf.NewTriple(subj, pred, obj))
		if p.tok.kind != tokComma {
			return nil
		}
		if err := p.advance(); err != nil {
			return err
		}
	}
}

func (p *Parser) parseObject() (rdf.Term, error) {
	switch p.tok.kind {
	case tokIRIRef:
		iri := rdf.ResolveIRI(p.base, p.tok.val)
		return rdf.IRI(iri), p.advance()
	case tokPName:
		iri, err := p.prefixes.Expand(p.tok.val)
		if err != nil {
			return rdf.Term{}, p.errorf("%v", err)
		}
		return rdf.IRI(iri), p.advance()
	case tokBlankNode:
		t := rdf.Blank(p.tok.val)
		return t, p.advance()
	case tokAnon:
		t := p.freshBlank()
		return t, p.advance()
	case tokLBracket:
		return p.parseBlankNodePropertyList()
	case tokString:
		return p.parseLiteral()
	case tokInteger:
		t := rdf.TypedLiteral(p.tok.val, rdf.XSDInteger)
		return t, p.advance()
	case tokDecimal:
		t := rdf.TypedLiteral(p.tok.val, rdf.XSDDecimal)
		return t, p.advance()
	case tokDouble:
		t := rdf.TypedLiteral(p.tok.val, rdf.XSDDouble)
		return t, p.advance()
	case tokTrue:
		return rdf.BooleanLiteral(true), p.advance()
	case tokFalse:
		return rdf.BooleanLiteral(false), p.advance()
	case tokLParen:
		return rdf.Term{}, p.errorf("RDF collections '(...)' are not supported")
	default:
		return rdf.Term{}, p.errorf("expected object, found %s", p.tok.kind)
	}
}

// parseLiteral parses a string literal with optional language tag or
// datatype annotation. The current token is the string.
func (p *Parser) parseLiteral() (rdf.Term, error) {
	lex := p.tok.val
	if err := p.advance(); err != nil {
		return rdf.Term{}, err
	}
	switch p.tok.kind {
	case tokLangTag:
		lang := p.tok.val
		return rdf.LangLiteral(lex, lang), p.advance()
	case tokCaretCaret:
		if err := p.advance(); err != nil {
			return rdf.Term{}, err
		}
		switch p.tok.kind {
		case tokIRIRef:
			dt := rdf.ResolveIRI(p.base, p.tok.val)
			return rdf.TypedLiteral(lex, dt), p.advance()
		case tokPName:
			dt, err := p.prefixes.Expand(p.tok.val)
			if err != nil {
				return rdf.Term{}, p.errorf("%v", err)
			}
			return rdf.TypedLiteral(lex, dt), p.advance()
		default:
			return rdf.Term{}, p.errorf("expected datatype IRI after '^^', found %s", p.tok.kind)
		}
	default:
		return rdf.Literal(lex), nil
	}
}

// parseBlankNodePropertyList parses "[ predicateObjectList ]" and
// returns the fresh blank node standing for it. The current token is
// '['.
func (p *Parser) parseBlankNodePropertyList() (rdf.Term, error) {
	if _, err := p.expect(tokLBracket); err != nil {
		return rdf.Term{}, err
	}
	node := p.freshBlank()
	if err := p.parsePredicateObjectList(node); err != nil {
		return rdf.Term{}, err
	}
	if _, err := p.expect(tokRBracket); err != nil {
		return rdf.Term{}, err
	}
	return node, nil
}

func (p *Parser) freshBlank() rdf.Term {
	p.bnodeSeq++
	return rdf.Blank(fmt.Sprintf("genid%d", p.bnodeSeq))
}
