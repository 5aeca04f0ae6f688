// Package turtle implements a parser and serializer for the Terse RDF
// Triple Language (Turtle), the syntax the paper uses to express R3M
// mappings and RDF data.
//
// The supported subset covers everything the paper's listings use and
// more: @prefix and @base directives (plus SPARQL-style PREFIX/BASE),
// IRIs, prefixed names, blank node labels and anonymous blank nodes
// with property lists ([ ... ]), string literals with escapes and
// long (triple-quoted) forms, numeric and boolean shorthand literals,
// language tags, datatype annotations, the 'a' keyword, and
// predicate/object lists with ';' and ','. RDF collections "(...)"
// are intentionally not supported and produce a clear error; R3M does
// not use them.
package turtle

import (
	"fmt"
	"strings"

	"ontoaccess/internal/lex"
)

// tokenKind enumerates lexical token types.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIRIRef
	tokPName     // prefix:local or :local or prefix:
	tokBlankNode // _:label
	tokString    // lexical form already unescaped
	tokInteger   // tokInteger, tokDecimal and tokDouble follow lex.NumKind's order
	tokDecimal
	tokDouble
	tokLangTag // @en (value without '@')
	tokDot
	tokSemicolon
	tokComma
	tokLBracket
	tokRBracket
	tokLParen
	tokRParen
	tokCaretCaret
	tokA          // the keyword 'a'
	tokPrefixDecl // @prefix or PREFIX
	tokBaseDecl   // @base or BASE
	tokTrue
	tokFalse
	tokAnon // []
)

var tokNames = [...]string{
	tokEOF: "end of input", tokIRIRef: "IRI", tokPName: "prefixed name",
	tokBlankNode: "blank node", tokString: "string", tokInteger: "integer",
	tokDecimal: "decimal", tokDouble: "double", tokLangTag: "language tag",
	tokDot: "'.'", tokSemicolon: "';'", tokComma: "','",
	tokLBracket: "'['", tokRBracket: "']'", tokLParen: "'('", tokRParen: "')'",
	tokCaretCaret: "'^^'", tokA: "'a'", tokPrefixDecl: "@prefix",
	tokBaseDecl: "@base", tokTrue: "'true'", tokFalse: "'false'", tokAnon: "'[]'",
}

func (k tokenKind) String() string {
	if k >= 0 && int(k) < len(tokNames) {
		return tokNames[k]
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// token is one lexical token with source position for error messages.
type token struct {
	kind tokenKind
	val  string
	line int
	col  int
	at   bool // a directive written in its '@' form, which a '.' must end
}

var (
	// keywords are the SPARQL-style directives, matched in any case;
	// words are the bare words Turtle matches exactly.
	keywords = lex.Keywords[tokenKind]{"PREFIX": tokPrefixDecl, "BASE": tokBaseDecl}
	words    = map[string]tokenKind{"a": tokA, "true": tokTrue, "false": tokFalse}

	punct = [256]tokenKind{
		'.': tokDot, ';': tokSemicolon, ',': tokComma, ']': tokRBracket,
		'(': tokLParen, ')': tokRParen,
	}
)

// lexer scans Turtle input into tokens.
type lexer struct{ lex.Scanner }

func newLexer(src string) *lexer {
	return &lexer{lex.New("turtle", src)}
}

// next returns the next token.
func (lx *lexer) next() (token, error) {
	lx.SkipSpace("#")
	t := token{line: lx.Line(), col: lx.Col()}
	if lx.EOF() {
		return t, nil
	}
	var err error
	switch c := lx.Peek(); {
	case c == '<':
		t.kind = tokIRIRef
		t.val, err = lx.IRIRef()
	case c == '"' || c == '\'':
		t.kind = tokString
		t.val, err = lx.RDFString()
	case c == '_' && lx.PeekAt(1) == ':':
		lx.Skip(2)
		t.kind, t.val = tokBlankNode, lx.Span(lex.IsNameChar)
		if t.val == "" {
			return t, lx.Errorf("empty blank node label")
		}
	case c == '@':
		lx.Advance()
		switch word := lx.Span(lex.IsLangChar); word {
		case "prefix":
			t.kind, t.at = tokPrefixDecl, true
		case "base":
			t.kind, t.at = tokBaseDecl, true
		case "":
			return t, lx.Errorf("empty @ keyword")
		default:
			t.kind, t.val = tokLangTag, word
		}
	case c == '[':
		// ANON "[]" may hold whitespace and comments.
		lx.Advance()
		save := lx.Scanner
		lx.SkipSpace("#")
		if lx.Peek() == ']' {
			lx.Advance()
			t.kind = tokAnon
			break
		}
		lx.Scanner = save
		t.kind = tokLBracket
	case c == '^':
		if lx.PeekAt(1) != '^' {
			return t, lx.Errorf("expected '^^', found single '^'")
		}
		lx.Skip(2)
		t.kind = tokCaretCaret
	case c == '+' || c == '-' || lex.IsDigit(rune(c)) || c == '.' && lex.IsDigit(rune(lx.PeekAt(1))):
		kind, text, ok := lx.Number()
		switch {
		case !ok && kind == lex.Double:
			return t, lx.Errorf("malformed double literal %q", text)
		case !ok:
			return t, lx.Errorf("malformed numeric literal %q", text)
		}
		t.kind, t.val = tokInteger+tokenKind(kind), text
	case punct[c] != tokEOF:
		lx.Advance()
		t.kind = punct[c]
	default:
		return lx.word(t)
	}
	return t, err
}

// word scans a prefixed name or one of the bare words a / true / false
// / PREFIX / BASE.
func (lx *lexer) word(t token) (token, error) {
	// '%' keeps percent-encoded characters of local names verbatim;
	// they also appear inside R3M URI patterns.
	word := lx.Name(":%")
	if word == "" {
		return t, lx.Errorf("unexpected character %q", lx.PeekRune(0))
	}
	if strings.Contains(word, ":") {
		t.kind, t.val = tokPName, word
		return t, nil
	}
	if k, ok := words[word]; ok {
		t.kind = k
		return t, nil
	}
	if _, k, ok := keywords.Lookup(word); ok {
		t.kind = k
		return t, nil
	}
	return t, lx.Errorf("bare word %q is not valid Turtle (missing prefix?)", word)
}
