// Package sparql implements a SPARQL 1.0 query engine: tokenizer,
// abstract syntax, parser, expression evaluation, and a solution-
// sequence evaluator that runs over any triple Matcher.
//
// The supported subset is the one the paper relies on (and a bit
// more): SELECT / ASK / CONSTRUCT forms, basic graph patterns,
// FILTER with the SPARQL operator set and the common built-ins,
// OPTIONAL, UNION, DISTINCT, ORDER BY, LIMIT and OFFSET.
//
// The tokenizer is shared with package update, which parses the
// SPARQL/Update member submission (INSERT DATA, DELETE DATA, MODIFY)
// on top of it — exactly as the paper notes that "the reuse of the
// SPARQL grammar in SPARQL/Update makes a translation in multiple
// steps possible" (Section 5.2).
package sparql

import (
	"fmt"
	"strings"

	"ontoaccess/internal/lex"
)

// TokKind enumerates SPARQL token kinds.
type TokKind int

// Token kinds. Keywords are scanned as TokKeyword with the canonical
// upper-case spelling in Val.
const (
	TokEOF TokKind = iota
	TokVar         // ?x or $x (Val holds the name without sigil)
	TokIRIRef
	TokPName
	TokBlankNode
	TokString
	TokInteger // TokInteger, TokDecimal and TokDouble follow lex.NumKind's order
	TokDecimal
	TokDouble
	TokLangTag
	TokKeyword // SELECT, WHERE, FILTER, INSERT, DATA, ...
	TokA       // lower-case 'a' used as rdf:type in patterns
	TokLBrace
	TokRBrace
	TokLParen
	TokRParen
	TokDot
	TokSemicolon
	TokComma
	TokStar
	TokCaretCaret
	TokEq     // =
	TokNe     // !=
	TokLt     // <
	TokLe     // <=
	TokGt     // >
	TokGe     // >=
	TokAndAnd // &&
	TokOrOr   // ||
	TokBang   // !
	TokPlus
	TokMinus
	TokSlash
	TokAnon // []
)

var tokNames = [...]string{
	TokEOF: "end of input", TokVar: "variable", TokIRIRef: "IRI",
	TokPName: "prefixed name", TokBlankNode: "blank node", TokString: "string",
	TokInteger: "integer", TokDecimal: "decimal", TokDouble: "double",
	TokLangTag: "language tag", TokKeyword: "keyword", TokA: "'a'",
	TokLBrace: "'{'", TokRBrace: "'}'", TokLParen: "'('", TokRParen: "')'",
	TokDot: "'.'", TokSemicolon: "';'", TokComma: "','", TokStar: "'*'",
	TokCaretCaret: "'^^'", TokEq: "'='", TokNe: "'!='", TokLt: "'<'",
	TokLe: "'<='", TokGt: "'>'", TokGe: "'>='", TokAndAnd: "'&&'",
	TokOrOr: "'||'", TokBang: "'!'", TokPlus: "'+'", TokMinus: "'-'",
	TokSlash: "'/'", TokAnon: "'[]'",
}

func (k TokKind) String() string {
	if k >= 0 && int(k) < len(tokNames) {
		return tokNames[k]
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// Token is one lexical token with its source position.
type Token struct {
	Kind TokKind
	Val  string
	Line int
	Col  int
}

// arity is a built-in function's argument count range [min, max]; it is
// zero for every other keyword.
type arity [2]int

// keywords is the keyword table of the shared SPARQL / SPARQL-Update
// grammar. Built-in functions carry their arity, so the parser's set of
// built-ins is this table's.
var keywords = lex.Keywords[arity]{
	"SELECT": {}, "ASK": {}, "CONSTRUCT": {}, "DESCRIBE": {},
	"WHERE": {}, "FILTER": {}, "OPTIONAL": {}, "UNION": {},
	"PREFIX": {}, "BASE": {}, "DISTINCT": {}, "REDUCED": {},
	"ORDER": {}, "BY": {}, "ASC": {}, "DESC": {},
	"LIMIT": {}, "OFFSET": {}, "FROM": {}, "NAMED": {}, "GRAPH": {},
	// Aggregation (SPARQL 1.1 subset):
	"GROUP": {}, "HAVING": {}, "AS": {}, "COUNT": {}, "SUM": {},
	"AVG": {}, "MIN": {}, "MAX": {},
	// SPARQL/Update member submission:
	"MODIFY": {}, "INSERT": {}, "DELETE": {}, "DATA": {},
	"INTO": {}, "LOAD": {}, "CLEAR": {}, "CREATE": {}, "DROP": {},
	// Built-in functions used in FILTER:
	"BOUND": {1, 1}, "STR": {1, 1}, "LANG": {1, 1}, "DATATYPE": {1, 1},
	"ISIRI": {1, 1}, "ISURI": {1, 1}, "ISLITERAL": {1, 1}, "ISBLANK": {1, 1},
	"SAMETERM": {2, 2}, "LANGMATCHES": {2, 2}, "REGEX": {2, 3},
	"TRUE": {}, "FALSE": {},
}

// punct maps the one-byte punctuation tokens; doubled maps the bytes
// that only occur twice in a row.
var (
	punct = [256]TokKind{
		'{': TokLBrace, '}': TokRBrace, '(': TokLParen, ')': TokRParen,
		'.': TokDot, ';': TokSemicolon, ',': TokComma, '*': TokStar,
		'=': TokEq, '+': TokPlus, '-': TokMinus, '/': TokSlash,
	}
	doubled = [256]TokKind{'^': TokCaretCaret, '&': TokAndAnd, '|': TokOrOr}
)

// Lexer scans SPARQL/SPARQL-Update source into tokens.
type Lexer struct{ lex.Scanner }

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{lex.New("sparql", src)}
}

// Next scans the next token.
func (lx *Lexer) Next() (Token, error) {
	lx.SkipSpace("#")
	t := Token{Line: lx.Line(), Col: lx.Col()}
	if lx.EOF() {
		return t, nil
	}
	var err error
	switch c := lx.Peek(); {
	case c == '?' || c == '$':
		lx.Advance()
		t.Kind, t.Val = TokVar, lx.Span(lex.IsVarChar)
		if t.Val == "" {
			return t, lx.Errorf("empty variable name after %q", c)
		}
	case c == '<':
		return lx.ltOrIRI(t)
	case c == '"' || c == '\'':
		t.Kind = TokString
		t.Val, err = lx.RDFString()
	case c == '_' && lx.PeekAt(1) == ':':
		lx.Skip(2)
		t.Kind, t.Val = TokBlankNode, lx.Span(lex.IsNameChar)
		if t.Val == "" {
			return t, lx.Errorf("empty blank node label")
		}
	case c == '@':
		lx.Advance()
		t.Kind, t.Val = TokLangTag, lx.Span(lex.IsLangChar)
		if t.Val == "" {
			return t, lx.Errorf("empty language tag")
		}
	case c == '[':
		lx.Advance()
		lx.SkipSpace("#")
		if lx.Peek() != ']' {
			return t, lx.Errorf("blank node property lists '[...]' are not supported in this SPARQL subset")
		}
		lx.Advance()
		t.Kind = TokAnon
	case c == '!':
		t.Kind = lx.orEq(TokBang, TokNe)
	case c == '>':
		t.Kind = lx.orEq(TokGt, TokGe)
	case doubled[c] != TokEOF:
		if lx.PeekAt(1) != c {
			return t, lx.Errorf("expected '%c%c'", c, c)
		}
		lx.Skip(2)
		t.Kind = doubled[c]
	case lex.IsDigit(rune(c)) || strings.IndexByte(".+-", c) >= 0 && lex.IsDigit(rune(lx.PeekAt(1))):
		kind, text, ok := lx.Number()
		if !ok {
			return t, lx.Errorf("malformed double")
		}
		t.Kind, t.Val = TokInteger+TokKind(kind), text
	case punct[c] != TokEOF:
		lx.Advance()
		t.Kind = punct[c]
	default:
		return lx.word(t)
	}
	return t, err
}

// orEq consumes a one-byte operator and an optional '=' after it.
func (lx *Lexer) orEq(one, withEq TokKind) TokKind {
	lx.Advance()
	if lx.Peek() != '=' {
		return one
	}
	lx.Advance()
	return withEq
}

// ltOrIRI disambiguates '<' (less-than / less-equal) from '<iri>'.
// If a '>' appears before any whitespace, quote or brace, the token is
// an IRI reference; otherwise it is a comparison operator.
func (lx *Lexer) ltOrIRI(t Token) (Token, error) {
	if i := strings.IndexAny(lx.Rest()[1:], "> \t\n\r\"'{}"); i >= 0 && lx.PeekAt(1+i) == '>' {
		iri, err := lx.IRIRef()
		t.Kind, t.Val = TokIRIRef, iri
		return t, err
	}
	t.Kind = lx.orEq(TokLt, TokLe)
	return t, nil
}

// word scans a prefixed name, the keyword 'a' or another keyword.
func (lx *Lexer) word(t Token) (Token, error) {
	word := lx.Name(":")
	switch {
	case word == "":
		return t, lx.Errorf("unexpected character %q", lx.PeekRune(0))
	case strings.Contains(word, ":"):
		t.Kind, t.Val = TokPName, word
	case word == "a":
		t.Kind = TokA
	default:
		up, _, ok := keywords.Lookup(word)
		if !ok {
			return t, lx.Errorf("unexpected bare word %q", word)
		}
		t.Kind, t.Val = TokKeyword, up
	}
	return t, nil
}
