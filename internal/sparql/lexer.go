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
	"unicode"
	"unicode/utf8"
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
	TokInteger
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

func (k TokKind) String() string {
	names := map[TokKind]string{
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
	if n, ok := names[k]; ok {
		return n
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

// keywords recognized by the shared SPARQL / SPARQL-Update grammar.
var keywords = map[string]bool{
	"SELECT": true, "ASK": true, "CONSTRUCT": true, "DESCRIBE": true,
	"WHERE": true, "FILTER": true, "OPTIONAL": true, "UNION": true,
	"PREFIX": true, "BASE": true, "DISTINCT": true, "REDUCED": true,
	"ORDER": true, "BY": true, "ASC": true, "DESC": true,
	"LIMIT": true, "OFFSET": true, "FROM": true, "NAMED": true, "GRAPH": true,
	// Aggregation (SPARQL 1.1 subset):
	"GROUP": true, "HAVING": true, "AS": true, "COUNT": true, "SUM": true,
	"AVG": true, "MIN": true, "MAX": true,
	// SPARQL/Update member submission:
	"MODIFY": true, "INSERT": true, "DELETE": true, "DATA": true,
	"INTO": true, "LOAD": true, "CLEAR": true, "CREATE": true, "DROP": true,
	// Built-in functions used in FILTER:
	"BOUND": true, "REGEX": true, "STR": true, "LANG": true, "DATATYPE": true,
	"ISIRI": true, "ISURI": true, "ISLITERAL": true, "ISBLANK": true,
	"LANGMATCHES": true, "SAMETERM": true, "TRUE": true, "FALSE": true,
}

// Lexer scans SPARQL/SPARQL-Update source into tokens.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (lx *Lexer) errorf(format string, args ...any) error {
	return fmt.Errorf("sparql: line %d col %d: %s", lx.line, lx.col, fmt.Sprintf(format, args...))
}

func (lx *Lexer) peek() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peekAt(off int) byte {
	if lx.pos+off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+off]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) skipSpace() {
	for lx.pos < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '#':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		default:
			return
		}
	}
}

// Next scans the next token.
func (lx *Lexer) Next() (Token, error) {
	lx.skipSpace()
	t := Token{Line: lx.line, Col: lx.col}
	if lx.pos >= len(lx.src) {
		t.Kind = TokEOF
		return t, nil
	}
	c := lx.peek()
	switch {
	case c == '?' || c == '$':
		lx.advance()
		var b strings.Builder
		for lx.pos < len(lx.src) && isVarChar(rune(lx.peek())) {
			b.WriteByte(lx.advance())
		}
		if b.Len() == 0 {
			return t, lx.errorf("empty variable name after %q", c)
		}
		t.Kind = TokVar
		t.Val = b.String()
		return t, nil
	case c == '<':
		return lx.lexLtOrIRI(t)
	case c == '"' || c == '\'':
		return lx.lexString(t)
	case c == '_' && lx.peekAt(1) == ':':
		lx.advance()
		lx.advance()
		var b strings.Builder
		for lx.pos < len(lx.src) && isNameChar(rune(lx.peek())) {
			b.WriteByte(lx.advance())
		}
		if b.Len() == 0 {
			return t, lx.errorf("empty blank node label")
		}
		t.Kind = TokBlankNode
		t.Val = b.String()
		return t, nil
	case c == '@':
		lx.advance()
		var b strings.Builder
		for lx.pos < len(lx.src) {
			ch := lx.peek()
			if ch >= 'a' && ch <= 'z' || ch >= 'A' && ch <= 'Z' || ch == '-' || ch >= '0' && ch <= '9' {
				b.WriteByte(lx.advance())
			} else {
				break
			}
		}
		if b.Len() == 0 {
			return t, lx.errorf("empty language tag")
		}
		t.Kind = TokLangTag
		t.Val = b.String()
		return t, nil
	case c == '{':
		lx.advance()
		t.Kind = TokLBrace
		return t, nil
	case c == '}':
		lx.advance()
		t.Kind = TokRBrace
		return t, nil
	case c == '(':
		lx.advance()
		t.Kind = TokLParen
		return t, nil
	case c == ')':
		lx.advance()
		t.Kind = TokRParen
		return t, nil
	case c == '.':
		if isDigitB(lx.peekAt(1)) {
			return lx.lexNumber(t)
		}
		lx.advance()
		t.Kind = TokDot
		return t, nil
	case c == ';':
		lx.advance()
		t.Kind = TokSemicolon
		return t, nil
	case c == ',':
		lx.advance()
		t.Kind = TokComma
		return t, nil
	case c == '*':
		lx.advance()
		t.Kind = TokStar
		return t, nil
	case c == '^':
		if lx.peekAt(1) != '^' {
			return t, lx.errorf("expected '^^'")
		}
		lx.advance()
		lx.advance()
		t.Kind = TokCaretCaret
		return t, nil
	case c == '=':
		lx.advance()
		t.Kind = TokEq
		return t, nil
	case c == '!':
		lx.advance()
		if lx.peek() == '=' {
			lx.advance()
			t.Kind = TokNe
		} else {
			t.Kind = TokBang
		}
		return t, nil
	case c == '>':
		lx.advance()
		if lx.peek() == '=' {
			lx.advance()
			t.Kind = TokGe
		} else {
			t.Kind = TokGt
		}
		return t, nil
	case c == '&':
		if lx.peekAt(1) != '&' {
			return t, lx.errorf("expected '&&'")
		}
		lx.advance()
		lx.advance()
		t.Kind = TokAndAnd
		return t, nil
	case c == '|':
		if lx.peekAt(1) != '|' {
			return t, lx.errorf("expected '||'")
		}
		lx.advance()
		lx.advance()
		t.Kind = TokOrOr
		return t, nil
	case c == '+':
		if isDigitB(lx.peekAt(1)) {
			return lx.lexNumber(t)
		}
		lx.advance()
		t.Kind = TokPlus
		return t, nil
	case c == '-':
		if isDigitB(lx.peekAt(1)) {
			return lx.lexNumber(t)
		}
		lx.advance()
		t.Kind = TokMinus
		return t, nil
	case c == '/':
		lx.advance()
		t.Kind = TokSlash
		return t, nil
	case c == '[':
		lx.advance()
		lx.skipSpace()
		if lx.peek() == ']' {
			lx.advance()
			t.Kind = TokAnon
			return t, nil
		}
		return t, lx.errorf("blank node property lists '[...]' are not supported in this SPARQL subset")
	case isDigitB(c):
		return lx.lexNumber(t)
	default:
		return lx.lexNameOrKeyword(t)
	}
}

// lexLtOrIRI disambiguates '<' (less-than / less-equal) from '<iri>'.
// If a '>' appears before any whitespace or quote, the token is an
// IRI reference; otherwise it is a comparison operator.
func (lx *Lexer) lexLtOrIRI(t Token) (Token, error) {
	for i := 1; lx.pos+i < len(lx.src); i++ {
		c := lx.src[lx.pos+i]
		switch c {
		case '>':
			// It is an IRI reference.
			lx.advance() // '<'
			var b strings.Builder
			for lx.peek() != '>' {
				b.WriteByte(lx.advance())
			}
			lx.advance() // '>'
			t.Kind = TokIRIRef
			t.Val = b.String()
			return t, nil
		case ' ', '\t', '\n', '\r', '"', '\'', '{', '}':
			goto operator
		}
	}
operator:
	lx.advance()
	if lx.peek() == '=' {
		lx.advance()
		t.Kind = TokLe
	} else {
		t.Kind = TokLt
	}
	return t, nil
}

func (lx *Lexer) lexString(t Token) (Token, error) {
	quote := lx.advance()
	long := false
	if lx.peek() == quote && lx.peekAt(1) == quote {
		lx.advance()
		lx.advance()
		long = true
	}
	var b strings.Builder
	for {
		if lx.pos >= len(lx.src) {
			return t, lx.errorf("unterminated string")
		}
		c := lx.advance()
		if c == quote {
			if !long {
				break
			}
			if lx.peek() == quote && lx.peekAt(1) == quote {
				lx.advance()
				lx.advance()
				break
			}
			b.WriteByte(c)
			continue
		}
		if !long && (c == '\n' || c == '\r') {
			return t, lx.errorf("newline in string literal")
		}
		if c == '\\' {
			if lx.pos >= len(lx.src) {
				return t, lx.errorf("unterminated escape")
			}
			switch esc := lx.advance(); esc {
			case 't':
				b.WriteByte('\t')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 'b':
				b.WriteByte('\b')
			case 'f':
				b.WriteByte('\f')
			case '"', '\'', '\\':
				b.WriteByte(esc)
			case 'u', 'U':
				n := 4
				if esc == 'U' {
					n = 8
				}
				var v rune
				for i := 0; i < n; i++ {
					if lx.pos >= len(lx.src) {
						return t, lx.errorf("unterminated unicode escape")
					}
					h := lx.advance()
					var d rune
					switch {
					case h >= '0' && h <= '9':
						d = rune(h - '0')
					case h >= 'a' && h <= 'f':
						d = rune(h-'a') + 10
					case h >= 'A' && h <= 'F':
						d = rune(h-'A') + 10
					default:
						return t, lx.errorf("invalid hex digit %q", h)
					}
					v = v*16 + d
				}
				if !utf8.ValidRune(v) {
					return t, lx.errorf("escape \\%c denotes invalid code point %#x", esc, v)
				}
				b.WriteRune(v)
			default:
				return t, lx.errorf("invalid escape '\\%c'", esc)
			}
			continue
		}
		b.WriteByte(c)
	}
	t.Kind = TokString
	t.Val = b.String()
	return t, nil
}

func (lx *Lexer) lexNumber(t Token) (Token, error) {
	var b strings.Builder
	if c := lx.peek(); c == '+' || c == '-' {
		b.WriteByte(lx.advance())
	}
	for isDigitB(lx.peek()) {
		b.WriteByte(lx.advance())
	}
	kind := TokInteger
	if lx.peek() == '.' && isDigitB(lx.peekAt(1)) {
		kind = TokDecimal
		b.WriteByte(lx.advance())
		for isDigitB(lx.peek()) {
			b.WriteByte(lx.advance())
		}
	}
	if c := lx.peek(); c == 'e' || c == 'E' {
		kind = TokDouble
		b.WriteByte(lx.advance())
		if c := lx.peek(); c == '+' || c == '-' {
			b.WriteByte(lx.advance())
		}
		if !isDigitB(lx.peek()) {
			return t, lx.errorf("malformed double")
		}
		for isDigitB(lx.peek()) {
			b.WriteByte(lx.advance())
		}
	}
	t.Kind = kind
	t.Val = b.String()
	return t, nil
}

func (lx *Lexer) lexNameOrKeyword(t Token) (Token, error) {
	var b strings.Builder
	sawColon := false
	for lx.pos < len(lx.src) {
		c := lx.peek()
		if c == ':' {
			sawColon = true
			b.WriteByte(lx.advance())
			continue
		}
		if isNameChar(rune(c)) || c == '.' && isNameChar(rune(lx.peekAt(1))) {
			b.WriteByte(lx.advance())
			continue
		}
		break
	}
	word := b.String()
	if word == "" {
		return t, lx.errorf("unexpected character %q", lx.peek())
	}
	if sawColon {
		t.Kind = TokPName
		t.Val = word
		return t, nil
	}
	if word == "a" {
		t.Kind = TokA
		return t, nil
	}
	up := strings.ToUpper(word)
	if keywords[up] {
		t.Kind = TokKeyword
		t.Val = up
		return t, nil
	}
	return t, lx.errorf("unexpected bare word %q", word)
}

func isDigitB(c byte) bool { return c >= '0' && c <= '9' }

func isVarChar(r rune) bool {
	return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' ||
		r > 127 && (unicode.IsLetter(r) || unicode.IsDigit(r))
}

func isNameChar(r rune) bool {
	return isVarChar(r) || r == '-'
}
