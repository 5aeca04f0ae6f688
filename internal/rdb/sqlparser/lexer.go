// Package sqlparser implements a lexer, AST and recursive-descent
// parser for the SQL subset OntoAccess generates and the tooling
// needs: CREATE TABLE / DROP TABLE DDL, INSERT / UPDATE / DELETE DML,
// and SELECT with inner and left joins, WHERE, GROUP BY, HAVING,
// ORDER BY, LIMIT and OFFSET.
//
// The Select AST is the one representation of a SELECT: the mediator's
// translator builds it directly (parameter slots as Param leaves),
// sqlexec runs it, and Format is the one SELECT printer, producing the
// SQL text the mediator reports; ParseStatement(Format(s, nil))
// rebuilds every statement s the parser returns.
//
// The AST reuses the engine's value and schema types from package
// rdb; execution lives in the sibling package sqlexec.
package sqlparser

import (
	"fmt"
	"strings"

	"ontoaccess/internal/lex"
)

type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tKeyword
	tString
	tNumber
	tComma
	tDot
	tSemicolon
	tLParen
	tRParen
	tStar
	tEq
	tNe
	tLt
	tLe
	tGt
	tGe
	tPlus
	tMinus
	tSlash
)

var tokNames = [...]string{
	tEOF: "end of input", tIdent: "identifier", tKeyword: "keyword",
	tString: "string", tNumber: "number", tComma: "','", tDot: "'.'",
	tSemicolon: "';'", tLParen: "'('", tRParen: "')'", tStar: "'*'",
	tEq: "'='", tNe: "'<>'", tLt: "'<'", tLe: "'<='", tGt: "'>'", tGe: "'>='",
	tPlus: "'+'", tMinus: "'-'", tSlash: "'/'",
}

func (k tokKind) String() string {
	if k >= 0 && int(k) < len(tokNames) {
		return tokNames[k]
	}
	return fmt.Sprintf("token(%d)", int(k))
}

var keywords = lex.Keywords[struct{}]{
	"CREATE": {}, "TABLE": {}, "DROP": {}, "PRIMARY": {}, "KEY": {},
	"FOREIGN": {}, "REFERENCES": {}, "NOT": {}, "NULL": {},
	"UNIQUE": {}, "DEFAULT": {}, "AUTO_INCREMENT": {}, "INTEGER": {}, "INT": {},
	"VARCHAR": {}, "TEXT": {}, "DOUBLE": {}, "FLOAT": {},
	"BOOLEAN": {}, "BOOL": {},
	"INSERT": {}, "INTO": {}, "VALUES": {},
	"UPDATE": {}, "SET": {},
	"DELETE": {}, "FROM": {}, "WHERE": {},
	"SELECT": {}, "DISTINCT": {}, "AS": {},
	"JOIN": {}, "INNER": {}, "LEFT": {}, "ON": {},
	"ORDER": {}, "BY": {}, "ASC": {}, "DESC": {},
	"LIMIT": {}, "OFFSET": {},
	"AND": {}, "OR": {}, "IS": {}, "LIKE": {}, "IN": {},
	"TRUE": {}, "FALSE": {}, "BEGIN": {}, "COMMIT": {}, "ROLLBACK": {},
	"COUNT": {}, "SUM": {}, "AVG": {}, "MIN": {}, "MAX": {},
	"OUTER": {}, "GROUP": {}, "HAVING": {},
}

var punct = [256]tokKind{
	',': tComma, '.': tDot, ';': tSemicolon, '(': tLParen, ')': tRParen,
	'*': tStar, '=': tEq, '+': tPlus, '-': tMinus, '/': tSlash,
}

type token struct {
	kind tokKind
	val  string // identifier (original case), keyword (upper), string (unquoted), number (lexical)
	line int
	col  int
}

type lexer struct{ lex.Scanner }

func newLexer(src string) *lexer { return &lexer{lex.New("sql", src)} }

func (lx *lexer) next() (token, error) {
	lx.SkipSpace("--")
	t := token{line: lx.Line(), col: lx.Col()}
	if lx.EOF() {
		return t, nil
	}
	switch c := lx.Peek(); {
	case c == '\'':
		return lx.stringLit(t)
	case lex.IsDigit(rune(c)) || c == '.' && lex.IsDigit(rune(lx.PeekAt(1))):
		_, text, ok := lx.Number()
		if !ok {
			return t, lx.Errorf("malformed number")
		}
		t.kind, t.val = tNumber, text
	case c == '<':
		lx.Advance()
		t.kind = tLt
		switch lx.Peek() {
		case '=':
			lx.Advance()
			t.kind = tLe
		case '>':
			lx.Advance()
			t.kind = tNe
		}
	case c == '>':
		lx.Advance()
		t.kind = tGt
		if lx.Peek() == '=' {
			lx.Advance()
			t.kind = tGe
		}
	case c == '!':
		lx.Advance()
		if lx.Peek() != '=' {
			return t, lx.Errorf("expected '!='")
		}
		lx.Advance()
		t.kind = tNe
	case c == '"':
		// A quoted identifier is never a keyword; an unclosed one runs
		// to the end of input.
		lx.Advance()
		t.kind, t.val = tIdent, lx.Span(func(r rune) bool { return r != '"' })
		if lx.Peek() == '"' {
			lx.Advance()
		}
		if t.val == "" {
			return t, lx.Errorf("empty identifier")
		}
	case isIdentStart(rune(c)):
		word := lx.Span(isIdentPart)
		t.kind, t.val = tIdent, word
		if up, _, ok := keywords.Lookup(word); ok {
			t.kind, t.val = tKeyword, up
		}
	case punct[c] != tEOF:
		lx.Advance()
		t.kind = punct[c]
	default:
		return t, lx.Errorf("unexpected character %q", lx.PeekRune(0))
	}
	return t, nil
}

// stringLit scans a single-quoted literal, in which a doubled quote
// stands for one.
func (lx *lexer) stringLit(t token) (token, error) {
	lx.Advance()
	var b strings.Builder
	for {
		run := lx.Span(func(r rune) bool { return r != '\'' })
		if lx.EOF() {
			return t, lx.Errorf("unterminated string literal")
		}
		lx.Advance()
		if lx.Peek() != '\'' {
			t.kind, t.val = tString, run
			if b.Len() > 0 {
				b.WriteString(run)
				t.val = b.String()
			}
			return t, nil
		}
		lx.Advance()
		b.WriteString(run)
		b.WriteByte('\'')
	}
}

func isIdentStart(r rune) bool {
	return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_'
}

func isIdentPart(r rune) bool {
	return isIdentStart(r) || lex.IsDigit(r)
}
