// Package lex is the scanner core of the three languages the mediator
// reads: SPARQL (which SPARQL/Update reuses), Turtle and SQL. A Scanner
// owns the cursor — byte offset, line and rune-counted column — and
// knows what whitespace, comments, names, numbers and the RDF string
// and IRI forms look like, escapes included. Each language keeps only
// its token kinds, its punctuation switch and its keyword table.
//
// Every string a Scanner returns is a copy, never a substring of the
// source: token values end up in stored rows and cached plans, and a
// substring would keep the whole request text alive with them.
package lex

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Scanner is a cursor over one source text.
type Scanner struct {
	src       string
	pos       int
	line, col int
	lang      string // error prefix: "sparql", "turtle" or "sql"
}

// New returns a scanner at the start of src whose errors are prefixed
// with lang.
func New(lang, src string) Scanner {
	return Scanner{src: src, line: 1, col: 1, lang: lang}
}

// Errorf builds the error every lexer and parser reports:
// "<lang>: line L col C: message".
func Errorf(lang string, line, col int, format string, args ...any) error {
	return fmt.Errorf("%s: line %d col %d: %s", lang, line, col, fmt.Sprintf(format, args...))
}

// Errorf builds an error at the cursor.
func (s *Scanner) Errorf(format string, args ...any) error {
	return Errorf(s.lang, s.line, s.col, format, args...)
}

// Line and Col return the cursor's 1-based position; the column counts
// runes.
func (s *Scanner) Line() int { return s.line }
func (s *Scanner) Col() int  { return s.col }

// Rest returns the source from the cursor on.
func (s *Scanner) Rest() string { return s.src[s.pos:] }

// EOF reports whether the whole source has been consumed.
func (s *Scanner) EOF() bool { return s.pos >= len(s.src) }

// Peek returns the byte at the cursor, or 0 at the end of input.
func (s *Scanner) Peek() byte { return s.PeekAt(0) }

// PeekAt returns the byte off bytes past the cursor, or 0 past the end
// of input.
func (s *Scanner) PeekAt(off int) byte {
	if s.pos+off >= len(s.src) {
		return 0
	}
	return s.src[s.pos+off]
}

// PeekRune returns the rune that starts off bytes past the cursor, 0
// past the end of input and utf8.RuneError for an invalid encoding.
func (s *Scanner) PeekRune(off int) rune {
	if s.pos+off >= len(s.src) {
		return 0
	}
	r, _ := utf8.DecodeRuneInString(s.src[s.pos+off:])
	return r
}

// Advance consumes one byte and returns it. A newline starts a new
// line; a UTF-8 continuation byte does not move the column, so columns
// count runes.
func (s *Scanner) Advance() byte {
	c := s.src[s.pos]
	s.pos++
	switch {
	case c == '\n':
		s.line++
		s.col = 1
	case c&0xC0 != 0x80:
		s.col++
	}
	return c
}

// Skip consumes n bytes.
func (s *Scanner) Skip(n int) {
	for ; n > 0; n-- {
		s.Advance()
	}
}

// SkipSpace consumes whitespace and comments, which run from the
// comment marker ("#" or "--") to the end of the line.
func (s *Scanner) SkipSpace(comment string) {
	for !s.EOF() {
		switch c := s.Peek(); {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			s.Advance()
		case strings.HasPrefix(s.Rest(), comment):
			for !s.EOF() && s.Peek() != '\n' {
				s.Advance()
			}
		default:
			return
		}
	}
}

// Span consumes the longest run of runes that satisfy ok and returns it.
func (s *Scanner) Span(ok func(rune) bool) string {
	return strings.Clone(s.span(ok))
}

// span is Span returning a substring of the source.
func (s *Scanner) span(ok func(rune) bool) string {
	start := s.pos
	for !s.EOF() {
		r, n := rune(s.src[s.pos]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRuneInString(s.Rest())
		}
		if !ok(r) {
			break
		}
		s.Skip(n)
	}
	return s.src[start:s.pos]
}

// Name scans a SPARQL / Turtle name: name characters, the bytes in
// extra (":" for prefixed names, "%" for Turtle's escaped local names)
// and dots that a name character follows. It returns "" when the cursor
// is at none of these.
func (s *Scanner) Name(extra string) string {
	start := s.pos
	in := func(r rune) bool { return IsNameChar(r) || r < utf8.RuneSelf && strings.IndexByte(extra, byte(r)) >= 0 }
	s.span(in)
	for s.Peek() == '.' && IsNameChar(s.PeekRune(1)) {
		s.Advance()
		s.span(in)
	}
	return strings.Clone(s.src[start:s.pos])
}

// IsDigit reports whether r is an ASCII digit.
func IsDigit(r rune) bool { return r >= '0' && r <= '9' }

// IsVarChar reports whether r may appear in a SPARQL variable name:
// letters, digits and '_', Unicode ones included.
func IsVarChar(r rune) bool {
	return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || IsDigit(r) || r == '_' ||
		r >= utf8.RuneSelf && (unicode.IsLetter(r) || unicode.IsDigit(r))
}

// IsNameChar reports whether r may appear in a prefix, a local name or
// a blank node label: a variable character or '-'. This is a slightly
// permissive PN_CHARS.
func IsNameChar(r rune) bool { return IsVarChar(r) || r == '-' }

// IsLangChar reports whether r may appear in a language tag.
func IsLangChar(r rune) bool {
	return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || IsDigit(r) || r == '-'
}

// NumKind classifies a numeric literal.
type NumKind int

// Numeric literal kinds, in the order the languages' token kinds list
// them.
const (
	Integer NumKind = iota
	Decimal
	Double
)

// Number scans a numeric literal: an optional sign, digits, a fraction
// ('.' and at least one digit) and an exponent. ok is false when the
// literal has no digit or its exponent has none; text is then what was
// consumed.
func (s *Scanner) Number() (kind NumKind, text string, ok bool) {
	start := s.pos
	if c := s.Peek(); c == '+' || c == '-' {
		s.Advance()
	}
	digits := len(s.span(IsDigit))
	if s.Peek() == '.' && IsDigit(rune(s.PeekAt(1))) {
		kind = Decimal
		s.Advance()
		digits += len(s.span(IsDigit))
	}
	if c := s.Peek(); c == 'e' || c == 'E' {
		kind = Double
		s.Advance()
		if c := s.Peek(); c == '+' || c == '-' {
			s.Advance()
		}
		if !IsDigit(rune(s.Peek())) {
			return kind, strings.Clone(s.src[start:s.pos]), false
		}
		s.span(IsDigit)
	}
	return kind, strings.Clone(s.src[start:s.pos]), digits > 0
}

// RDFString scans an RDF string literal at the cursor, short or long
// (triple-quoted) and with either quote, and returns its value with
// ECHAR and UCHAR escapes decoded.
func (s *Scanner) RDFString() (string, error) {
	q := s.Advance()
	long := s.Peek() == q && s.PeekAt(1) == q
	if long {
		s.Skip(2)
	}
	var b strings.Builder
	from := s.pos // start of the verbatim run not yet in b
	for {
		if s.EOF() {
			return "", s.Errorf("unterminated string literal")
		}
		end := s.pos
		switch c := s.Advance(); {
		case c == q && !long:
			return flush(&b, s.src[from:end]), nil
		case c == q && s.Peek() == q && s.PeekAt(1) == q:
			s.Skip(2)
			return flush(&b, s.src[from:end]), nil
		case !long && (c == '\n' || c == '\r'):
			return "", s.Errorf("newline in short string literal")
		case c == '\\':
			b.WriteString(s.src[from:end])
			r, err := s.escape("string")
			if err != nil {
				return "", err
			}
			b.WriteRune(r)
			from = s.pos
		}
	}
}

// IRIRef scans "<…>" at the cursor and returns the IRI with UCHAR
// escapes decoded. A space or newline inside it is an error.
func (s *Scanner) IRIRef() (string, error) {
	s.Advance() // '<'
	var b strings.Builder
	from := s.pos
	for {
		if s.EOF() {
			return "", s.Errorf("unterminated IRI")
		}
		end := s.pos
		switch c := s.Advance(); c {
		case '>':
			return flush(&b, s.src[from:end]), nil
		case '\n', ' ':
			return "", s.Errorf("invalid character %q in IRI", c)
		case '\\':
			b.WriteString(s.src[from:end])
			r, err := s.escape("IRI")
			if err != nil {
				return "", err
			}
			b.WriteRune(r)
			from = s.pos
		}
	}
}

// flush returns the value whose escapes were decoded into b, with the
// last verbatim run appended; without escapes it is a copy of the run.
func flush(b *strings.Builder, run string) string {
	if b.Len() == 0 {
		return strings.Clone(run)
	}
	b.WriteString(run)
	return b.String()
}

// escape decodes the escape after a consumed backslash in a string
// (ECHAR or UCHAR) or an IRI (UCHAR only).
func (s *Scanner) escape(in string) (rune, error) {
	if s.EOF() {
		return 0, s.Errorf("unterminated escape in %s", in)
	}
	esc := s.Advance()
	if esc == 'u' || esc == 'U' {
		return s.uchar(esc)
	}
	if i := strings.IndexByte(`tbnrf"'\`, esc); i >= 0 && in == "string" {
		return rune("\t\b\n\r\f\"'\\"[i]), nil
	}
	return 0, s.Errorf("invalid %s escape '\\%c'", in, esc)
}

// uchar decodes the hex digits of a \u (4) or \U (8) escape into a
// Unicode scalar value; surrogates and values beyond U+10FFFF are errors.
func (s *Scanner) uchar(kind byte) (rune, error) {
	n := 4
	if kind == 'U' {
		n = 8
	}
	var v rune
	for i := 0; i < n; i++ {
		if s.EOF() {
			return 0, s.Errorf("unterminated \\%c escape", kind)
		}
		c := s.Advance()
		var d rune
		switch {
		case c >= '0' && c <= '9':
			d = rune(c - '0')
		case c >= 'a' && c <= 'f':
			d = rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = rune(c-'A') + 10
		default:
			return 0, s.Errorf("invalid hex digit %q in \\%c escape", c, kind)
		}
		v = v*16 + d
	}
	if !utf8.ValidRune(v) {
		return 0, s.Errorf("escape \\%c denotes invalid code point %#x", kind, v)
	}
	return v, nil
}

// Keywords is a language's keyword table, keyed by upper-case spelling.
// Lookups are case-insensitive.
type Keywords[K any] map[string]K

// Lookup upper-cases word once and returns that spelling with its entry.
func (t Keywords[K]) Lookup(word string) (string, K, bool) {
	up := strings.ToUpper(word)
	k, ok := t[up]
	return up, k, ok
}
