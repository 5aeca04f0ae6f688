// Package rdf implements the RDF data model: terms (IRIs, literals,
// blank nodes), triples, and graphs with set semantics.
//
// It is the foundation for every other layer of OntoAccess: the
// Turtle and N-Triples codecs, the native triple store, the SPARQL
// engine, the R3M mapping loader, and the SPARQL/Update-to-SQL
// translation core all operate on the types defined here.
//
// Terms are small comparable value types so they can be used directly
// as map keys, which the index structures in package triplestore rely
// on.
package rdf

import (
	"fmt"
	"strconv"
	"strings"
)

// TermKind discriminates the three kinds of RDF terms.
type TermKind uint8

// The three RDF term kinds. The zero value KindInvalid marks the zero
// Term so uninitialized terms are never mistaken for valid ones.
const (
	KindInvalid TermKind = iota
	KindIRI
	KindLiteral
	KindBlank
)

// String returns a human-readable name for the term kind.
func (k TermKind) String() string {
	switch k {
	case KindIRI:
		return "IRI"
	case KindLiteral:
		return "literal"
	case KindBlank:
		return "blank node"
	default:
		return "invalid"
	}
}

// Term is an RDF term: an IRI, a literal, or a blank node.
//
// Term is a comparable value type: two Terms are equal (==) exactly
// when they denote the same RDF term. For literals this follows the
// RDF 1.1 definition of literal term equality (same lexical form,
// same datatype IRI, same language tag).
type Term struct {
	// Kind selects which of the remaining fields are meaningful.
	Kind TermKind
	// Value holds the IRI string (KindIRI), the lexical form
	// (KindLiteral), or the label without the "_:" prefix (KindBlank).
	Value string
	// Datatype is the datatype IRI of a literal. The empty string is
	// equivalent to xsd:string for plain literals without a language
	// tag; constructors normalize it to XSDString.
	Datatype string
	// Lang is the language tag of a language-tagged literal. When set,
	// Datatype is rdf:langString.
	Lang string
}

// Well-known IRIs used across the system.
const (
	XSDString   = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger  = "http://www.w3.org/2001/XMLSchema#integer"
	XSDInt      = "http://www.w3.org/2001/XMLSchema#int"
	XSDDecimal  = "http://www.w3.org/2001/XMLSchema#decimal"
	XSDDouble   = "http://www.w3.org/2001/XMLSchema#double"
	XSDBoolean  = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDDateTime = "http://www.w3.org/2001/XMLSchema#dateTime"
	XSDDate     = "http://www.w3.org/2001/XMLSchema#date"

	RDFLangString = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"
	RDFType       = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
)

// IRI returns an IRI term.
func IRI(iri string) Term {
	return Term{Kind: KindIRI, Value: iri}
}

// Blank returns a blank node term with the given label (no "_:" prefix).
func Blank(label string) Term {
	return Term{Kind: KindBlank, Value: label}
}

// Literal returns a plain string literal (datatype xsd:string).
func Literal(lexical string) Term {
	return Term{Kind: KindLiteral, Value: lexical, Datatype: XSDString}
}

// TypedLiteral returns a literal with an explicit datatype IRI. An
// empty datatype is normalized to xsd:string.
func TypedLiteral(lexical, datatype string) Term {
	if datatype == "" {
		datatype = XSDString
	}
	return Term{Kind: KindLiteral, Value: lexical, Datatype: datatype}
}

// LangLiteral returns a language-tagged literal. Language tags are
// case-insensitive in RDF; they are normalized to lower case so that
// term equality matches RDF semantics.
func LangLiteral(lexical, lang string) Term {
	return Term{Kind: KindLiteral, Value: lexical, Datatype: RDFLangString, Lang: strings.ToLower(lang)}
}

// IntegerLiteral returns an xsd:integer literal for v.
func IntegerLiteral(v int64) Term {
	return TypedLiteral(strconv.FormatInt(v, 10), XSDInteger)
}

// BooleanLiteral returns an xsd:boolean literal for v.
func BooleanLiteral(v bool) Term {
	return TypedLiteral(strconv.FormatBool(v), XSDBoolean)
}

// DoubleLiteral returns an xsd:double literal for v.
func DoubleLiteral(v float64) Term {
	return TypedLiteral(strconv.FormatFloat(v, 'g', -1, 64), XSDDouble)
}

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == KindIRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == KindLiteral }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == KindBlank }

// IsZero reports whether the term is the zero value (no kind).
func (t Term) IsZero() bool { return t.Kind == KindInvalid }

// AsInt interprets a numeric literal as int64.
func (t Term) AsInt() (int64, error) {
	if !t.IsLiteral() {
		return 0, fmt.Errorf("rdf: %s is not a literal", t)
	}
	v, err := strconv.ParseInt(strings.TrimSpace(t.Value), 10, 64)
	if err != nil {
		// Accept integral-valued decimals such as "2009.0".
		f, ferr := strconv.ParseFloat(strings.TrimSpace(t.Value), 64)
		if ferr != nil || f != float64(int64(f)) {
			return 0, fmt.Errorf("rdf: literal %q is not an integer", t.Value)
		}
		return int64(f), nil
	}
	return v, nil
}

// AsFloat interprets a numeric literal as float64.
func (t Term) AsFloat() (float64, error) {
	if !t.IsLiteral() {
		return 0, fmt.Errorf("rdf: %s is not a literal", t)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(t.Value), 64)
	if err != nil {
		return 0, fmt.Errorf("rdf: literal %q is not numeric", t.Value)
	}
	return v, nil
}

// AsBool interprets an xsd:boolean literal.
func (t Term) AsBool() (bool, error) {
	if !t.IsLiteral() {
		return false, fmt.Errorf("rdf: %s is not a literal", t)
	}
	switch t.Value {
	case "true", "1":
		return true, nil
	case "false", "0":
		return false, nil
	}
	return false, fmt.Errorf("rdf: literal %q is not a boolean", t.Value)
}

// IsNumeric reports whether the literal has a numeric XSD datatype.
func (t Term) IsNumeric() bool {
	if !t.IsLiteral() {
		return false
	}
	switch t.Datatype {
	case XSDInteger, XSDInt, XSDDecimal, XSDDouble,
		"http://www.w3.org/2001/XMLSchema#long",
		"http://www.w3.org/2001/XMLSchema#short",
		"http://www.w3.org/2001/XMLSchema#float",
		"http://www.w3.org/2001/XMLSchema#nonNegativeInteger",
		"http://www.w3.org/2001/XMLSchema#positiveInteger":
		return true
	}
	return false
}

// String renders the term in N-Triples syntax, which is also the
// canonical debugging representation used in error messages.
func (t Term) String() string {
	if t.Kind == KindInvalid || t.Kind > KindBlank {
		return "?!invalid"
	}
	return string(AppendTerm(make([]byte, 0, len(t.Value)+len(t.Datatype)+8), t))
}

// AppendTerm appends the N-Triples rendering of a valid term — what
// String returns — to b.
func AppendTerm(b []byte, t Term) []byte {
	switch t.Kind {
	case KindIRI:
		return AppendIRIRef(b, t.Value)
	case KindBlank:
		return append(append(b, "_:"...), t.Value...)
	default:
		b = append(b, '"')
		b = AppendEscapedLiteral(b, t.Value)
		b = append(b, '"')
		if t.Lang != "" {
			b = append(append(b, '@'), t.Lang...)
		} else if t.Datatype != "" && t.Datatype != XSDString {
			b = append(b, "^^"...)
			b = AppendIRIRef(b, t.Datatype)
		}
		return b
	}
}

// IRIRef renders iri as an IRI reference, "<…>", in N-Triples, Turtle
// and SPARQL syntax. The characters the IRIREF production excludes
// (controls, space and <>"{}|^`\) are written as \u escapes, so a
// parser reads back the same IRI.
func IRIRef(iri string) string {
	return string(AppendIRIRef(make([]byte, 0, len(iri)+2), iri))
}

// AppendIRIRef appends IRIRef(iri) to b.
func AppendIRIRef(b []byte, iri string) []byte {
	b = append(b, '<')
	b = AppendEscapedIRI(b, iri)
	return append(b, '>')
}

const upperHex = "0123456789ABCDEF"

// AppendEscapedIRI appends the inside of IRIRef(s) — s with the
// excluded characters \u-escaped, without the angle brackets. The
// escaping is byte-wise, so escaping a concatenation equals
// concatenating the escaped parts.
func AppendEscapedIRI(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || strings.IndexByte("<>\"{}|^`\\", c) >= 0 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '0', '0', upperHex[c>>4], upperHex[c&0xF])
			start = i + 1
		}
	}
	return append(b, s[start:]...)
}

// EscapeLiteral escapes a literal lexical form for N-Triples/Turtle
// output ("\n", "\"", "\\", "\r", "\t").
func EscapeLiteral(s string) string {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return s
	}
	return string(AppendEscapedLiteral(make([]byte, 0, len(s)+8), s))
}

// AppendEscapedLiteral appends EscapeLiteral(s) to b. Like
// AppendEscapedIRI it works on bytes — an invalid UTF-8 byte passes
// through as is — so it distributes over concatenation.
func AppendEscapedLiteral(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '"':
			esc = `\"`
		case '\\':
			esc = `\\`
		case '\n':
			esc = `\n`
		case '\r':
			esc = `\r`
		case '\t':
			esc = `\t`
		default:
			continue
		}
		b = append(b, s[start:i]...)
		b = append(b, esc...)
		start = i + 1
	}
	return append(b, s[start:]...)
}

// CompareTerms orders terms for deterministic output: blank nodes <
// IRIs < literals, then lexicographically by value, datatype, lang.
func CompareTerms(a, b Term) int {
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	if a.Value != b.Value {
		if a.Value < b.Value {
			return -1
		}
		return 1
	}
	if a.Datatype != b.Datatype {
		if a.Datatype < b.Datatype {
			return -1
		}
		return 1
	}
	if a.Lang != b.Lang {
		if a.Lang < b.Lang {
			return -1
		}
		return 1
	}
	return 0
}
