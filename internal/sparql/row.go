package sparql

import (
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdf"
)

// Slot rows: the map-free form of a SELECT solution. A compiled plan
// hands its serializer one Row per solution — one Cell per head
// variable, in head order — and a RowLayout built once per plan says
// how to render it: the results-JSON member order, each variable's
// pre-escaped key, and per column the CellEncoder that renders a raw
// column value as the term the mediator would decode it to. Raw cells
// never become rdf.Terms or IRI strings; cells no encoder renders
// exactly carry the decoded term instead.

// CellState says what a slot row cell holds.
type CellState uint8

const (
	// CellUnbound is a variable without a value (an OPTIONAL or
	// aggregate NULL); serializers omit it.
	CellUnbound CellState = iota
	// CellRaw holds the column value in Val, rendered by the layout's
	// encoder for the column.
	CellRaw
	// CellTerm holds a decoded term in Term.
	CellTerm
)

// Cell is one variable of a slot row.
type Cell struct {
	State CellState
	Val   rdb.Value
	Term  rdf.Term
}

// Row is one SELECT solution as a slot row. A sink receives it only
// for the duration of one call: the producer reuses it, and a raw
// cell's Val may reference the executor's row buffer.
type Row struct {
	Layout *RowLayout
	Cells  []Cell
}

// Reset points r at l and sizes it to l's columns.
func (r *Row) Reset(l *RowLayout) {
	r.Layout = l
	if cap(r.Cells) < len(l.vars) {
		r.Cells = make([]Cell, len(l.vars))
	}
	r.Cells = r.Cells[:len(l.vars)]
}

// SetBinding makes r the term-backed row of b: each head variable b
// binds becomes a term cell, the rest are unbound.
func (r *Row) SetBinding(b Binding) {
	for i, v := range r.Layout.vars {
		if t, ok := b[v]; ok {
			r.Cells[i] = Cell{State: CellTerm, Term: t}
		} else {
			r.Cells[i] = Cell{}
		}
	}
}

// RowLayout is the per-plan rendering of a slot row. It is immutable
// once built and shared by every execution of the plan.
type RowLayout struct {
	vars []string
	// encs holds one encoder per column (nil: the column's cells are
	// never raw). A nil slice means the rows are all term-backed.
	encs []*CellEncoder
	// cols lists the columns in results-JSON member order: ascending
	// variable name — encoding/json's map-key order — with a repeated
	// head variable kept once, at its first column. keys holds each
	// one's pre-escaped member prefix.
	cols []int
	keys []string
}

// NewRowLayout builds the layout of rows with the given head and cell
// encoders (nil, or one per head variable).
func NewRowLayout(vars []string, encs []*CellEncoder) *RowLayout {
	cols := make([]int, len(vars))
	for i := range cols {
		cols[i] = i
	}
	slices.SortStableFunc(cols, func(a, b int) int { return strings.Compare(vars[a], vars[b]) })
	cols = slices.CompactFunc(cols, func(a, b int) bool { return vars[a] == vars[b] })
	// The keys are substrings of one rendering, so a layout costs a
	// handful of allocations whatever its width.
	size := 0
	for _, c := range cols {
		size += len(vars[c]) + 40 // the name, quoted, and the text around it
	}
	buf := make([]byte, 0, size)
	ends := make([]int, len(cols))
	for k, c := range cols {
		buf = appendJSONString(append(buf, "\n        "...), vars[c])
		buf = append(buf, ": {\n          \"type\": "...)
		ends[k] = len(buf)
	}
	text := string(buf)
	keys := make([]string, len(cols))
	start := 0
	for k, end := range ends {
		keys[k], start = text[start:end], end
	}
	return &RowLayout{vars: vars, encs: encs, cols: cols, keys: keys}
}

// The members of a results-JSON term object after its "type" key.
const (
	jsonValueKey    = ",\n          \"value\": "
	jsonLangKey     = ",\n          \"xml:lang\": "
	jsonDatatypeKey = ",\n          \"datatype\": "
)

// AppendTermBody appends the results-JSON rendering of t inside its
// term object: the "type" value, then the "value" member and the
// "xml:lang" or "datatype" member ResultsJSON would write.
func AppendTermBody(b []byte, t rdf.Term) []byte {
	switch t.Kind {
	case rdf.KindIRI:
		b = append(b, `"uri"`...)
	case rdf.KindBlank:
		b = append(b, `"bnode"`...)
	default:
		b = append(b, `"literal"`...)
	}
	b = append(b, jsonValueKey...)
	b = appendJSONString(b, t.Value)
	if t.Kind != rdf.KindIRI && t.Kind != rdf.KindBlank {
		if t.Lang != "" {
			b = append(b, jsonLangKey...)
			b = appendJSONString(b, t.Lang)
		} else if t.Datatype != "" && t.Datatype != rdf.XSDString {
			b = append(b, jsonDatatypeKey...)
			b = appendJSONString(b, t.Datatype)
		}
	}
	return b
}

// CellEncoder renders a raw column value as a term that is a constant
// head, the value's text form, and a constant tail: an instance IRI of
// a single-placeholder URI pattern, a value-prefixed IRI, or a plain
// or datatyped literal of the value's text. The head and tail are
// escaped once, when the encoder is built; per value only the text is
// escaped, straight from the rdb.Value.
type CellEncoder struct {
	iri bool
	// nonEmpty marks a key placeholder: an empty VARCHAR has no
	// rendering (the pattern's value would be missing).
	nonEmpty           bool
	jsonHead, jsonTail string
	textHead, textTail string
}

// IRIEncoder renders the IRI head+text+tail. nonEmpty refuses empty
// VARCHAR text. It returns nil when head or tail is not valid UTF-8:
// JSON escaping replaces invalid bytes rune by rune, so escaping the
// parts separately could differ from escaping the whole IRI.
func IRIEncoder(head, tail string, nonEmpty bool) *CellEncoder {
	if !utf8.ValidString(head) || !utf8.ValidString(tail) {
		return nil
	}
	e := &CellEncoder{iri: true, nonEmpty: nonEmpty}
	e.jsonHead = string(appendJSONBody([]byte(`"uri"`+jsonValueKey+`"`), head))
	e.jsonTail = string(append(appendJSONBody(nil, tail), '"'))
	e.textHead = string(rdf.AppendEscapedIRI([]byte{'<'}, head))
	e.textTail = string(append(rdf.AppendEscapedIRI(nil, tail), '>'))
	return e
}

// LiteralEncoder renders the literal of the value's text with the
// given datatype ("" or xsd:string: a plain literal).
func LiteralEncoder(datatype string) *CellEncoder {
	e := &CellEncoder{jsonHead: `"literal"` + jsonValueKey + `"`, jsonTail: `"`, textHead: `"`, textTail: `"`}
	if datatype != "" && datatype != rdf.XSDString {
		e.jsonTail += jsonDatatypeKey + string(appendJSONString(nil, datatype))
		e.textTail += "^^" + rdf.IRIRef(datatype)
	}
	return e
}

// Encodes reports whether the encoder renders v (a non-NULL value)
// exactly; the caller decodes the cells it does not.
func (e *CellEncoder) Encodes(v rdb.Value) bool {
	return !e.nonEmpty || v.Kind != rdb.KString || v.S != ""
}

// AppendJSON appends AppendTermBody of v's term.
func (e *CellEncoder) AppendJSON(b []byte, v rdb.Value) []byte {
	b = append(b, e.jsonHead...)
	if v.Kind == rdb.KString {
		b = appendJSONBody(b, v.S)
	} else {
		b = appendText(b, v)
	}
	return append(b, e.jsonTail...)
}

// AppendText appends v's term in N-Triples syntax (rdf.AppendTerm).
func (e *CellEncoder) AppendText(b []byte, v rdb.Value) []byte {
	b = append(b, e.textHead...)
	switch {
	case v.Kind != rdb.KString:
		b = appendText(b, v)
	case e.iri:
		b = rdf.AppendEscapedIRI(b, v.S)
	default:
		b = rdf.AppendEscapedLiteral(b, v.S)
	}
	return append(b, e.textTail...)
}

// appendText appends v.Text() of a non-VARCHAR value. Numbers and
// booleans render in ASCII digits, letters and "+-.", which no JSON,
// IRI or literal escaper touches.
func appendText(b []byte, v rdb.Value) []byte {
	switch v.Kind {
	case rdb.KInt:
		return strconv.AppendInt(b, v.I, 10)
	case rdb.KFloat:
		return strconv.AppendFloat(b, v.F(), 'g', -1, 64)
	case rdb.KBool:
		if v.B() {
			return append(b, "TRUE"...)
		}
		return append(b, "FALSE"...)
	}
	return append(b, v.Text()...)
}
