package sparql

import (
	"io"
	"unicode/utf8"

	"ontoaccess/internal/rdf"
)

// Incremental result writers: the streaming twins of ResultsJSON and
// FormatTable. Each consumes one solution at a time and writes (or
// stages) it immediately, so serializing an N-row result needs O(row)
// transient memory instead of an O(N) solutions slice plus an O(N)
// rendered payload. Output is byte-identical to the buffered
// counterparts — the endpoint parity tests pin this.

// ResultsJSONWriter emits the SPARQL results JSON format
// incrementally. The byte stream is exactly what ResultsJSON produces
// for the same head and solution sequence: same two-space indentation,
// same alphabetical key order inside each binding object, same
// HTML-escaped string encoding. Rows are encoded into a reused scratch
// buffer and handed to w one by one; nothing is retained, so the
// caller may reuse the Binding or Row between calls.
type ResultsJSONWriter struct {
	w    io.Writer
	vars []string // head order (written once)
	// own lays out WriteSolution's term rows, built on first use: a
	// plan's rows bring their own layout.
	own     *RowLayout
	row     Row
	rows    int
	scratch []byte
	err     error
}

// NewResultsJSONWriter writes the document head and the opening of
// results.bindings, and returns the writer for the rows.
func NewResultsJSONWriter(w io.Writer, vars []string) (*ResultsJSONWriter, error) {
	jw := &ResultsJSONWriter{w: w, vars: vars, scratch: make([]byte, 0, 256)}
	b := jw.scratch
	b = append(b, "{\n  \"head\": {\n    \"vars\": ["...)
	for i, v := range vars {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n      "...)
		b = appendJSONString(b, v)
	}
	if len(vars) > 0 {
		b = append(b, "\n    "...)
	}
	b = append(b, "]\n  },\n  \"results\": {\n    \"bindings\": ["...)
	jw.scratch = b[:0]
	if _, err := w.Write(b); err != nil {
		jw.err = err
		return nil, err
	}
	return jw, nil
}

// WriteSolution encodes one binding object. Variables absent from the
// binding are omitted, per the specification (and per ResultsJSON).
func (jw *ResultsJSONWriter) WriteSolution(bnd Binding) error {
	if jw.own == nil {
		jw.own = NewRowLayout(jw.vars, nil)
	}
	jw.row.Reset(jw.own)
	jw.row.SetBinding(bnd)
	return jw.WriteRow(&jw.row)
}

// WriteRow encodes one slot row as a binding object: members in the
// layout's order, unbound cells omitted, raw cells rendered by their
// column's encoder and term cells by AppendTermBody. Its head must be
// the writer's.
func (jw *ResultsJSONWriter) WriteRow(r *Row) error {
	if jw.err != nil {
		return jw.err
	}
	l := r.Layout
	b := jw.scratch
	if jw.rows > 0 {
		b = append(b, ',')
	}
	b = append(b, "\n      {"...)
	n := 0
	for k, i := range l.cols {
		c := &r.Cells[i]
		if c.State == CellUnbound {
			continue
		}
		if n > 0 {
			b = append(b, ',')
		}
		n++
		b = append(b, l.keys[k]...)
		if c.State == CellRaw {
			b = l.encs[i].AppendJSON(b, c.Val)
		} else {
			b = AppendTermBody(b, c.Term)
		}
		b = append(b, "\n        }"...)
	}
	if n > 0 {
		b = append(b, "\n      "...)
	}
	b = append(b, '}')
	jw.rows++
	jw.scratch = b[:0]
	if _, err := jw.w.Write(b); err != nil {
		jw.err = err
		return err
	}
	return nil
}

// Close writes the document trailer. It does not close the underlying
// writer.
func (jw *ResultsJSONWriter) Close() error {
	if jw.err != nil {
		return jw.err
	}
	b := jw.scratch
	if jw.rows > 0 {
		b = append(b, "\n    "...)
	}
	b = append(b, "]\n  }\n}"...)
	jw.scratch = b[:0]
	if _, err := jw.w.Write(b); err != nil {
		jw.err = err
		return err
	}
	return nil
}

const jsonHex = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as
// encoding/json encodes it with HTML escaping on (the default the
// buffered path uses): `"`/`\` backslash-escaped, \b \f \n \r \t
// named, other control bytes and < > & as \u00xx, invalid UTF-8 as
// �, and U+2028/U+2029 escaped. Pinned against json.Marshal by
// TestAppendJSONStringMatchesEncodingJSON.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	b = appendJSONBody(b, s)
	return append(b, '"')
}

// appendJSONBody appends appendJSONString(s) without the quotes. Each
// rune is escaped on its own, so the body of a concatenation is the
// concatenation of the bodies — provided every part but the last ends
// on a rune boundary (valid UTF-8 always does).
func appendJSONBody(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', jsonHex[c>>4], jsonHex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', jsonHex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	return append(b, s[start:]...)
}

// TableWriter renders the aligned text table incrementally. Column
// widths depend on every row, so the writer stages the rendered cells
// back to back in one buffer (one copy of the payload) and emits the
// aligned table at Close — still strictly less memory than a solutions
// slice plus a fully rendered string, and it never retains the
// caller's bindings or rows. FormatTable is this writer over a string
// builder.
type TableWriter struct {
	w      io.Writer
	vars   []string
	widths []int
	// cells holds every staged cell's N-Triples text; ends[i] is where
	// cell i ends, len(vars) cells per row.
	cells []byte
	ends  []int
	rows  int
}

// NewTableWriter stages a table with the given column order.
func NewTableWriter(w io.Writer, vars []string) *TableWriter {
	tw := &TableWriter{w: w, vars: vars, widths: make([]int, len(vars))}
	for i, v := range vars {
		tw.widths[i] = len(v) + 1
	}
	return tw
}

// WriteSolution stages one row; the binding is not retained.
func (tw *TableWriter) WriteSolution(b Binding) error {
	for i, v := range tw.vars {
		if t, ok := b[v]; ok {
			tw.cells = rdf.AppendTerm(tw.cells, t)
		}
		tw.endCell(i)
	}
	tw.rows++
	return nil
}

// WriteRow stages one slot row, rendering its raw cells with the
// layout's encoders; the row is not retained. Its head must be the
// writer's.
func (tw *TableWriter) WriteRow(r *Row) error {
	for i := range tw.vars {
		switch c := &r.Cells[i]; c.State {
		case CellRaw:
			tw.cells = r.Layout.encs[i].AppendText(tw.cells, c.Val)
		case CellTerm:
			tw.cells = rdf.AppendTerm(tw.cells, c.Term)
		}
		tw.endCell(i)
	}
	tw.rows++
	return nil
}

// endCell closes the staged cell of column i.
func (tw *TableWriter) endCell(i int) {
	start := 0
	if n := len(tw.ends); n > 0 {
		start = tw.ends[n-1]
	}
	tw.ends = append(tw.ends, len(tw.cells))
	if w := len(tw.cells) - start; w > tw.widths[i] {
		tw.widths[i] = w
	}
}

// Close writes the aligned table. It does not close the underlying
// writer.
func (tw *TableWriter) Close() error {
	line := make([]byte, 0, 256)
	for i, v := range tw.vars {
		line = appendPadded(line, "?"+v, tw.widths[i]+2)
	}
	line = append(line, '\n')
	if _, err := tw.w.Write(line); err != nil {
		return err
	}
	start, cell := 0, 0
	for r := 0; r < tw.rows; r++ {
		line = line[:0]
		for i := range tw.vars {
			end := tw.ends[cell]
			line = appendPadded(line, tw.cells[start:end], tw.widths[i]+2)
			start = end
			cell++
		}
		line = append(line, '\n')
		if _, err := tw.w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// appendPadded appends s right-padded with spaces to width w.
func appendPadded[S string | []byte](b []byte, s S, w int) []byte {
	b = append(b, s...)
	for n := len(s); n < w; n++ {
		b = append(b, ' ')
	}
	return b
}
