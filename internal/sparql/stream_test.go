package sparql

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdf"
)

// nastyStrings exercises every escaping branch: quotes, backslashes,
// named control escapes, other control bytes, HTML-escaped <>&, line
// and paragraph separators, invalid UTF-8, and plain multibyte runes.
var nastyStrings = []string{
	"",
	"plain",
	`with "quotes" and \backslash\`,
	"newline\nreturn\rtab\t",
	"control\x00\x01\x1f",
	"html <b>&amp;</b> escape",
	"seps and ",
	"invalid \xff\xfe utf8",
	"mixed ünïcødé 漢字 🙂",
	"trailing backslash \\",
	"\x7f del is fine",
}

func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	cases := append([]string(nil), nastyStrings...)
	for i := 0; i < 256; i++ {
		cases = append(cases, string(rune(i))+"x"+string([]byte{byte(i)}))
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal %q: %v", s, err)
		}
		got := appendJSONString(nil, s)
		if !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
}

// streamParityCases cover the result-shape space: empty heads, empty
// results, unbound variables, every term kind, language tags,
// datatypes (incl. xsd:string suppression) and nasty payloads.
func streamParityCases() []struct {
	name string
	vars []string
	sols Solutions
} {
	return []struct {
		name string
		vars []string
		sols Solutions
	}{
		{"empty-both", nil, nil},
		{"no-solutions", []string{"a", "b"}, nil},
		{"empty-binding", []string{"a"}, Solutions{{}}},
		{"plain", []string{"name", "mbox"}, Solutions{
			{"name": rdf.Literal("Alice"), "mbox": rdf.IRI("mailto:alice@example.org")},
			{"name": rdf.Literal("Bob")},
		}},
		{"kinds", []string{"x", "y", "z"}, Solutions{
			{"x": rdf.IRI("http://example.org/s"), "y": rdf.Blank("b0"),
				"z": rdf.TypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer")},
			{"x": rdf.LangLiteral("chat", "en"), "y": rdf.TypedLiteral("s", rdf.XSDString)},
		}},
		{"repeated-var", []string{"x", "a", "x"}, Solutions{
			{"x": rdf.IRI("http://example.org/s"), "a": rdf.Literal("1")},
			{"a": rdf.Literal("2")},
		}},
		{"sort-order", []string{"zeta", "alpha", "mid"}, Solutions{
			{"zeta": rdf.Literal("1"), "alpha": rdf.Literal("2"), "mid": rdf.Literal("3")},
		}},
		{"nasty", []string{"v"}, func() Solutions {
			var s Solutions
			for _, n := range nastyStrings {
				s = append(s, Binding{"v": rdf.Literal(n)})
			}
			return s
		}()},
	}
}

func TestResultsJSONWriterParity(t *testing.T) {
	for _, tc := range streamParityCases() {
		want, err := ResultsJSON(tc.vars, tc.sols)
		if err != nil {
			t.Fatalf("%s: buffered: %v", tc.name, err)
		}
		var buf bytes.Buffer
		jw, err := NewResultsJSONWriter(&buf, tc.vars)
		if err != nil {
			t.Fatalf("%s: new: %v", tc.name, err)
		}
		for _, b := range tc.sols {
			if err := jw.WriteSolution(b); err != nil {
				t.Fatalf("%s: row: %v", tc.name, err)
			}
		}
		if err := jw.Close(); err != nil {
			t.Fatalf("%s: close: %v", tc.name, err)
		}
		if got := buf.String(); got != string(want) {
			t.Errorf("%s: streamed JSON differs\ngot:\n%s\nwant:\n%s", tc.name, got, want)
		}
	}
}

// formatTableRef is the text table rendered the direct way: every
// cell's Term.String, each column padded to its widest cell (or its
// "?name" header) plus two spaces.
func formatTableRef(vars []string, sols Solutions) string {
	widths := make([]int, len(vars))
	for i, v := range vars {
		widths[i] = len(v) + 1
	}
	rows := make([][]string, len(sols))
	for r, b := range sols {
		rows[r] = make([]string, len(vars))
		for i, v := range vars {
			if t, ok := b[v]; ok {
				rows[r][i] = t.String()
			}
			widths[i] = max(widths[i], len(rows[r][i]))
		}
	}
	pad := func(s string, w int) string { return s + strings.Repeat(" ", max(w-len(s), 0)) }
	var sb strings.Builder
	for i, v := range vars {
		sb.WriteString(pad("?"+v, widths[i]+2))
	}
	sb.WriteByte('\n')
	for _, row := range rows {
		for i, cell := range row {
			sb.WriteString(pad(cell, widths[i]+2))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestTableWriterParity(t *testing.T) {
	for _, tc := range streamParityCases() {
		want := formatTableRef(tc.vars, tc.sols)
		if got := FormatTable(tc.vars, tc.sols); got != want {
			t.Errorf("%s: FormatTable differs\ngot:\n%q\nwant:\n%q", tc.name, got, want)
		}
		var buf bytes.Buffer
		tw := NewTableWriter(&buf, tc.vars)
		for _, b := range tc.sols {
			if err := tw.WriteSolution(b); err != nil {
				t.Fatalf("%s: row: %v", tc.name, err)
			}
		}
		if err := tw.Close(); err != nil {
			t.Fatalf("%s: close: %v", tc.name, err)
		}
		if got := buf.String(); got != want {
			t.Errorf("%s: streamed table differs\ngot:\n%q\nwant:\n%q", tc.name, got, want)
		}
	}
}

// The writers must not retain the binding: the streaming decode path
// reuses one map across rows.
func TestWritersDoNotRetainBinding(t *testing.T) {
	var buf bytes.Buffer
	jw, err := NewResultsJSONWriter(&buf, []string{"v"})
	if err != nil {
		t.Fatal(err)
	}
	b := Binding{"v": rdf.Literal("one")}
	if err := jw.WriteSolution(b); err != nil {
		t.Fatal(err)
	}
	clear(b)
	b["v"] = rdf.Literal("two")
	if err := jw.WriteSolution(b); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "one") || !strings.Contains(out, "two") {
		t.Errorf("reused binding corrupted output:\n%s", out)
	}
}

// TestRowWritersMatchSolutions renders rows whose cells are raw values
// under IRI and literal encoders, term cells and unbound cells, and
// requires both writers' output to equal what they write for the
// equivalent bindings — each raw cell replaced by the term its encoder
// stands for.
func TestRowWritersMatchSolutions(t *testing.T) {
	const dt = "http://example.org/dt#<c>"
	vars := []string{"s", "h", "l", "p", "t", "u"}
	encs := []*CellEncoder{
		IRIEncoder("http://example.org/kind/", "#it", true),
		IRIEncoder("mailto:", "", false),
		LiteralEncoder(dt),
		LiteralEncoder(""),
		nil, nil,
	}
	layout := NewRowLayout(vars, encs)
	values := []rdb.Value{rdb.Int(-42), rdb.Float(1e21), rdb.Bool(true), rdb.Bool(false)}
	for _, s := range nastyStrings {
		values = append(values, rdb.String_(s))
	}
	var rows []Row
	var sols Solutions
	for i, v := range values {
		text := v.Text()
		r := Row{Layout: layout, Cells: make([]Cell, len(vars))}
		b := Binding{}
		for c, term := range []rdf.Term{
			rdf.IRI("http://example.org/kind/" + text + "#it"),
			rdf.IRI("mailto:" + text),
			rdf.TypedLiteral(text, dt),
			rdf.Literal(text),
		} {
			if c == 0 && text == "" {
				continue // an empty key has no IRI: the cell stays unbound
			}
			r.Cells[c] = Cell{State: CellRaw, Val: v}
			b[vars[c]] = term
		}
		if i%2 == 0 {
			term := rdf.LangLiteral(text, "en")
			r.Cells[4] = Cell{State: CellTerm, Term: term}
			b["t"] = term
		}
		rows = append(rows, r)
		sols = append(sols, b)
	}
	if IRIEncoder("bad\xff", "", false) != nil || IRIEncoder("", "\xfe", true) != nil {
		t.Error("IRIEncoder accepted invalid UTF-8 around the value")
	}

	var want, got bytes.Buffer
	jwWant, _ := NewResultsJSONWriter(&want, vars)
	jwGot, _ := NewResultsJSONWriter(&got, vars)
	twWant, twGot := NewTableWriter(&want, vars), NewTableWriter(&got, vars)
	for i := range rows {
		if !rows[i].encodable() {
			t.Fatalf("row %d: a raw cell the encoder declines", i)
		}
		jwWant.WriteSolution(sols[i])
		jwGot.WriteRow(&rows[i])
		twWant.WriteSolution(sols[i])
		twGot.WriteRow(&rows[i])
	}
	jwWant.Close()
	jwGot.Close()
	twWant.Close()
	twGot.Close()
	if got.String() != want.String() {
		t.Errorf("row rendering differs\ngot:\n%s\nwant:\n%s", got.String(), want.String())
	}
}

// encodable reports whether every raw cell is one its encoder renders.
func (r *Row) encodable() bool {
	for i, c := range r.Cells {
		if c.State == CellRaw && !r.Layout.encs[i].Encodes(c.Val) {
			return false
		}
	}
	return true
}
