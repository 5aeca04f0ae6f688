package core

import (
	"bytes"
	"strings"
	"testing"
	"unicode/utf8"

	"ontoaccess/internal/r3m"
	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdf"
	"ontoaccess/internal/sparql"
	"ontoaccess/internal/update"
)

// FuzzNormalizeShape drives arbitrary requests through the shape
// normalizer. The normalizer must never panic, and parameter binding
// must round-trip: re-assembling every parameterized term from the
// extracted argument vector must reproduce the original lexical forms,
// and re-normalizing must yield the identical cache key and arguments
// (the property the whole plan cache rests on — a shape key that did
// not determine its binding sites would execute one request's plan
// with another request's parameters).
func FuzzNormalizeShape(f *testing.F) {
	seeds := []string{
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ont: <http://example.org/ontology#>
PREFIX ex: <http://example.org/db/>
INSERT DATA { ex:author6 foaf:firstName "Matthias" ; foaf:mbox <mailto:hert@ifi.uzh.ch> ; ont:team ex:team5 . }`,
		`PREFIX ex: <http://example.org/db/>
PREFIX ont: <http://example.org/ontology#>
DELETE DATA { ex:team41 ont:teamCode "T41" . }`,
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ex: <http://example.org/db/>
MODIFY
DELETE { ex:author6 foaf:mbox ?m . }
INSERT { ex:author6 foaf:mbox <mailto:new7@example.org> . }
WHERE { ex:author6 foaf:mbox ?m . }`,
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
MODIFY
DELETE { ?x foaf:mbox ?m . }
INSERT { ?x foaf:mbox <mailto:x@example.org> . }
WHERE { ?x rdf:type foaf:Person ; foaf:firstName "Matthias" ; foaf:mbox ?m . }`,
		`INSERT DATA { <http://a/s1> <http://b/p> "00123" . }`,
		`INSERT DATA { <http://a/90s17x4> <http://b/p> "v0" ; <http://b/q> <http://a/5> . }`,
		`INSERT DATA { <http://a/1> <http://b/p> "2009"^^<http://www.w3.org/2001/XMLSchema#integer> . }`,
		`INSERT DATA { <http://a/1> <http://b/p> "hi"@en . }`,
		`CLEAR`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		req, err := update.Parse(src)
		if err != nil {
			return
		}
		for _, op := range req.Ops {
			switch o := op.(type) {
			case update.InsertData:
				checkDataShape(t, op, o.Triples)
			case update.DeleteData:
				checkDataShape(t, op, o.Triples)
			case update.Modify:
				key, args, nm, ok := normalizeModify(o)
				if !ok {
					continue
				}
				checkPatternRoundTrip(t, "DELETE", nm.del, o.Delete, args)
				checkPatternRoundTrip(t, "INSERT", nm.ins, o.Insert, args)
				checkPatternRoundTrip(t, "WHERE", nm.where, o.Where.Triples, args)
				key2, args2, _, ok2 := normalizeModify(o)
				if !ok2 || key2 != key || !equalStrings(args, args2) {
					t.Fatal("MODIFY normalization is not deterministic")
				}
			}
		}
	})
}

// checkDataShape verifies the normalize/bind round trip for one
// INSERT DATA / DELETE DATA operation.
func checkDataShape(t *testing.T, op update.Operation, triples []rdf.Triple) {
	t.Helper()
	key, args, nts, kind, ok := normalizeOp(op)
	if !ok {
		return
	}
	if len(nts) != len(triples) {
		t.Fatalf("%s: %d normalized triples for %d triples", kind, len(nts), len(triples))
	}
	for i, nt := range nts {
		if got := bindNormTerm(nt.s, args); got != triples[i].S.Value {
			t.Fatalf("subject %d does not round-trip: %q != %q", i, got, triples[i].S.Value)
		}
		if got := bindNormTerm(nt.o, args); got != triples[i].O.Value {
			t.Fatalf("object %d does not round-trip: %q != %q", i, got, triples[i].O.Value)
		}
		if nt.p != triples[i].P {
			t.Fatalf("predicate %d changed: %v != %v", i, nt.p, triples[i].P)
		}
	}
	key2, args2, _, _, ok2 := normalizeOp(op)
	if !ok2 || key2 != key || !equalStrings(args, args2) {
		t.Fatalf("%s: normalization is not deterministic", kind)
	}
}

// checkPatternRoundTrip verifies that materializing normalized MODIFY
// patterns with the extracted arguments reproduces the original
// patterns exactly.
func checkPatternRoundTrip(t *testing.T, section string, nps []normPattern, pats []sparql.TriplePattern, args []string) {
	t.Helper()
	if len(nps) != len(pats) {
		t.Fatalf("%s: %d normalized patterns for %d patterns", section, len(nps), len(pats))
	}
	got := materializePatterns(nps, args)
	for i := range pats {
		if got[i] != pats[i] {
			t.Fatalf("%s pattern %d does not round-trip:\ngot  %v\nwant %v", section, i, got[i], pats[i])
		}
	}
}

func bindNormTerm(nt normTerm, args []string) string {
	if nt.segs == nil {
		return nt.term.Value
	}
	return bindSegs(nt.segs, args)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzRowCellMatchesTerm pins every cell encoder to the decoder it
// replaces: for a URI pattern, value prefix or datatype and any
// rdb.Value, the encoder's JSON and text renderings must equal
// AppendTermBody and rdf.AppendTerm of the term decodeValue builds,
// and a value the encoder declines must be one the decoder refuses.
// IRI text that is not valid UTF-8 must get no encoder.
func FuzzRowCellMatchesTerm(f *testing.F) {
	m := paperMediator(f, Options{})
	f.Add(uint8(0), "author", "", uint8(0), int64(6), 0.0, "", false)
	f.Add(uint8(0), "kind/", "#it", uint8(2), int64(0), 0.0, "a b<c>\xff", false)
	f.Add(uint8(0), "http://x.org/\u2028", "/\"q\"", uint8(2), int64(0), 0.0, "", false)
	f.Add(uint8(1), "mailto:", "", uint8(2), int64(0), 0.0, "h\u2029<&>\x00@ex.org", false)
	f.Add(uint8(1), "mailto:\xe2\x80", "", uint8(2), int64(0), 0.0, "\xa8", false)
	f.Add(uint8(2), "http://www.w3.org/2001/XMLSchema#double", "", uint8(1), int64(0), 1e21, "", false)
	f.Add(uint8(2), "http://example.org/dt#<b>", "", uint8(3), int64(0), 0.0, "", true)
	f.Add(uint8(3), "", "", uint8(1), int64(0), -0.000001, "", false)
	f.Fuzz(func(t *testing.T, shape uint8, prefix, tail string, kind uint8, i int64, fl float64, s string, bo bool) {
		if strings.Contains(prefix+tail, "%") {
			t.Skip("pattern text must not form placeholders")
		}
		var vb varBinding
		switch shape % 4 {
		case 0:
			vb = varBinding{kind: bindSubject, col: "id", tm: &r3m.TableMap{Name: "fz", URIPattern: prefix + "%%id%%" + tail}}
		case 1:
			vb = varBinding{kind: bindColumn, am: &r3m.AttributeMap{IsObject: true, ValuePrefix: prefix + tail}}
		case 2:
			vb = varBinding{kind: bindColumn, am: &r3m.AttributeMap{Datatype: prefix + tail}}
		default:
			vb = varBinding{kind: bindAgg}
		}
		v := [...]rdb.Value{rdb.Int(i), rdb.Float(fl), rdb.String_(s), rdb.Bool(bo)}[kind%4]
		enc := m.cellEncoder(nil, &vb)
		invalid := !utf8.ValidString(prefix + tail) // the value prefix
		if shape%4 == 0 {
			invalid = !utf8.ValidString(prefix) || !utf8.ValidString(tail)
		}
		if shape%4 < 2 && invalid {
			// JSON escapes invalid UTF-8 rune by rune: escaping the
			// parts of such an IRI would not escape the whole.
			if enc != nil {
				t.Fatalf("an IRI encoder around invalid UTF-8 %q %q", prefix, tail)
			}
			return
		}
		if enc == nil {
			if shape%4 != 0 {
				t.Fatalf("no encoder for shape %d", shape%4)
			}
			return // the pattern does not compile to a single key placeholder
		}
		term, err := m.decodeValue(nil, &vb, v)
		if !enc.Encodes(v) {
			if err == nil {
				t.Fatalf("encoder declines %#v, but the decoder builds %v", v, term)
			}
			return
		}
		if err != nil {
			t.Fatalf("encoder renders %#v, but the decoder refuses it: %v", v, err)
		}
		if got, want := enc.AppendJSON(nil, v), sparql.AppendTermBody(nil, term); !bytes.Equal(got, want) {
			t.Fatalf("JSON of %#v:\n got %q\nwant %q", v, got, want)
		}
		if got, want := enc.AppendText(nil, v), rdf.AppendTerm(nil, term); !bytes.Equal(got, want) {
			t.Fatalf("text of %#v:\n got %q\nwant %q", v, got, want)
		}
	})
}
