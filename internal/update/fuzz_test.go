package update

import (
	"testing"
)

// FuzzParseUpdate feeds arbitrary request text through the
// SPARQL/Update parser. The parser must never panic; whatever it
// accepts must survive a render/re-parse round trip with the same
// operation structure (String() is the canonical form the examples
// and the differential harness rely on).
func FuzzParseUpdate(f *testing.F) {
	seeds := []string{
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ex: <http://example.org/db/>
INSERT DATA { ex:author6 foaf:firstName "Matthias" ; foaf:mbox <mailto:hert@ifi.uzh.ch> . }`,
		`PREFIX ex: <http://example.org/db/>
PREFIX ont: <http://example.org/ontology#>
DELETE DATA { ex:team4 ont:teamCode "DBTG" . }`,
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
MODIFY
DELETE { ?x foaf:mbox ?m . }
INSERT { ?x foaf:mbox <mailto:new@example.org> . }
WHERE { ?x foaf:mbox ?m . }`,
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
DELETE { ?x foaf:title "Mr" . } WHERE { ?x foaf:title "Mr" . FILTER (STR(?x) = "a") }`,
		`INSERT DATA { <http://a/1> <http://b/p> "v\"esc\n" . }`,
		`INSERT DATA { <http://a/1> <http://b/p> "2009"^^<http://www.w3.org/2001/XMLSchema#integer> . }`,
		`INSERT DATA { <http://a/1> <http://b/p> "hi"@en . }`,
		// IRIs holding escaped characters IRIREF excludes
		`INSERT DATA { <http://a/\u003E> <http://b/p> "x"^^<http://t/\u0022\u0020> . }`,
		`CLEAR`,
		`INSERT DATA { _:b <http://b/p> "v" . }`,
		`INSERT DATA { <http://a/1> <http://b/p> "v" } ; DELETE DATA { <http://a/1> <http://b/p> "v" }`,
		`PREFIX : <http://e/> INSERT DATA { :s :p :o . }`,
		`INSERT`,
		`MODIFY WHERE { }`,
		"\x00\xff{", `{}`, `"`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		req, err := Parse(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		rendered := req.String()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-parse of rendered request failed: %v\noriginal: %q\nrendered: %q", err, src, rendered)
		}
		if len(again.Ops) != len(req.Ops) {
			t.Fatalf("op count changed across round trip: %d -> %d\nrendered: %q",
				len(req.Ops), len(again.Ops), rendered)
		}
		for i := range req.Ops {
			if req.Ops[i].Kind() != again.Ops[i].Kind() {
				t.Fatalf("op %d kind changed across round trip: %s -> %s\nrendered: %q",
					i, req.Ops[i].Kind(), again.Ops[i].Kind(), rendered)
			}
		}
	})
}
