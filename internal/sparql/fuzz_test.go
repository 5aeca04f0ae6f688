package sparql

import (
	"testing"
)

// FuzzParseQuery feeds arbitrary query text through the SPARQL
// parser: it must never panic, and whatever it accepts must be
// structurally sound enough for the evaluator (a query form in range
// and a non-nil WHERE group for SELECT/ASK).
func FuzzParseQuery(f *testing.F) {
	seeds := []string{
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x ?m WHERE { ?x foaf:mbox ?m . }`,
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT * WHERE { ?x rdf:type foaf:Person ; foaf:family_name "Hert" . }`,
		`SELECT DISTINCT ?x WHERE { ?x <http://b/p> ?y . FILTER (?y > 3) } ORDER BY DESC(?x) LIMIT 5 OFFSET 2`,
		// the comparison-FILTER / solution-modifier shapes the plan
		// pipeline compiles since PR 5
		`SELECT ?x ?l WHERE { ?x <http://b/name> ?l . FILTER (?l >= "A" && ?l < "M" && ?l != "F") } ORDER BY ?l LIMIT 0`,
		`SELECT ?a WHERE { ?a <http://b/y> ?y ; <http://b/r> ?r . FILTER (?y < ?r) } ORDER BY DESC(?y) OFFSET 3`,
		`SELECT ?p WHERE { ?p <http://b/year> ?y . FILTER (?y = "2009") }`,
		`ASK { <http://a/1> <http://b/p> "v" . }`,
		`CONSTRUCT { ?x <http://b/q> ?y . } WHERE { ?x <http://b/p> ?y . }`,
		`SELECT ?x WHERE { { ?x <http://b/p> "a" . } UNION { ?x <http://b/p> "b" . } }`,
		`SELECT ?x WHERE { ?x <http://b/p> ?y . OPTIONAL { ?x <http://b/q> ?z . } }`,
		`SELECT ?x WHERE { ?x <http://b/p> "2009"^^<http://www.w3.org/2001/XMLSchema#integer> . }`,
		// the rich surface compiled since PR 7: aggregates, GROUP BY,
		// FILTER disjunctions, OPTIONAL groups, UNION under modifiers
		`SELECT (COUNT(*) AS ?n) WHERE { ?x <http://b/p> ?y . }`,
		`SELECT ?t (COUNT(?x) AS ?n) (SUM(?y) AS ?s) (AVG(?y) AS ?a) WHERE { ?x <http://b/t> ?t ; <http://b/y> ?y . } GROUP BY ?t`,
		`SELECT (MIN(?y) AS ?lo) (MAX(?y) AS ?hi) WHERE { ?p <http://b/y> ?y . }`,
		`SELECT ?x WHERE { ?x <http://b/name> ?l . FILTER (?l = "A" || ?l = "B" || ?l > "X") }`,
		`SELECT ?x ?z WHERE { ?x <http://b/p> ?y . OPTIONAL { ?x <http://b/fk> ?t . ?t <http://b/q> ?z . } }`,
		`SELECT ?n WHERE { { ?t <http://b/name> ?n . } UNION { ?x <http://b/last> ?n . } } ORDER BY ?n LIMIT 4`,
		`SELECT (COUNT(?x AS ?n) WHERE { ?x <http://b/p> ?y . }`,
		`SELECT (SUM(*) AS ?s) WHERE { ?x <http://b/p> ?y . }`,
		`SELECT ?x (COUNT(*) AS ?n) WHERE { ?x <http://b/p> ?y . } GROUP BY`,
		// \u / \U escapes: valid code points, and ones the lexer rejects
		`SELECT ?x WHERE { ?x <http://b/p> "caf\u00e9 \U0001F600" . }`,
		`SELECT ?x WHERE { ?x <http://b/p> "\uD800x" . FILTER (?x != "\UFFFFFFFF") }`,
		`SELECT`, `ASK {`, "\x00", `SELECT ?x WHERE`, `PREFIX : <u> SELECT ?x WHERE { :a :b ?x }`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := ParseQuery(src)
		if err != nil {
			return
		}
		if q == nil {
			t.Fatal("nil query with nil error")
		}
		switch q.Form {
		case FormSelect, FormAsk, FormConstruct:
		default:
			t.Fatalf("parsed query has invalid form %v", q.Form)
		}
		if q.Where == nil && q.Form != FormConstruct {
			t.Fatalf("parsed %s query has nil WHERE", q.Form)
		}
	})
}
