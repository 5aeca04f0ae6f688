package core

import (
	"strings"
	"testing"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdf"
	"ontoaccess/internal/sparql"
	"ontoaccess/internal/triplestore"
	"ontoaccess/internal/update"
)

const (
	foafNS = "http://xmlns.com/foaf/0.1/"
	dcNS   = "http://purl.org/dc/elements/1.1/"
	ontNS  = "http://example.org/ontology#"
	exNS   = "http://example.org/db/"
)

func TestQueryBGPTranslatedToSQL(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	// The WHERE clause of the paper's Listing 11, as a SELECT.
	res, err := m.Query(paperPrologue + `
SELECT ?x ?mbox WHERE {
  ?x rdf:type foaf:Person ;
     foaf:firstName "Matthias" ;
     foaf:family_name "Hert" ;
     foaf:mbox ?mbox .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.SQL == "" {
		t.Error("BGP query should translate to SQL")
	}
	if !strings.Contains(res.SQL, "FROM author") {
		t.Errorf("SQL = %s", res.SQL)
	}
	if len(res.Solutions) != 1 {
		t.Fatalf("solutions = %v", res.Solutions)
	}
	if res.Solutions[0]["x"] != rdf.IRI(exNS+"author6") {
		t.Errorf("?x = %v", res.Solutions[0]["x"])
	}
	if res.Solutions[0]["mbox"] != rdf.IRI("mailto:hert@ifi.uzh.ch") {
		t.Errorf("?mbox = %v", res.Solutions[0]["mbox"])
	}
}

func TestQueryJoinAcrossTables(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	res, err := m.Query(paperPrologue + `
SELECT ?title ?last ?team WHERE {
  ?pub dc:creator ?a ;
       dc:title ?title .
  ?a foaf:family_name ?last ;
     ont:team ?t .
  ?t foaf:name ?team .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 {
		t.Fatalf("solutions = %v (SQL: %s)", res.Solutions, res.SQL)
	}
	s := res.Solutions[0]
	if s["title"] != rdf.Literal("Relational...") || s["last"] != rdf.Literal("Hert") ||
		s["team"] != rdf.Literal("Software Engineering") {
		t.Errorf("solution = %v", s)
	}
	if res.SQL == "" || !strings.Contains(res.SQL, "JOIN") {
		t.Errorf("expected a JOIN query, got %q", res.SQL)
	}
}

func TestQueryConstSubject(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	res, err := m.Query(paperPrologue + `
SELECT ?name WHERE { ex:team5 foaf:name ?name . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || res.Solutions[0]["name"] != rdf.Literal("Software Engineering") {
		t.Fatalf("solutions = %v", res.Solutions)
	}
	if !strings.Contains(res.SQL, "id = 5") {
		t.Errorf("const subject should pin the key: %s", res.SQL)
	}
}

func TestQueryConstFKObject(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	res, err := m.Query(paperPrologue + `
SELECT ?a WHERE { ?a ont:team ex:team5 . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || res.Solutions[0]["a"] != rdf.IRI(exNS+"author6") {
		t.Fatalf("solutions = %v", res.Solutions)
	}
	if !strings.Contains(res.SQL, "team = 5") {
		t.Errorf("SQL = %s", res.SQL)
	}
}

func TestQueryYearLiteralMatchesIntegerColumn(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	for _, q := range []string{
		`SELECT ?p WHERE { ?p ont:pubYear "2009" . }`,
		`SELECT ?p WHERE { ?p ont:pubYear 2009 . }`,
	} {
		res, err := m.Query(paperPrologue + q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(res.Solutions) != 1 || res.Solutions[0]["p"] != rdf.IRI(exNS+"pub12") {
			t.Errorf("%s -> %v", q, res.Solutions)
		}
	}
}

func TestQueryFilterFallsBackToVirtualView(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	// The view renders pubYear as a plain literal (as the paper's
	// listings do), so the filter compares strings.
	res, err := m.Query(paperPrologue + `
SELECT ?p WHERE { ?p ont:pubYear ?y . FILTER (?y >= "2009") }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.SQL != "" {
		t.Error("FILTER queries cannot use the single-SELECT path")
	}
	if len(res.Solutions) != 1 || res.Solutions[0]["p"] != rdf.IRI(exNS+"pub12") {
		t.Fatalf("solutions = %v", res.Solutions)
	}
	// A numeric comparison against a plain literal is a SPARQL type
	// error: the row is filtered out, not an error.
	res, err = m.Query(paperPrologue + `
SELECT ?p WHERE { ?p ont:pubYear ?y . FILTER (?y >= 2009) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 0 {
		t.Errorf("numeric filter on plain literal matched: %v", res.Solutions)
	}
}

func TestQueryAskAndConstruct(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	res, err := m.Query(paperPrologue + `ASK { ex:author6 foaf:family_name "Hert" . }`)
	if err != nil || !res.Bool {
		t.Fatalf("ASK = %v, %v", res, err)
	}
	res, err = m.Query(paperPrologue + `ASK { ex:author6 foaf:family_name "Nobody" . }`)
	if err != nil || res.Bool {
		t.Fatalf("negative ASK = %v, %v", res, err)
	}
	res, err = m.Query(paperPrologue + `
CONSTRUCT { ?a <http://e/wrote> ?p . } WHERE { ?p dc:creator ?a . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.Len() != 1 {
		t.Fatalf("constructed:\n%s", res.Graph)
	}
}

func TestQueryModifiersViaVirtualView(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	mustExec(t, m, paperPrologue+`
INSERT DATA {
  ex:pub13 dc:title "Another" ; ont:pubYear "2010" .
  ex:pub14 dc:title "Third" ; ont:pubYear "2008" .
}`)
	res, err := m.Query(paperPrologue + `
SELECT ?t WHERE { ?p dc:title ?t ; ont:pubYear ?y . } ORDER BY DESC(?y) LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 2 {
		t.Fatalf("solutions = %v", res.Solutions)
	}
	if res.Solutions[0]["t"] != rdf.Literal("Another") || res.Solutions[1]["t"] != rdf.Literal("Relational...") {
		t.Errorf("order = %v", res.Solutions)
	}
}

func TestTranslateSelectErrors(t *testing.T) {
	m := paperMediator(t, Options{})
	cases := []struct{ name, q string }{
		{"variable predicate", `SELECT ?p WHERE { ex:team5 ?p ?o . }`},
		{"variable class", `SELECT ?c WHERE { ?x a ?c . }`},
		{"unmapped property", `SELECT ?x WHERE { ?x <http://nope/p> ?o . }`},
		{"unmapped class", `SELECT ?x WHERE { ?x a <http://nope/C> . }`},
		{"disconnected", `SELECT ?a ?b WHERE { ?a foaf:name ?n . ?b ont:type ?t . }`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := sparql.ParseQuery(paperPrologue + tc.q)
			if err != nil {
				t.Fatal(err)
			}
			err = m.DB().View(func(tx *rdb.Tx) error {
				if _, terr := m.TranslateSelect(tx, q.Where, nil); terr == nil {
					t.Errorf("TranslateSelect accepted %s", tc.name)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestExportMatchesNativeStore is the bijectivity property from the
// paper's related-work discussion: applying the same update stream to
// the mediator and to a native triple store yields the same graph
// (modulo the rdf:type triples the mapping derives for free).
func TestExportMatchesNativeStore(t *testing.T) {
	requests := []string{
		listing15,
		paperPrologue + `INSERT DATA { ex:author7 foaf:family_name "Reif" ; foaf:firstName "Gerald" . }`,
		paperPrologue + `INSERT DATA { ex:pub12 dc:creator ex:author7 . }`,
		paperPrologue + `DELETE DATA { ex:author6 foaf:mbox <mailto:hert@ifi.uzh.ch> . }`,
		listing11Like,
	}
	m := paperMediator(t, Options{})
	native := triplestore.New()
	for _, req := range requests {
		mustExec(t, m, req)
		parsed, err := update.Parse(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := update.Apply(native, parsed); err != nil {
			t.Fatal(err)
		}
	}
	exported, err := m.Export()
	if err != nil {
		t.Fatal(err)
	}
	// The mediated view also exposes rdf:type triples derived from
	// the mapping; add the same class assertions to the native graph
	// for comparison.
	nativeGraph := native.Graph()
	exported.Each(func(tr rdf.Triple) bool {
		if tr.P == rdf.IRI(rdf.RDFType) {
			nativeGraph.Add(tr)
		}
		return true
	})
	if !exported.Equal(nativeGraph) {
		t.Errorf("views diverge.\nonly mediated:\n%v\nonly native:\n%v",
			exported.Diff(nativeGraph), nativeGraph.Diff(exported))
	}
}

// listing11Like replaces Reif's first name (exercises MODIFY on both
// sides).
const listing11Like = paperPrologue + `
MODIFY
DELETE { ?x foaf:firstName ?n . }
INSERT { ?x foaf:firstName "G." . }
WHERE { ?x foaf:family_name "Reif" ; foaf:firstName ?n . }`

func TestVirtualGraphSubjectLookup(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	err := m.DB().View(func(tx *rdb.Tx) error {
		vg := m.VirtualGraph(tx)
		n := 0
		vg.Match(rdf.Triple{S: rdf.IRI(exNS + "author6")}, func(tr rdf.Triple) bool {
			n++
			return true
		})
		// type + title + email + firstname + lastname + team = 6
		if n != 6 {
			t.Errorf("author6 triples = %d, want 6", n)
		}
		// Bound S and P.
		n = 0
		vg.Match(rdf.Triple{S: rdf.IRI(exNS + "pub12"), P: rdf.IRI(dcNS + "creator")}, func(tr rdf.Triple) bool {
			n++
			if tr.O != rdf.IRI(exNS+"author6") {
				t.Errorf("creator = %v", tr.O)
			}
			return true
		})
		if n != 1 {
			t.Errorf("creator triples = %d", n)
		}
		// Unknown subject: nothing.
		vg.Match(rdf.Triple{S: rdf.IRI("http://other.org/x")}, func(rdf.Triple) bool {
			t.Error("unexpected triple for foreign URI")
			return false
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualGraphPropertyScan(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	err := m.DB().View(func(tx *rdb.Tx) error {
		vg := m.VirtualGraph(tx)
		// foaf:name is mapped on team only.
		n := 0
		vg.Match(rdf.Triple{P: rdf.IRI(foafNS + "name")}, func(tr rdf.Triple) bool {
			n++
			return true
		})
		if n != 1 {
			t.Errorf("foaf:name triples = %d", n)
		}
		// rdf:type scan with class filter.
		n = 0
		vg.Match(rdf.Triple{P: rdf.IRI(rdf.RDFType), O: rdf.IRI(foafNS + "Person")}, func(tr rdf.Triple) bool {
			n++
			return true
		})
		if n != 1 {
			t.Errorf("persons = %d", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExportShape(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	g, err := m.Export()
	if err != nil {
		t.Fatal(err)
	}
	// 5 entities x 1 type triple + 13 attribute triples (pub: 4, author:
	// 5, team: 2, pubtype: 1, publisher: 1) + 1 link triple = 19.
	if g.Len() != 19 {
		t.Errorf("exported %d triples:\n%s", g.Len(), g)
	}
	checks := []rdf.Triple{
		rdf.NewTriple(rdf.IRI(exNS+"author6"), rdf.IRI(rdf.RDFType), rdf.IRI(foafNS+"Person")),
		rdf.NewTriple(rdf.IRI(exNS+"author6"), rdf.IRI(foafNS+"mbox"), rdf.IRI("mailto:hert@ifi.uzh.ch")),
		rdf.NewTriple(rdf.IRI(exNS+"pub12"), rdf.IRI(ontNS+"pubYear"), rdf.Literal("2009")),
		rdf.NewTriple(rdf.IRI(exNS+"pub12"), rdf.IRI(dcNS+"creator"), rdf.IRI(exNS+"author6")),
		rdf.NewTriple(rdf.IRI(exNS+"pub12"), rdf.IRI(dcNS+"publisher"), rdf.IRI(exNS+"publisher3")),
	}
	for _, want := range checks {
		if !g.Contains(want) {
			t.Errorf("exported view missing %v", want)
		}
	}
}
