package update

import (
	"strings"
	"testing"

	"ontoaccess/internal/rdf"
)

const paperPrologue = `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX dc: <http://purl.org/dc/elements/1.1/>
PREFIX ont: <http://example.org/ontology#>
PREFIX ex: <http://example.org/db/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
`

// listing9 is the paper's Listing 9 INSERT DATA operation.
const listing9 = paperPrologue + `
INSERT DATA {
  ex:author6 foaf:title "Mr" ;
      foaf:firstName "Matthias" ;
      foaf:family_name "Hert" ;
      foaf:mbox <mailto:hert@ifi.uzh.ch> ;
      ont:team ex:team5 .
}`

// listing11 is the paper's Listing 11 MODIFY operation.
const listing11 = paperPrologue + `
MODIFY
DELETE {
  ?x foaf:mbox ?mbox .
}
INSERT {
  ?x foaf:mbox <mailto:hert@example.com> .
}
WHERE {
  ?x rdf:type foaf:Person ;
     foaf:firstName "Matthias" ;
     foaf:family_name "Hert" ;
     foaf:mbox ?mbox .
}`

// listing17 is the paper's Listing 17 DELETE DATA operation.
const listing17 = paperPrologue + `
DELETE DATA {
  ex:author6 foaf:mbox <mailto:hert@ifi.uzh.ch> .
}`

func TestParseListing9(t *testing.T) {
	req, err := Parse(listing9)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Ops) != 1 {
		t.Fatalf("ops = %d", len(req.Ops))
	}
	ins, ok := req.Ops[0].(InsertData)
	if !ok {
		t.Fatalf("op type = %T", req.Ops[0])
	}
	if len(ins.Triples) != 5 {
		t.Fatalf("triples = %d, want 5", len(ins.Triples))
	}
	author6 := rdf.IRI("http://example.org/db/author6")
	for _, tr := range ins.Triples {
		if tr.S != author6 {
			t.Errorf("all subjects must be author6, got %v", tr.S)
		}
	}
}

func TestParseListing11(t *testing.T) {
	req, err := Parse(listing11)
	if err != nil {
		t.Fatal(err)
	}
	mod, ok := req.Ops[0].(Modify)
	if !ok {
		t.Fatalf("op type = %T", req.Ops[0])
	}
	if len(mod.Delete) != 1 || len(mod.Insert) != 1 {
		t.Fatalf("templates = %d/%d", len(mod.Delete), len(mod.Insert))
	}
	if !mod.Delete[0].S.IsVar || mod.Delete[0].S.Var != "x" {
		t.Errorf("delete subject = %v", mod.Delete[0].S)
	}
	if mod.Insert[0].O.Term != rdf.IRI("mailto:hert@example.com") {
		t.Errorf("insert object = %v", mod.Insert[0].O)
	}
	if len(mod.Where.Triples) != 4 {
		t.Fatalf("where triples = %d", len(mod.Where.Triples))
	}
}

func TestParseListing17(t *testing.T) {
	req, err := Parse(listing17)
	if err != nil {
		t.Fatal(err)
	}
	del, ok := req.Ops[0].(DeleteData)
	if !ok {
		t.Fatalf("op type = %T", req.Ops[0])
	}
	if len(del.Triples) != 1 {
		t.Fatalf("triples = %d", len(del.Triples))
	}
	want := rdf.NewTriple(
		rdf.IRI("http://example.org/db/author6"),
		rdf.IRI("http://xmlns.com/foaf/0.1/mbox"),
		rdf.IRI("mailto:hert@ifi.uzh.ch"))
	if del.Triples[0] != want {
		t.Errorf("triple = %v", del.Triples[0])
	}
}

func TestParseMultipleOperations(t *testing.T) {
	req, err := Parse(paperPrologue + `
INSERT DATA { ex:a foaf:name "A" . } ;
DELETE DATA { ex:b foaf:name "B" . }
INSERT DATA { ex:c foaf:name "C" . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Ops) != 3 {
		t.Fatalf("ops = %d, want 3", len(req.Ops))
	}
	if req.Ops[0].Kind() != "INSERT DATA" || req.Ops[1].Kind() != "DELETE DATA" || req.Ops[2].Kind() != "INSERT DATA" {
		t.Errorf("kinds = %v %v %v", req.Ops[0].Kind(), req.Ops[1].Kind(), req.Ops[2].Kind())
	}
}

func TestParseStandaloneDeleteWhere(t *testing.T) {
	req, err := Parse(paperPrologue + `
DELETE { ?x foaf:mbox ?m . } WHERE { ?x foaf:mbox ?m . }`)
	if err != nil {
		t.Fatal(err)
	}
	mod := req.Ops[0].(Modify)
	if len(mod.Delete) != 1 || len(mod.Insert) != 0 {
		t.Errorf("templates = %d/%d", len(mod.Delete), len(mod.Insert))
	}
}

func TestParseStandaloneInsertWhere(t *testing.T) {
	req, err := Parse(paperPrologue + `
INSERT { ?x ont:flagged "yes" . } WHERE { ?x foaf:family_name "Hert" . }`)
	if err != nil {
		t.Fatal(err)
	}
	mod := req.Ops[0].(Modify)
	if len(mod.Delete) != 0 || len(mod.Insert) != 1 {
		t.Errorf("templates = %d/%d", len(mod.Delete), len(mod.Insert))
	}
}

func TestParseDeleteInsertWhere(t *testing.T) {
	req, err := Parse(paperPrologue + `
DELETE { ?x foaf:mbox ?m . }
INSERT { ?x foaf:mbox <mailto:new@e> . }
WHERE { ?x foaf:mbox ?m . }`)
	if err != nil {
		t.Fatal(err)
	}
	mod := req.Ops[0].(Modify)
	if len(mod.Delete) != 1 || len(mod.Insert) != 1 {
		t.Errorf("templates = %d/%d", len(mod.Delete), len(mod.Insert))
	}
}

func TestParseClear(t *testing.T) {
	req, err := Parse(`CLEAR`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := req.Ops[0].(Clear); !ok {
		t.Fatalf("op = %T", req.Ops[0])
	}
}

func TestParseModifyEmptyTemplates(t *testing.T) {
	req, err := Parse(paperPrologue + `
MODIFY DELETE { } INSERT { ?x ont:seen true . } WHERE { ?x a foaf:Person . }`)
	if err != nil {
		t.Fatal(err)
	}
	mod := req.Ops[0].(Modify)
	if len(mod.Delete) != 0 || len(mod.Insert) != 1 {
		t.Errorf("templates = %d/%d", len(mod.Delete), len(mod.Insert))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []struct{ name, src string }{
		{"empty", ""},
		{"only prologue", "PREFIX ex: <http://e/>"},
		{"vars in insert data", "INSERT DATA { ?x <http://e/p> 1 . }"},
		{"vars in delete data", "DELETE DATA { <http://e/s> <http://e/p> ?o . }"},
		{"modify without clauses", "MODIFY WHERE { ?s ?p ?o . }"},
		{"modify named graph", "MODIFY <http://e/g> DELETE { ?s ?p ?o . } WHERE { ?s ?p ?o . }"},
		{"insert into graph", "INSERT INTO <http://e/g> { <http://e/s> <http://e/p> 1 . } WHERE { ?s ?p ?o . }"},
		{"clear graph", "CLEAR GRAPH <http://e/g>"},
		{"load", "LOAD <http://e/data.rdf>"},
		{"create", "CREATE GRAPH <http://e/g>"},
		{"drop", "DROP GRAPH <http://e/g>"},
		{"select not update", "SELECT * WHERE { ?s ?p ?o }"},
		{"missing where", "DELETE { ?s ?p ?o . }"},
		{"unterminated block", "INSERT DATA { <http://e/s> <http://e/p> 1 ."},
		// A surrogate names no Unicode scalar value; it must not be
		// stored as U+FFFD.
		{"surrogate escape", `INSERT DATA { <http://e/s> <http://e/p> "\uD800x" . }`},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.src); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", tc.src)
			}
		})
	}
}

func TestOperationString(t *testing.T) {
	req, err := Parse(listing11)
	if err != nil {
		t.Fatal(err)
	}
	s := req.Ops[0].String()
	for _, want := range []string{"MODIFY", "DELETE {", "INSERT {", "WHERE {", "?x", "mailto:hert@example.com"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	req, _ = Parse(listing9)
	s = req.Ops[0].String()
	if !strings.Contains(s, "INSERT DATA {") || !strings.Contains(s, `"Matthias"`) {
		t.Errorf("InsertData String():\n%s", s)
	}
	if (Clear{}).Kind() != "CLEAR" {
		t.Error("Clear kind")
	}
	full, _ := Parse(paperPrologue + `INSERT DATA { ex:a foaf:name "A" . } DELETE DATA { ex:a foaf:name "A" . }`)
	if got := full.String(); !strings.Contains(got, "INSERT DATA") || !strings.Contains(got, "DELETE DATA") {
		t.Errorf("Request.String():\n%s", got)
	}
}
