package sparql

import (
	"strings"
	"testing"

	"ontoaccess/internal/rdf"
)

func TestParseSelectBasic(t *testing.T) {
	q, err := ParseQuery(`
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x ?mbox WHERE {
  ?x a foaf:Person ;
     foaf:firstName "Matthias" ;
     foaf:family_name "Hert" ;
     foaf:mbox ?mbox .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Form != FormSelect {
		t.Errorf("Form = %v", q.Form)
	}
	if len(q.Vars) != 2 || q.Vars[0] != "x" || q.Vars[1] != "mbox" {
		t.Errorf("Vars = %v", q.Vars)
	}
	if len(q.Where.Triples) != 4 {
		t.Fatalf("triples = %d, want 4", len(q.Where.Triples))
	}
	tp := q.Where.Triples[0]
	if !tp.S.IsVar || tp.S.Var != "x" {
		t.Errorf("subject = %v", tp.S)
	}
	if tp.P.Term != rdf.IRI(rdf.RDFType) {
		t.Errorf("'a' not expanded: %v", tp.P)
	}
	if q.Where.Triples[1].O.Term != rdf.Literal("Matthias") {
		t.Errorf("object literal = %v", q.Where.Triples[1].O)
	}
}

func TestParseSelectStarDistinctModifiers(t *testing.T) {
	q, err := ParseQuery(`
PREFIX ex: <http://e/>
SELECT DISTINCT * WHERE { ?s ex:p ?o . } ORDER BY DESC(?o) ?s LIMIT 10 OFFSET 5`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Star || !q.Distinct {
		t.Error("Star/Distinct not set")
	}
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Desc || q.OrderBy[0].Var != "o" || q.OrderBy[1].Desc {
		t.Errorf("OrderBy = %v", q.OrderBy)
	}
	if q.Limit != 10 || q.Offset != 5 {
		t.Errorf("Limit/Offset = %d/%d", q.Limit, q.Offset)
	}
}

func TestParseAsk(t *testing.T) {
	q, err := ParseQuery(`ASK { <http://e/s> <http://e/p> 42 . }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Form != FormAsk || len(q.Where.Triples) != 1 {
		t.Errorf("bad ASK parse: %+v", q)
	}
	gt, ok := q.Where.Triples[0].AsTriple()
	if !ok {
		t.Fatal("pattern should be ground")
	}
	if gt.O != rdf.TypedLiteral("42", rdf.XSDInteger) {
		t.Errorf("object = %v", gt.O)
	}
}

func TestParseConstruct(t *testing.T) {
	q, err := ParseQuery(`
PREFIX ex: <http://e/>
CONSTRUCT { ?s ex:q ?o . } WHERE { ?s ex:p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Form != FormConstruct || len(q.Template) != 1 {
		t.Fatalf("bad CONSTRUCT: %+v", q)
	}
}

func TestParseFilter(t *testing.T) {
	q, err := ParseQuery(`
PREFIX ex: <http://e/>
SELECT ?s WHERE { ?s ex:year ?y . FILTER (?y >= 2005 && ?y < 2010) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where.Filters) != 1 {
		t.Fatalf("filters = %d", len(q.Where.Filters))
	}
	want := "((?y >= \"2005\"^^<http://www.w3.org/2001/XMLSchema#integer>) && (?y < \"2010\"^^<http://www.w3.org/2001/XMLSchema#integer>))"
	if got := q.Where.Filters[0].String(); got != want {
		t.Errorf("filter = %s", got)
	}
}

func TestParseFilterBuiltins(t *testing.T) {
	q, err := ParseQuery(`
SELECT ?s WHERE {
  ?s ?p ?o .
  FILTER REGEX(STR(?o), "^mailto:", "i")
  FILTER (BOUND(?o) && ISIRI(?s) && !ISBLANK(?s))
  FILTER (DATATYPE(?o) = <http://www.w3.org/2001/XMLSchema#string> || LANG(?o) != "")
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where.Filters) != 3 {
		t.Fatalf("filters = %d", len(q.Where.Filters))
	}
}

func TestParseOptionalAndUnion(t *testing.T) {
	q, err := ParseQuery(`
PREFIX ex: <http://e/>
SELECT * WHERE {
  ?s ex:p ?o .
  OPTIONAL { ?s ex:q ?q . }
  { ?s ex:r ?r . } UNION { ?s ex:t ?r . }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where.Optionals) != 1 {
		t.Fatalf("optionals = %d", len(q.Where.Optionals))
	}
	if len(q.Where.Unions) != 1 || len(q.Where.Unions[0]) != 2 {
		t.Fatalf("unions = %v", q.Where.Unions)
	}
}

func TestParseObjectListAndPredicateList(t *testing.T) {
	q, err := ParseQuery(`
PREFIX ex: <http://e/>
SELECT * WHERE { ?s ex:p ex:a , ex:b ; ex:q "x" . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where.Triples) != 3 {
		t.Fatalf("triples = %d, want 3", len(q.Where.Triples))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []struct{ name, src string }{
		{"empty", ""},
		{"describe", "DESCRIBE <http://e/x>"},
		{"graph", "SELECT * WHERE { GRAPH ?g { ?s ?p ?o } }"},
		{"from", "SELECT * FROM <http://e/g> WHERE { ?s ?p ?o }"},
		{"unknown prefix", "SELECT * WHERE { ex:s ?p ?o }"},
		{"unterminated group", "SELECT * WHERE { ?s ?p ?o "},
		{"trailing junk", "ASK { ?s ?p ?o } garbage"},
		{"missing vars", "SELECT WHERE { ?s ?p ?o }"},
		{"literal subject", `SELECT * WHERE { "s" ?p ?o }`},
		{"literal predicate", `SELECT * WHERE { ?s "p" ?o }`},
		{"a as subject", "SELECT * WHERE { a ?p ?o }"},
		{"bad limit", "SELECT * WHERE { ?s ?p ?o } LIMIT ?x"},
		{"empty var", "SELECT ? WHERE { ?s ?p ?o }"},
		{"bnode predicate", "SELECT * WHERE { ?s _:b ?o }"},
		{"bad filter start", "SELECT * WHERE { ?s ?p ?o FILTER ?x }"},
		{"regex arity", `SELECT * WHERE { ?s ?p ?o FILTER REGEX(?o) }`},
		{"order without key", "SELECT * WHERE { ?s ?p ?o } ORDER BY LIMIT 3"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseQuery(tc.src); err == nil {
				t.Errorf("ParseQuery(%q) succeeded, want error", tc.src)
			}
		})
	}
}

// TestLexUnicodeEscapes pins \u / \U handling in string literals and
// IRIs (SPARQL 1.1 section 19.2): escapes decode to their code point,
// and escapes naming no Unicode scalar value (surrogates, beyond
// U+10FFFF, overflowing \U) are lexer errors rather than U+FFFD.
func TestLexUnicodeEscapes(t *testing.T) {
	for _, tc := range []struct {
		src  string
		kind TokKind
		want string
	}{
		{`"caf\u00e9"`, TokString, "café"},
		{`"\U0001F600"`, TokString, "\U0001F600"},
		{`'x\u0041y'`, TokString, "xAy"},
		{`<http://x/caf\u00E9>`, TokIRIRef, "http://x/café"},
		{`<http://x/\U0001F600>`, TokIRIRef, "http://x/\U0001F600"},
	} {
		tok, err := NewLexer(tc.src).Next()
		if err != nil || tok.Kind != tc.kind || tok.Val != tc.want {
			t.Errorf("lex %s = %q (kind %v), %v; want %q", tc.src, tok.Val, tok.Kind, err, tc.want)
		}
	}
	for _, src := range []string{
		`"\uD800x"`,         // lone high surrogate
		`"\uDFFF"`,          // lone low surrogate
		`"\U00110000"`,      // beyond U+10FFFF
		`"\UFFFFFFFF"`,      // overflows a rune
		`"\U7FFFFFFF"`,      // positive, still beyond U+10FFFF
		`"""\uD834"""`,      // long strings share the check
		`'\U0000D800'`,      // surrogate through \U
		`<http://x/\uD800>`, // IRIs share the check
	} {
		tok, err := NewLexer(src).Next()
		if err == nil || !strings.Contains(err.Error(), "invalid code point") {
			t.Errorf("lex %s = %q, %v; want an invalid code point error", src, tok.Val, err)
		}
	}
}

func TestParseErrorPositions(t *testing.T) {
	_, err := ParseQuery("SELECT *\nWHERE { ?s ?p }")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error lacks position: %v", err)
	}
}

func TestParseExprPrecedence(t *testing.T) {
	p, err := NewParser(`?a + ?b * ?c = ?d || ?e && ?f`)
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.ParseExpr()
	if err != nil {
		t.Fatal(err)
	}
	// * binds tighter than +, = tighter than &&, && tighter than ||.
	want := "(((?a + (?b * ?c)) = ?d) || (?e && ?f))"
	if got := e.String(); got != want {
		t.Errorf("precedence tree = %s, want %s", got, want)
	}
}

func TestParseIRIVsLessThan(t *testing.T) {
	q, err := ParseQuery(`SELECT * WHERE { ?s ?p ?o . FILTER (?o < 5 && ?s = <http://e/x>) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where.Filters) != 1 {
		t.Fatal("filter missing")
	}
	if !strings.Contains(q.Where.Filters[0].String(), "<http://e/x>") {
		t.Errorf("IRI lost: %s", q.Where.Filters[0])
	}
}

func TestParseBooleanLiterals(t *testing.T) {
	q, err := ParseQuery(`SELECT * WHERE { ?s ?p true . FILTER (?x = false) }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Where.Triples[0].O.Term != rdf.BooleanLiteral(true) {
		t.Errorf("object = %v", q.Where.Triples[0].O)
	}
}

func TestParseTypedAndLangLiterals(t *testing.T) {
	q, err := ParseQuery(`
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT * WHERE { ?s ?p "2009"^^xsd:int . ?s ?q "hi"@en . }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Where.Triples[0].O.Term != rdf.TypedLiteral("2009", rdf.XSDInt) {
		t.Errorf("typed literal = %v", q.Where.Triples[0].O)
	}
	if q.Where.Triples[1].O.Term != rdf.LangLiteral("hi", "en") {
		t.Errorf("lang literal = %v", q.Where.Triples[1].O)
	}
}

func TestGroupVars(t *testing.T) {
	q, err := ParseQuery(`
PREFIX ex: <http://e/>
SELECT * WHERE {
  ?s ex:p ?o .
  OPTIONAL { ?s ex:q ?extra . }
  { ?s ex:r ?u1 . } UNION { ?s ex:r ?u2 . }
}`)
	if err != nil {
		t.Fatal(err)
	}
	got := q.Where.Vars()
	want := []string{"extra", "o", "s", "u1", "u2"}
	if len(got) != len(want) {
		t.Fatalf("Vars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", got, want)
		}
	}
}

func TestDollarVariables(t *testing.T) {
	q, err := ParseQuery(`SELECT $x WHERE { $x ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Vars[0] != "x" {
		t.Errorf("dollar var = %v", q.Vars)
	}
}

// TestParseNonASCIINames: variables, prefixes, local names and blank
// node labels take Unicode letters and digits, and columns count runes.
func TestParseNonASCIINames(t *testing.T) {
	q, err := ParseQuery(`PREFIX é: <http://x/> PREFIX ex: <http://e/>
SELECT ?café WHERE { _:bé ex:naïve ?café . ?café é:日本 ?straße }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Vars) != 1 || q.Vars[0] != "café" {
		t.Errorf("Vars = %v", q.Vars)
	}
	tp := q.Where.Triples[0]
	if tp.S.Term != rdf.Blank("bé") || tp.P.Term != rdf.IRI("http://e/naïve") {
		t.Errorf("first pattern = %v %v", tp.S, tp.P)
	}
	if p := q.Where.Triples[1].P.Term; p != rdf.IRI("http://x/日本") {
		t.Errorf("é: name expanded to %v", p)
	}
	_, err = ParseQuery("SELECT ?café WHERE { ?café }")
	if err == nil || !strings.Contains(err.Error(), "col 28") {
		t.Errorf("error %v, want it at col 28 (runes, not bytes)", err)
	}
}

// TestParseBaseResolution: a fragment reference replaces the base's
// fragment, as in Turtle.
func TestParseBaseResolution(t *testing.T) {
	q, err := ParseQuery(`BASE <http://x/a#> SELECT * WHERE { <#b> ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if s := q.Where.Triples[0].S.Term; s != rdf.IRI("http://x/a#b") {
		t.Errorf("<#b> resolved to %v, want http://x/a#b", s)
	}
}
