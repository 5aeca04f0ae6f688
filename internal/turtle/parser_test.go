package turtle

import (
	"strings"
	"testing"

	"ontoaccess/internal/rdf"
)

func mustParse(t *testing.T, src string) *rdf.Graph {
	t.Helper()
	g, _, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse failed: %v\nsource:\n%s", err, src)
	}
	return g
}

func TestParseSimpleTriple(t *testing.T) {
	g := mustParse(t, `<http://e/s> <http://e/p> <http://e/o> .`)
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
	want := rdf.NewTriple(rdf.IRI("http://e/s"), rdf.IRI("http://e/p"), rdf.IRI("http://e/o"))
	if !g.Contains(want) {
		t.Fatalf("missing %v, got %v", want, g.Triples())
	}
}

func TestParsePrefixAndA(t *testing.T) {
	g := mustParse(t, `
@prefix foaf: <http://xmlns.com/foaf/0.1/> .
@prefix ex: <http://example.org/db/> .
ex:author6 a foaf:Person .
`)
	want := rdf.NewTriple(
		rdf.IRI("http://example.org/db/author6"),
		rdf.IRI(rdf.RDFType),
		rdf.IRI("http://xmlns.com/foaf/0.1/Person"))
	if !g.Contains(want) {
		t.Fatalf("got %v", g.Triples())
	}
}

func TestParseSparqlStylePrefix(t *testing.T) {
	g := mustParse(t, `
PREFIX ex: <http://example.org/>
ex:s ex:p ex:o .
`)
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
}

func TestParsePredicateObjectLists(t *testing.T) {
	// The exact shape of the paper's Listing 9.
	src := `
@prefix foaf: <http://xmlns.com/foaf/0.1/> .
@prefix ont: <http://example.org/ontology#> .
@prefix ex: <http://example.org/db/> .

ex:author6 foaf:title "Mr" ;
    foaf:firstName "Matthias" ;
    foaf:family_name "Hert" ;
    foaf:mbox <mailto:hert@ifi.uzh.ch> ;
    ont:team ex:team5 .
`
	g := mustParse(t, src)
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5:\n%s", g.Len(), g)
	}
	if !g.Contains(rdf.NewTriple(
		rdf.IRI("http://example.org/db/author6"),
		rdf.IRI("http://xmlns.com/foaf/0.1/mbox"),
		rdf.IRI("mailto:hert@ifi.uzh.ch"))) {
		t.Error("mbox triple missing")
	}
	if !g.Contains(rdf.NewTriple(
		rdf.IRI("http://example.org/db/author6"),
		rdf.IRI("http://example.org/ontology#team"),
		rdf.IRI("http://example.org/db/team5"))) {
		t.Error("team triple missing")
	}
}

func TestParseObjectList(t *testing.T) {
	g := mustParse(t, `
@prefix ex: <http://e/> .
ex:s ex:p ex:a , ex:b , ex:c .
`)
	if g.Len() != 3 {
		t.Fatalf("Len = %d, want 3", g.Len())
	}
}

func TestParseLiterals(t *testing.T) {
	g := mustParse(t, `
@prefix ex: <http://e/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:s ex:str "plain" ;
     ex:lang "hello"@en ;
     ex:typed "2009"^^xsd:int ;
     ex:int 42 ;
     ex:neg -7 ;
     ex:dec 3.14 ;
     ex:dbl 1.0e6 ;
     ex:bool true ;
     ex:esc "a\"b\nc" ;
     ex:long """multi
line""" .
`)
	s := rdf.IRI("http://e/s")
	checks := []rdf.Triple{
		{S: s, P: rdf.IRI("http://e/str"), O: rdf.Literal("plain")},
		{S: s, P: rdf.IRI("http://e/lang"), O: rdf.LangLiteral("hello", "en")},
		{S: s, P: rdf.IRI("http://e/typed"), O: rdf.TypedLiteral("2009", rdf.XSDInt)},
		{S: s, P: rdf.IRI("http://e/int"), O: rdf.TypedLiteral("42", rdf.XSDInteger)},
		{S: s, P: rdf.IRI("http://e/neg"), O: rdf.TypedLiteral("-7", rdf.XSDInteger)},
		{S: s, P: rdf.IRI("http://e/dec"), O: rdf.TypedLiteral("3.14", rdf.XSDDecimal)},
		{S: s, P: rdf.IRI("http://e/dbl"), O: rdf.TypedLiteral("1.0e6", rdf.XSDDouble)},
		{S: s, P: rdf.IRI("http://e/bool"), O: rdf.BooleanLiteral(true)},
		{S: s, P: rdf.IRI("http://e/esc"), O: rdf.Literal("a\"b\nc")},
		{S: s, P: rdf.IRI("http://e/long"), O: rdf.Literal("multi\nline")},
	}
	for _, want := range checks {
		if !g.Contains(want) {
			t.Errorf("missing triple %v", want)
		}
	}
}

func TestParseBlankNodePropertyList(t *testing.T) {
	// The R3M constraint idiom from the paper's Listing 3.
	src := `
@prefix r3m: <http://ontoaccess.org/r3m#> .
@prefix map: <http://example.org/mapping#> .
@prefix ont: <http://example.org/ontology#> .

map:author_team a r3m:AttributeMap ;
    r3m:hasAttributeName "team" ;
    r3m:mapsToObjectProperty ont:team ;
    r3m:hasConstraint [ a r3m:ForeignKey ;
                        r3m:references map:team ] .
`
	g := mustParse(t, src)
	if g.Len() != 6 {
		t.Fatalf("Len = %d, want 6:\n%s", g.Len(), g)
	}
	// Find the constraint blank node via hasConstraint.
	var bnode rdf.Term
	g.Each(func(tr rdf.Triple) bool {
		if tr.P == rdf.IRI("http://ontoaccess.org/r3m#hasConstraint") {
			bnode = tr.O
			return false
		}
		return true
	})
	if !bnode.IsBlank() {
		t.Fatalf("hasConstraint object should be blank node, got %v", bnode)
	}
	if !g.Contains(rdf.NewTriple(bnode, rdf.IRI(rdf.RDFType), rdf.IRI("http://ontoaccess.org/r3m#ForeignKey"))) {
		t.Error("blank node type triple missing")
	}
	if !g.Contains(rdf.NewTriple(bnode, rdf.IRI("http://ontoaccess.org/r3m#references"), rdf.IRI("http://example.org/mapping#team"))) {
		t.Error("references triple missing")
	}
}

func TestParseAnonBlankAndLabeledBlank(t *testing.T) {
	g := mustParse(t, `
@prefix ex: <http://e/> .
ex:s ex:p [] .
_:b1 ex:q ex:o .
`)
	if g.Len() != 2 {
		t.Fatalf("Len = %d", g.Len())
	}
	if !g.Contains(rdf.NewTriple(rdf.Blank("b1"), rdf.IRI("http://e/q"), rdf.IRI("http://e/o"))) {
		t.Error("labeled blank triple missing")
	}
}

func TestParseBlankSubjectPropertyList(t *testing.T) {
	g := mustParse(t, `
@prefix ex: <http://e/> .
[ ex:p ex:o ] .
[ ex:p ex:o2 ] ex:q ex:r .
`)
	if g.Len() != 3 {
		t.Fatalf("Len = %d, want 3:\n%s", g.Len(), g)
	}
}

func TestParseBase(t *testing.T) {
	g := mustParse(t, `
@base <http://example.org/db/> .
<author1> <p> <author2> .
`)
	if !g.Contains(rdf.NewTriple(
		rdf.IRI("http://example.org/db/author1"),
		rdf.IRI("http://example.org/db/p"),
		rdf.IRI("http://example.org/db/author2"))) {
		t.Fatalf("base resolution failed: %v", g.Triples())
	}
}

// TestParseBaseFragment: a fragment reference replaces the base's
// fragment instead of adding a second one.
func TestParseBaseFragment(t *testing.T) {
	g := mustParse(t, `@base <http://x/a#> . <#b> <http://x/p> <#c> .`)
	if !g.Contains(rdf.NewTriple(rdf.IRI("http://x/a#b"), rdf.IRI("http://x/p"), rdf.IRI("http://x/a#c"))) {
		t.Fatalf("fragment resolution failed: %v", g.Triples())
	}
}

// TestParseDirectivesAnyCase: SPARQL-style PREFIX and BASE match in any
// case (Turtle 1.1); the '@' forms and the bare words a / true / false
// do not.
func TestParseDirectivesAnyCase(t *testing.T) {
	g := mustParse(t, `Prefix ex: <http://e/>
base <http://b/>
ex:s ex:p <o> .`)
	if !g.Contains(rdf.NewTriple(rdf.IRI("http://e/s"), rdf.IRI("http://e/p"), rdf.IRI("http://b/o"))) {
		t.Fatalf("got %v", g.Triples())
	}
	for _, src := range []string{`@PREFIX ex: <http://e/> .`, `<http://e/s> <http://e/p> TRUE .`, `<http://e/s> A <http://e/o> .`} {
		if _, _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// TestParseNonASCIINames: prefixes, local names and blank node labels
// take Unicode letters and digits, and columns count runes.
func TestParseNonASCIINames(t *testing.T) {
	g := mustParse(t, `PREFIX é: <http://x/>
@prefix ex: <http://e/> .
_:bé ex:naïve é:日本 .`)
	if !g.Contains(rdf.NewTriple(rdf.Blank("bé"), rdf.IRI("http://e/naïve"), rdf.IRI("http://x/日本"))) {
		t.Fatalf("got %v", g.Triples())
	}
	_, _, err := Parse(`<http://e/é> <http://e/p> ?`)
	if err == nil || !strings.Contains(err.Error(), "col 27") {
		t.Errorf("error %v, want it at col 27 (runes, not bytes)", err)
	}
}

func TestParseComments(t *testing.T) {
	g := mustParse(t, `
# leading comment
@prefix ex: <http://e/> . # trailing comment
ex:s ex:p ex:o . # done
`)
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	g := mustParse(t, `
@prefix ex: <http://e/> .
ex:s ex:p ex:o ; .
`)
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []struct {
		name, src string
	}{
		{"unterminated iri", `<http://e/s`},
		{"unterminated string", `<http://e/s> <http://e/p> "abc`},
		{"missing dot", `<http://e/s> <http://e/p> <http://e/o>`},
		{"unknown prefix", `ex:s ex:p ex:o .`},
		{"bare word", `hello <http://e/p> <http://e/o> .`},
		{"collection", `<http://e/s> <http://e/p> (1 2) .`},
		{"literal subject", `"s" <http://e/p> <http://e/o> .`},
		{"bad escape", `<http://e/s> <http://e/p> "a\x" .`},
		{"bad unicode escape", `<http://e/s> <http://e/p> "\u00G0" .`},
		{"newline in short string", "<http://e/s> <http://e/p> \"a\nb\" ."},
		{"prefix without colon", `@prefix ex <http://e/> .`},
		{"prefix without dot", `@prefix ex: <http://e/>`},
		{"single caret", `<http://e/s> <http://e/p> "x"^<http://t> .`},
		{"space in iri", `<http://e/a b> <http://e/p> <http://e/o> .`},
		{"empty blank label", `_: <http://e/p> <http://e/o> .`},
		{"lonely semicolon", `;`},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := Parse(tc.src); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", tc.src)
			}
		})
	}
}

func TestParseErrorsCarryPosition(t *testing.T) {
	_, _, err := Parse("<http://e/s> <http://e/p>\n  bogus .")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q lacks line info", err)
	}
}

func TestParseUnicodeEscapes(t *testing.T) {
	g := mustParse(t, `<http://e/s> <http://e/p> "Zürich" .`)
	if !g.Contains(rdf.NewTriple(rdf.IRI("http://e/s"), rdf.IRI("http://e/p"), rdf.Literal("Zürich"))) {
		t.Fatalf("unicode escape mishandled: %v", g.Triples())
	}
	g = mustParse(t, `<http://e/s> <http://e/p> "\U0001F600" .`)
	if !g.Contains(rdf.NewTriple(rdf.IRI("http://e/s"), rdf.IRI("http://e/p"), rdf.Literal("😀"))) {
		t.Fatalf("long unicode escape mishandled")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse must panic on bad input")
		}
	}()
	MustParse("not turtle at all ~~~")
}

func TestParsePercentInLocalName(t *testing.T) {
	// URI patterns like author%%id%% can appear in IRIs when mappings
	// are written compactly; ensure the lexer tolerates %.
	g := mustParse(t, `@prefix ex: <http://e/> .
ex:author%25 ex:p ex:o .`)
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
}
