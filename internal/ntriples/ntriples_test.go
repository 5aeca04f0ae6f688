package ntriples

import (
	"bytes"
	"strings"
	"testing"

	"ontoaccess/internal/rdf"
)

func sample() *rdf.Graph {
	return rdf.NewGraph(
		rdf.NewTriple(rdf.IRI("http://e/s"), rdf.IRI("http://e/p"), rdf.Literal("o")),
		rdf.NewTriple(rdf.IRI("http://e/s"), rdf.IRI("http://e/q"), rdf.IntegerLiteral(5)),
		rdf.NewTriple(rdf.Blank("b"), rdf.IRI("http://e/p"), rdf.LangLiteral("x", "de")),
	)
}

func TestFormatAndParseRoundTrip(t *testing.T) {
	g := sample()
	text := Format(g)
	g2, err := ParseString(text)
	if err != nil {
		t.Fatalf("ParseString: %v\n%s", err, text)
	}
	if !g.Equal(g2) {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", Format(g), Format(g2))
	}
}

func TestWriteRead(t *testing.T) {
	g := sample()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(g2) {
		t.Error("Write/Read round trip mismatch")
	}
}

func TestFormatDeterministic(t *testing.T) {
	a, b := Format(sample()), Format(sample())
	if a != b {
		t.Error("Format must be deterministic")
	}
	lines := strings.Split(strings.TrimSpace(a), "\n")
	if len(lines) != 3 {
		t.Fatalf("line count = %d", len(lines))
	}
	for _, l := range lines {
		if !strings.HasSuffix(l, " .") {
			t.Errorf("line %q must end with ' .'", l)
		}
	}
}

func TestRejectDirectives(t *testing.T) {
	if _, err := ParseString("@prefix ex: <http://e/> .\nex:s ex:p ex:o ."); err == nil {
		t.Error("directives must be rejected")
	}
	for _, src := range []string{"PREFIX ex: <http://e/>", "prefix ex: <http://e/>", "Base <http://e/>"} {
		if _, err := ParseString(src); err == nil {
			t.Errorf("SPARQL-style directive %q must be rejected", src)
		}
	}
}

func TestParseBadTriple(t *testing.T) {
	if _, err := ParseString("<http://e/s> <http://e/p> ."); err == nil {
		t.Error("truncated triple must fail")
	}
}
