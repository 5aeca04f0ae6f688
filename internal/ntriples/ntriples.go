// Package ntriples implements the line-based N-Triples exchange
// format. It is used by the dump/load tools and as the canonical
// diff-friendly representation when comparing the mediated RDF view
// of the database against the native triple store baseline.
package ntriples

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"ontoaccess/internal/rdf"
	"ontoaccess/internal/turtle"
)

// Write serializes a graph to w, one triple per line, in canonical
// sorted order.
func Write(w io.Writer, g *rdf.Graph) error {
	bw := bufio.NewWriter(w)
	for _, t := range g.Triples() {
		if _, err := fmt.Fprintln(bw, t.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Format returns the graph as an N-Triples string.
func Format(g *rdf.Graph) string {
	var b strings.Builder
	for _, t := range g.Triples() {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Read parses an N-Triples document from r. N-Triples is a strict
// subset of Turtle, so parsing is delegated to the Turtle parser
// after a cheap validation that no Turtle-only directives appear
// (which would indicate the caller is feeding the wrong format).
func Read(r io.Reader) (*rdf.Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseString(string(data))
}

// ParseString parses an N-Triples document from a string.
func ParseString(src string) (*rdf.Graph, error) {
	for i, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "@") || hasPrefixFold(trimmed, "PREFIX") || hasPrefixFold(trimmed, "BASE") {
			return nil, fmt.Errorf("ntriples: line %d: directives are not allowed in N-Triples", i+1)
		}
	}
	g, _, err := turtle.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("ntriples: %w", err)
	}
	return g, nil
}

// hasPrefixFold is strings.HasPrefix ignoring case, as Turtle matches
// its SPARQL-style directives.
func hasPrefixFold(s, prefix string) bool {
	return len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix)
}
