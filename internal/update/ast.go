// Package update implements the SPARQL/Update data manipulation
// language of the W3C member submission the paper builds on
// (Seaborne et al., 2008): INSERT DATA, DELETE DATA and MODIFY, plus
// CLEAR as a convenience extension.
//
// The parser is layered on the shared SPARQL machinery in package
// sparql, mirroring the paper's observation that SPARQL/Update reuses
// the SPARQL grammar. The package also contains the *native*
// application semantics (Apply) used by the triple-store baseline;
// the OntoAccess translation of these operations to SQL DML lives in
// package core.
package update

import (
	"strings"

	"ontoaccess/internal/rdf"
	"ontoaccess/internal/sparql"
)

// Operation is one SPARQL/Update operation.
type Operation interface {
	// Kind returns the operation's keyword form, e.g. "INSERT DATA".
	Kind() string
	// String renders the operation in SPARQL/Update syntax.
	String() string
}

// InsertData inserts a set of ground triples (paper Listing 6).
type InsertData struct {
	Triples []rdf.Triple
}

// Kind implements Operation.
func (InsertData) Kind() string { return "INSERT DATA" }

func (op InsertData) String() string { return renderDataOp("INSERT DATA", op.Triples) }

// DeleteData removes a set of ground triples (paper Listing 7).
type DeleteData struct {
	Triples []rdf.Triple
}

// Kind implements Operation.
func (DeleteData) Kind() string { return "DELETE DATA" }

func (op DeleteData) String() string { return renderDataOp("DELETE DATA", op.Triples) }

// Modify deletes and/or inserts triples built from templates that are
// instantiated against the solutions of a shared WHERE pattern (paper
// Listing 8). Either template list may be empty, covering the member
// submission's standalone DELETE/INSERT forms.
type Modify struct {
	Delete []sparql.TriplePattern
	Insert []sparql.TriplePattern
	Where  *sparql.GroupPattern
}

// Kind implements Operation.
func (Modify) Kind() string { return "MODIFY" }

func (op Modify) String() string {
	var b strings.Builder
	b.WriteString("MODIFY\nDELETE {\n")
	for _, tp := range op.Delete {
		b.WriteString("  " + tp.String() + "\n")
	}
	b.WriteString("}\nINSERT {\n")
	for _, tp := range op.Insert {
		b.WriteString("  " + tp.String() + "\n")
	}
	b.WriteString("}\nWHERE {\n")
	if op.Where != nil {
		for _, tp := range op.Where.Triples {
			b.WriteString("  " + tp.String() + "\n")
		}
		for _, f := range op.Where.Filters {
			b.WriteString("  FILTER (" + f.String() + ")\n") // a bare variable or constant needs the brackets
		}
	}
	b.WriteString("}")
	return b.String()
}

// Clear removes all triples (extension; the member submission's CLEAR
// with no graph argument).
type Clear struct{}

// Kind implements Operation.
func (Clear) Kind() string { return "CLEAR" }

func (Clear) String() string { return "CLEAR" }

// Request is a parsed SPARQL/Update request: a shared prologue and
// one or more operations, executed in order.
type Request struct {
	Prefixes *rdf.PrefixMap
	Ops      []Operation
}

// String renders the whole request.
func (r *Request) String() string {
	parts := make([]string, len(r.Ops))
	for i, op := range r.Ops {
		parts[i] = op.String()
	}
	return strings.Join(parts, "\n")
}

func renderDataOp(kw string, triples []rdf.Triple) string {
	var b strings.Builder
	b.WriteString(kw + " {\n")
	for _, t := range triples {
		b.WriteString("  " + t.String() + "\n")
	}
	b.WriteString("}")
	return b.String()
}
