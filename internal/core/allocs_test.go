//go:build !race

// The race detector instruments allocations and randomly drops
// sync.Pool entries, so allocation counts only mean something without
// it.

package core

import (
	"testing"

	"ontoaccess/internal/rdf"
	"ontoaccess/internal/sparql"
)

type discardSink struct{}

func (discardSink) Head([]string) error           { return nil }
func (discardSink) Solution(sparql.Binding) error { return nil }
func (discardSink) Ask(bool) error                { return nil }
func (discardSink) Graph(*rdf.Graph) error        { return nil }

// TestReadPathAllocs gates the allocations of a plan-cache-hit
// pk-pinned point read through Query and through QueryStream, and the
// cost of one extra streamed row. The point-read ceilings are the
// counts the two read paths had before Query became a collecting sink
// over QueryStream (slot-bound execution brought them to 36 and 32 on
// go1.24). An extra row costs its two IRI strings — the subject and the
// mailbox — and nothing else: the executor projects into the cursor's
// reused buffer and the subject IRI is built without a map.
func TestReadPathAllocs(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	mustExec(t, m, paperPrologue+`INSERT DATA { ex:author7 foaf:family_name "Other" ; foaf:mbox <mailto:o@example.org> ; ont:team ex:team5 . }`)
	point := paperPrologue + `SELECT ?m WHERE { ex:author6 foaf:mbox ?m . }`
	oneRow := paperPrologue + `SELECT ?x ?m WHERE { ?x foaf:mbox ?m . } LIMIT 1`
	twoRows := paperPrologue + `SELECT ?x ?m WHERE { ?x foaf:mbox ?m . } LIMIT 2`
	for _, q := range []string{point, oneRow, twoRows} {
		if _, err := m.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	stream := func(q string) func() {
		return func() {
			if err := m.QueryStream(q, discardSink{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	const runs = 200
	query := testing.AllocsPerRun(runs, func() {
		if _, err := m.Query(point); err != nil {
			t.Fatal(err)
		}
	})
	streamed := testing.AllocsPerRun(runs, stream(point))
	extraRow := testing.AllocsPerRun(runs, stream(twoRows)) - testing.AllocsPerRun(runs, stream(oneRow))
	for _, g := range []struct {
		name       string
		got, limit float64
	}{
		{"Query point read", query, 42},
		{"QueryStream point read", streamed, 40},
		{"one extra streamed row", extraRow, 2},
	} {
		if g.got > g.limit {
			t.Errorf("%s: %v allocs, ceiling %v", g.name, g.got, g.limit)
		}
	}
	if compiled, fallback := m.QueryExecStats(); fallback != 0 || compiled == 0 {
		t.Errorf("exec stats = %d compiled, %d fallback; the gated reads must hit compiled plans", compiled, fallback)
	}
}
