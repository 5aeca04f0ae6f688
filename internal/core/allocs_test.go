//go:build !race

// The race detector instruments allocations and randomly drops
// sync.Pool entries, so allocation counts only mean something without
// it.

package core

import (
	"testing"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdf"
	"ontoaccess/internal/sparql"
)

// discardSink takes SELECT rows as slot rows, as the endpoint does.
type discardSink struct{}

func (discardSink) Head([]string) error           { return nil }
func (discardSink) Row(*sparql.Row) error         { return nil }
func (discardSink) Solution(sparql.Binding) error { return nil }
func (discardSink) Ask(bool) error                { return nil }
func (discardSink) Graph(*rdf.Graph) error        { return nil }

// TestReadPathAllocs gates the allocations of a plan-cache-hit
// pk-pinned point read through Query and through QueryStream, and the
// cost of one extra streamed row. The point-read ceilings are the
// counts on go1.24 once a hit ran the plan the executor prepared when
// the shape compiled and the storage probe stopped encoding its key
// (they were 37 and 31 while every hit re-planned the SELECT, 18 and 6
// while the pk index keyed on encoded strings, and Query's was 16 while
// the SQL text went through a bound copy of a second SELECT
// representation): QueryStream builds only the run's execution state,
// and Query adds the collected result and the SQL text
// sqlparser.Format prints for it. An
// extra row costs nothing: the executor projects into the cursor's
// reused buffer, and the subject and mailbox reach the row sink as raw
// cells of a pooled slot row — no Binding map and no IRI string is
// built.
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
	t.Logf("Query point read %v, QueryStream point read %v, extra row %v allocs", query, streamed, extraRow)
	for _, g := range []struct {
		name       string
		got, limit float64
	}{
		{"Query point read", query, 11},
		{"QueryStream point read", streamed, 4},
		{"one extra streamed row", extraRow, 0},
	} {
		if g.got > g.limit {
			t.Errorf("%s: %v allocs, ceiling %v", g.name, g.got, g.limit)
		}
	}
	if compiled, fallback := m.QueryExecStats(); fallback != 0 || compiled == 0 {
		t.Errorf("exec stats = %d compiled, %d fallback; the gated reads must hit compiled plans", compiled, fallback)
	}
}

// TestWritePathAllocs gates the allocations of a plan-cache-hit,
// pk-pinned keyed MODIFY through ExecuteString on a memory mediator:
// parse memo and bound plan both hit, and the scheduler commits it
// under one key shard. The two request strings alternate, so every run
// rewrites the mailbox. The ceiling is the count on go1.24 once the
// WHERE SELECT ran the plan prepared when the shape compiled, the
// indexes keyed INTEGER keys exactly and its feedback SQL was printed
// by sqlparser.Format straight from the prepared statement (112 while
// every execution re-planned it, 95 while every index probe and update
// encoded its key as a string, 79 while the feedback went through a
// bound copy of a second SELECT representation).
func TestWritePathAllocs(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	modify := func(box string) string {
		return paperPrologue + `MODIFY DELETE { ex:author6 foaf:mbox ?m . } INSERT { ex:author6 foaf:mbox <mailto:` +
			box + `@example.org> . } WHERE { ex:author6 foaf:mbox ?m . }`
	}
	reqs := [2]string{modify("a"), modify("b")}
	for _, r := range reqs {
		mustExec(t, m, r)
	}
	parses, plans, sched := m.ParseCacheStats(), m.ModifyPlanCacheStats(), m.SchedulerStats()
	const runs = 200
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		i++
		if _, err := m.ExecuteString(reqs[i%2]); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("keyed MODIFY %v allocs", got)
	if got > 74 {
		t.Errorf("keyed MODIFY: %v allocs, ceiling 74", got)
	}
	if hits := m.ParseCacheStats().Hits - parses.Hits; hits < runs {
		t.Errorf("parse memo hits = %d over %d runs; the gated writes must reuse the bound plan", hits, runs)
	}
	if s := m.ModifyPlanCacheStats(); s.Misses != plans.Misses {
		t.Errorf("modify plan cache missed %d times; the gated writes must not recompile", s.Misses-plans.Misses)
	}
	if s := m.SchedulerStats(); s.KeyedFallbacks != 0 || s.WholeTableBatches != sched.WholeTableBatches {
		t.Errorf("scheduler stats = %+v; the gated writes must stay keyed", s)
	}
}

// TestSubjectMatchAllocsFlat gates that a bound-subject match does not
// walk the link table: matching pub12 allocates the same with 1,000
// and with 10,000 other link rows.
func TestSubjectMatchAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		m := linkRowsMediator(t, n)
		var a float64
		m.DB().View(func(tx *rdb.Tx) error {
			vg := m.VirtualGraph(tx)
			s := rdf.IRI("http://example.org/db/pub12")
			a = testing.AllocsPerRun(20, func() {
				vg.Match(rdf.Triple{S: s}, func(rdf.Triple) bool { return true })
			})
			return nil
		})
		return a
	}
	if small, large := allocs(1_000), allocs(10_000); large != small {
		t.Errorf("subject match: %v allocs at 1,000 link rows, %v at 10,000", small, large)
	}
}
