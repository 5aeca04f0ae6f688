package core

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ontoaccess/internal/rdf"
	"ontoaccess/internal/sparql"
)

// collectSink copies each solution's ?t value; a small per-row sleep
// stretches the cursor's lifetime so concurrent writers overlap it.
// With failAt set, the failAt-th solution fails with errSinkFull.
type collectSink struct {
	vars   []string
	titles []string
	delay  time.Duration
	failAt int
}

var errSinkFull = errors.New("sink full")

func (s *collectSink) Head(vars []string) error { s.vars = vars; return nil }
func (s *collectSink) Solution(b sparql.Binding) error {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	if s.failAt > 0 && len(s.titles)+1 == s.failAt {
		return errSinkFull
	}
	t, ok := b["t"]
	if !ok {
		return fmt.Errorf("solution lacks ?t: %v", b)
	}
	s.titles = append(s.titles, t.Value) // copy: the binding is reused
	return nil
}
func (s *collectSink) Ask(bool) error         { return fmt.Errorf("unexpected ASK") }
func (s *collectSink) Graph(*rdf.Graph) error { return fmt.Errorf("unexpected graph") }

// TestQueryStreamSnapshotUnderModifyStream holds streaming cursors
// open across a concurrent MODIFY stream (run it with -race). The
// writer rewrites every person's title to "S<k>" in one MODIFY per
// step; because a cursor pins one MVCC snapshot for its whole
// lifetime, every row of one stream must carry the same serial, and
// serials must be non-decreasing across consecutive streams.
func TestQueryStreamSnapshotUnderModifyStream(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, seedTeam5)
	const authors = 40
	var sb strings.Builder
	sb.WriteString(paperPrologue)
	sb.WriteString("INSERT DATA {\n")
	for i := 1; i <= authors; i++ {
		fmt.Fprintf(&sb, "  ex:author%d foaf:title \"S0\" ; foaf:family_name \"L%d\" ; foaf:mbox <mailto:a%d@example.org> ; ont:team ex:team5 .\n", i, i, i)
	}
	sb.WriteString("}")
	mustExec(t, m, sb.String())

	// The writer keeps rewriting titles until the reader has finished
	// its streams, so every stream is held open across live MODIFYs.
	const wantStreams = 5
	var readerDone atomic.Bool
	var steps atomic.Int64
	writerErr := make(chan error, 1)
	go func() {
		for k := 1; !readerDone.Load(); k++ {
			req := fmt.Sprintf(`%s
MODIFY
DELETE { ?x foaf:title ?t . }
INSERT { ?x foaf:title "S%d" . }
WHERE { ?x foaf:title ?t . }`, paperPrologue, k)
			if _, err := m.ExecuteString(req); err != nil {
				writerErr <- fmt.Errorf("step %d: %w", k, err)
				return
			}
			steps.Store(int64(k))
		}
		writerErr <- nil
	}()
	defer func() {
		readerDone.Store(true)
		if err := <-writerErr; err != nil {
			t.Fatal(err)
		}
	}()

	query := paperPrologue + `SELECT ?x ?t WHERE { ?x foaf:title ?t . }`
	lastSerial := -1
	streams := 0
	distinct := map[int]bool{}
	for streams < wantStreams {
		sink := &collectSink{delay: 100 * time.Microsecond}
		if err := m.QueryStream(query, sink); err != nil {
			t.Fatalf("stream %d: %v", streams, err)
		}
		if len(sink.titles) != authors {
			t.Fatalf("stream %d: %d rows, want %d", streams, len(sink.titles), authors)
		}
		serial, err := strconv.Atoi(strings.TrimPrefix(sink.titles[0], "S"))
		if err != nil {
			t.Fatalf("stream %d: bad title %q", streams, sink.titles[0])
		}
		for i, title := range sink.titles {
			if title != sink.titles[0] {
				t.Fatalf("stream %d row %d: title %q differs from row 0's %q — cursor read across snapshots",
					streams, i, title, sink.titles[0])
			}
		}
		if serial < lastSerial {
			t.Fatalf("stream %d: serial went backwards (%d after %d)", streams, serial, lastSerial)
		}
		lastSerial = serial
		distinct[serial] = true
		streams++
	}
	t.Logf("%d streams over %d MODIFY steps observed %d distinct snapshots",
		streams, steps.Load(), len(distinct))
}

// TestQueryStreamErrorContract pins the one error rule Query and
// QueryStream share: a compiled-path failure before anything reaches
// the sink falls back silently to the uncompiled path; a failure after
// that is returned as-is.
func TestQueryStreamErrorContract(t *testing.T) {
	m := paperMediator(t, Options{})
	baseline := paperMediator(t, Options{DisablePlanCache: true})
	for _, mm := range []*Mediator{m, baseline} {
		mustExec(t, mm, listing15)
		mustExec(t, mm, paperPrologue+`INSERT DATA { ex:author7 foaf:title "Dr" ; foaf:family_name "Other" ; foaf:mbox <mailto:o@example.org> ; ont:team ex:team5 . }`)
	}

	// A sink failing mid-stream: its error comes back and the query is
	// not re-run uncompiled behind the partial result.
	_, fallbackBefore := m.QueryExecStats()
	sink := &collectSink{failAt: 2}
	if err := m.QueryStream(paperPrologue+`SELECT ?x ?t WHERE { ?x foaf:title ?t . }`, sink); !errors.Is(err, errSinkFull) {
		t.Fatalf("QueryStream err = %v, want the sink's %v", err, errSinkFull)
	}
	if len(sink.titles) != 1 {
		t.Errorf("sink saw %d solutions before failing, want 1", len(sink.titles))
	}
	if _, fallback := m.QueryExecStats(); fallback != fallbackBefore {
		t.Errorf("fallback count moved %d -> %d after a post-delivery sink error", fallbackBefore, fallback)
	}
	// The uncompiled route runs its per-request plan through the same
	// runner: the sink's error comes back, the view never re-runs the
	// query, and the request counts as one fallback.
	_, fallbackBefore = baseline.QueryExecStats()
	sink = &collectSink{failAt: 2}
	if err := baseline.QueryStream(paperPrologue+`SELECT ?x ?t WHERE { ?x foaf:title ?t . }`, sink); !errors.Is(err, errSinkFull) {
		t.Fatalf("uncompiled QueryStream err = %v, want the sink's %v", err, errSinkFull)
	}
	if len(sink.titles) != 1 {
		t.Errorf("uncompiled: sink saw %d solutions before failing, want 1", len(sink.titles))
	}
	if _, fallback := baseline.QueryExecStats(); fallback != fallbackBefore+1 {
		t.Errorf("uncompiled: fallback count %d -> %d, want exactly one more", fallbackBefore, fallback)
	}

	// A plan that goes stale at bind: the shape compiles with two
	// distinct constant subjects joined on their team, and arguments
	// that merge them break the SELECT's structure. Both APIs fall back
	// to the uncompiled answer.
	distinct := paperPrologue + `SELECT ?t ?team WHERE { ex:author6 ont:team ?team . ex:author7 foaf:title ?t ; ont:team ?team . }`
	merged := paperPrologue + `SELECT ?t ?team WHERE { ex:author7 ont:team ?team . ex:author7 foaf:title ?t ; ont:team ?team . }`
	if _, err := m.Query(distinct); err != nil {
		t.Fatal(err)
	}
	q, err := sparql.ParseQuery(merged)
	if err != nil {
		t.Fatal(err)
	}
	key, args, nq, ok := normalizeQuery(q)
	if !ok {
		t.Fatal("merged-subject query not normalizable")
	}
	plan, ok := m.queryPlanForShape(key, len(args), q, nq)
	if !ok {
		t.Fatal("merged-subject shape did not compile")
	}
	if _, err := plan.bind(m, args); !errors.Is(err, errPlanStale) {
		t.Fatalf("bind err = %v, want errPlanStale", err)
	}
	want, err := baseline.Query(merged)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Solutions) != 1 {
		t.Fatalf("uncompiled answer has %d solutions, want 1", len(want.Solutions))
	}
	_, fallbackBefore = m.QueryExecStats()
	got, err := m.Query(merged)
	if err != nil {
		t.Fatal(err)
	}
	streamed := &collectSink{}
	if err := m.QueryStream(merged, streamed); err != nil {
		t.Fatal(err)
	}
	if _, fallback := m.QueryExecStats(); fallback != fallbackBefore+2 {
		t.Errorf("fallback count %d -> %d, want one fallback each for Query and QueryStream", fallbackBefore, fallback)
	}
	if !reflect.DeepEqual(got.Vars, want.Vars) || !reflect.DeepEqual(got.Solutions, want.Solutions) || got.SQL != want.SQL {
		t.Errorf("stale-plan Query = %v %v (SQL %q), uncompiled %v %v (SQL %q)",
			got.Vars, got.Solutions, got.SQL, want.Vars, want.Solutions, want.SQL)
	}
	if !reflect.DeepEqual(streamed.vars, want.Vars) || len(streamed.titles) != 1 || streamed.titles[0] != want.Solutions[0]["t"].Value {
		t.Errorf("stale-plan QueryStream = %v %v, uncompiled %v %v", streamed.vars, streamed.titles, want.Vars, want.Solutions)
	}
}

// TestQueryStreamRowBufferLifetime pins that the executor's reused row
// buffer is never observed after its callback returns: compiled
// CONSTRUCT and DISTINCT queries streamed into a copying sink (and run
// through Query) match the uncompiled reference.
func TestQueryStreamRowBufferLifetime(t *testing.T) {
	m := paperMediator(t, Options{})
	ref := paperMediator(t, Options{DisablePlanCache: true})
	for _, mm := range []*Mediator{m, ref} {
		mustExec(t, mm, listing15)
		mustExec(t, mm, paperPrologue+`INSERT DATA { ex:team6 foaf:name "Database Technology" ; ont:teamCode "DBTG" . }`)
		for i := 7; i <= 12; i++ {
			mustExec(t, mm, fmt.Sprintf(paperPrologue+`INSERT DATA { ex:author%d foaf:family_name "Name%d" ; foaf:mbox <mailto:a%d@example.org> ; ont:team ex:team%d . }`, i, i, i, 5+i%2))
		}
	}
	for _, q := range []string{
		`CONSTRUCT { ?x foaf:mbox ?m . ?x ont:team ?t . } WHERE { ?x foaf:mbox ?m ; ont:team ?t . }`,
		`SELECT DISTINCT ?t WHERE { ?x ont:team ?t . }`,
		`SELECT DISTINCT ?x ?l WHERE { ?x foaf:family_name ?l ; ont:team ?t . }`,
	} {
		q = paperPrologue + q
		want, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		compiled, _ := m.QueryExecStats()
		c := &resultCollector{}
		if err := m.QueryStream(q, c); err != nil {
			t.Fatal(err)
		}
		got, err := m.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if after, _ := m.QueryExecStats(); after != compiled+2 {
			t.Fatalf("%s: not served by a compiled plan", q)
		}
		for _, r := range []*QueryResult{&c.res, got} {
			if want.Graph != nil {
				if r.Graph == nil || !r.Graph.Equal(want.Graph) || r.Graph.Len() < 2 {
					t.Errorf("%s: graph %v, uncompiled %v", q, r.Graph, want.Graph)
				}
				continue
			}
			if !reflect.DeepEqual(r.Vars, want.Vars) || !reflect.DeepEqual(r.Solutions, want.Solutions) || len(want.Solutions) < 2 {
				t.Errorf("%s: %v %v, uncompiled %v %v", q, r.Vars, r.Solutions, want.Vars, want.Solutions)
			}
		}
	}
}
