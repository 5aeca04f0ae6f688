package endpoint

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"ontoaccess/internal/core"
	"ontoaccess/internal/ntriples"
	"ontoaccess/internal/rdf"
	"ontoaccess/internal/sparql"
	"ontoaccess/internal/turtle"
	"ontoaccess/internal/workload"
)

// get performs a GET /sparql with an optional Accept header through
// the in-process handler, prefixing the workload's prologue.
func get(t *testing.T, s *Server, query, accept string) *httptest.ResponseRecorder {
	t.Helper()
	return getQuery(t, s, workload.Prologue+query, accept)
}

// getQuery performs a GET /sparql of a complete query text.
func getQuery(t *testing.T, s *Server, query, accept string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(query), nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestStreamedResponseParity pins the streaming endpoint byte for byte
// to the buffered rendering of the uncompiled reference — a second
// mediator with the plan cache off, since Query and QueryStream share
// one driver — across every query regime: plain cursor-streamed
// SELECTs, the materialize-then-replay shapes (DISTINCT, ORDER BY,
// LIMIT/OFFSET, aggregates), OPTIONAL with unbound variables, UNION,
// the uncompiled expression fallback, empty results, ASK and CONSTRUCT
// — each in both the text table and SPARQL-results-JSON renderings.
// The server runs with shedding and deadlines armed; this clean mixed
// traffic must use both response modes and trip neither.
func TestStreamedResponseParity(t *testing.T) {
	_, m := newServer(t)
	s := NewWithOptions(m, Options{MaxInFlight: 32, RequestTimeout: 30 * time.Second})
	ref, err := workload.NewMediator(core.Options{DisablePlanCache: true})
	if err != nil {
		t.Fatal(err)
	}
	updates := []string{workload.Listing15}
	g := workload.NewGenerator(7)
	for i := 1; i <= 9; i++ {
		updates = append(updates, g.AuthorInsert(i))
	}
	// Some generated authors reference teams that do not exist; both
	// mediators must refuse exactly those.
	for _, u := range updates {
		rec := post(t, s, "/update", "application/sparql-update", u)
		if _, err := ref.ExecuteString(u); (err == nil) != (rec.Code == http.StatusOK) {
			t.Fatalf("update outcome diverges: endpoint status %d, reference error %v", rec.Code, err)
		}
	}

	queries := []string{
		`SELECT ?x ?m WHERE { ?x foaf:mbox ?m . }`,
		`SELECT DISTINCT ?t WHERE { ?x foaf:title ?t . }`,
		`SELECT ?l WHERE { ?x foaf:family_name ?l . } ORDER BY ?l`,
		`SELECT ?l WHERE { ?x foaf:family_name ?l . } ORDER BY ?l LIMIT 3 OFFSET 2`,
		`SELECT ?m WHERE { ?x foaf:mbox ?m . } LIMIT 4`,
		`SELECT ?m WHERE { ?x foaf:mbox ?m . } LIMIT 4 OFFSET 3`,
		`SELECT ?x ?f ?m WHERE { ?x foaf:firstName ?f . OPTIONAL { ?x foaf:mbox ?m . } }`,
		`SELECT ?n WHERE { { ?x foaf:name ?n . } UNION { ?x foaf:firstName ?n . } }`,
		`SELECT ?x WHERE { ?x foaf:family_name ?l . FILTER (STR(?l) = "Hert") }`,
		`SELECT (COUNT(?x) AS ?n) WHERE { ?x foaf:mbox ?m . }`,
		`SELECT ?n WHERE { ex:nosuchthing foaf:name ?n . }`,
		`ASK { ex:team5 foaf:name "Software Engineering" . }`,
		`ASK { ex:team5 foaf:name "No Such Team" . }`,
	}
	for _, q := range queries {
		checkResponseParity(t, s, ref, workload.Prologue+q, false)
	}

	// CONSTRUCT streams Turtle subject block by subject block.
	cq := `CONSTRUCT { ?x foaf:name ?n . } WHERE { ?x foaf:name ?n . }`
	res, err := ref.Query(workload.Prologue + cq)
	if err != nil {
		t.Fatal(err)
	}
	want := turtle.Serialize(res.Graph, rdf.CommonPrefixes())
	if rec := get(t, s, cq, ""); rec.Code != http.StatusOK || rec.Body.String() != want {
		t.Errorf("CONSTRUCT parity broken (status %d):\ngot:\n%s\nwant:\n%s", rec.Code, rec.Body, want)
	}

	// /export parity in both formats.
	eg, err := m.Export()
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/export", nil)
	req.Header.Set("Accept", "application/n-triples")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Body.String() != ntriples.Format(eg) {
		t.Errorf("export N-Triples parity broken (status %d)", rec.Code)
	}
	req = httptest.NewRequest(http.MethodGet, "/export", nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Body.String() != turtle.Serialize(eg, rdf.CommonPrefixes()) {
		t.Errorf("export Turtle parity broken (status %d)", rec.Code)
	}

	if st := s.Stats(); st.Streamed == 0 || st.Buffered == 0 || st.BytesWritten == 0 ||
		st.Shed != 0 || st.TimedOut != 0 || st.Truncated != 0 {
		t.Errorf("endpoint stats after clean mixed traffic: %+v", st)
	}
}

// checkResponseParity requires the endpoint's text and JSON responses
// to query to equal the buffered renderings (FormatTable, ResultsJSON,
// AskJSON) of ref.Query's result. refuses says ref must fail the
// query instead; both responses must then be a clean 400 carrying
// ref's error.
func checkResponseParity(t *testing.T, s *Server, ref *core.Mediator, query string, refuses bool) {
	t.Helper()
	var wantText, wantJSON string
	wantStatus := http.StatusOK
	res, err := ref.Query(query)
	if (err != nil) != refuses {
		t.Fatalf("reference outcome for %q: error %v, want refusal %v", query, err, refuses)
	}
	switch {
	case err != nil:
		wantStatus, wantText, wantJSON = http.StatusBadRequest, err.Error()+"\n", err.Error()+"\n"
	case res.Form == sparql.FormAsk:
		wantText = fmt.Sprintf("%v\n", res.Bool)
		data, err := sparql.AskJSON(res.Bool)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON = string(data)
	default:
		wantText = sparql.FormatTable(res.Vars, res.Solutions)
		data, err := sparql.ResultsJSON(res.Vars, res.Solutions)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON = string(data)
	}
	if rec := getQuery(t, s, query, ""); rec.Code != wantStatus || rec.Body.String() != wantText {
		t.Errorf("text parity broken for %q (status %d, want %d):\ngot:\n%s\nwant:\n%s",
			query, rec.Code, wantStatus, rec.Body, wantText)
	}
	if rec := getQuery(t, s, query, "application/sparql-results+json"); rec.Code != wantStatus || rec.Body.String() != wantJSON {
		t.Errorf("JSON parity broken for %q (status %d, want %d):\ngot:\n%s\nwant:\n%s",
			query, rec.Code, wantStatus, rec.Body, wantJSON)
	}
}

// bigMediator seeds one shared read-only mediator with enough rows
// (~25k authors) that a full-scan response far exceeds the kernel's
// socket buffering — the lever the slow-client and mid-stream tests
// need. Built once; the hardening tests only read from it.
var bigMediator = sync.OnceValues(func() (*core.Mediator, error) {
	m, err := workload.NewMediator(core.Options{})
	if err != nil {
		return nil, err
	}
	if _, err := m.ExecuteString(seedTeamsSrc(20)); err != nil {
		return nil, err
	}
	for i := 0; i < 25000; i += 500 {
		var sb strings.Builder
		sb.WriteString(workload.Prologue)
		sb.WriteString("\nINSERT DATA {\n")
		for j := i + 1; j <= i+500; j++ {
			fmt.Fprintf(&sb, "  ex:author%d foaf:title \"Dr\" ; foaf:firstName \"F%d\" ; foaf:family_name \"L%d\" ; foaf:mbox <mailto:a%d@example.org> ; ont:team ex:team%d .\n",
				j, j, j, j, j%20+1)
		}
		sb.WriteString("}")
		if _, err := m.ExecuteString(sb.String()); err != nil {
			return nil, err
		}
	}
	return m, nil
})

func seedTeamsSrc(n int) string {
	var sb strings.Builder
	sb.WriteString(workload.Prologue)
	sb.WriteString("\nINSERT DATA {\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&sb, "  ex:team%d foaf:name \"Team %d\" ; ont:teamCode \"T%d\" .\n", i, i, i)
	}
	sb.WriteString("}")
	return sb.String()
}

const scanQuery = `SELECT ?x ?m WHERE { ?x foaf:mbox ?m . }`

// TestStreamErrorBeforeCommit pins the pre-commitment half of the
// mid-stream error contract: when nothing has reached the client yet,
// the staged buffer is dropped and the client sees a clean error
// status — 400 for query errors, 504 for an expired deadline — never
// a truncated body.
func TestStreamErrorBeforeCommit(t *testing.T) {
	s, _ := newServer(t)
	rec := get(t, s, `SELECT ?x WHERE { this is not sparql`, "")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("parse error status = %d, want 400", rec.Code)
	}
	if strings.Contains(rec.Body.String(), "?x") {
		t.Errorf("error response leaked partial result:\n%s", rec.Body)
	}

	m, err := bigMediator()
	if err != nil {
		t.Fatal(err)
	}
	// A deadline that has always already expired: the sink's first
	// context check fails before any byte is staged.
	st := NewWithOptions(m, Options{RequestTimeout: time.Nanosecond})
	rec = get(t, st, scanQuery, "application/sparql-results+json")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline status = %d, want 504; body:\n%s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "query timed out") {
		t.Errorf("504 body = %q", rec.Body.String())
	}
	if got := st.Stats(); got.TimedOut != 1 || got.Truncated != 0 {
		t.Errorf("stats = %+v, want TimedOut=1 Truncated=0", got)
	}

	// ASK is a whole-payload write, but it honors the deadline too: a
	// past-deadline ASK must 504, not serve a stale answer.
	rec = get(t, st, `ASK { ?x foaf:mbox ?m . }`, "")
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("expired-deadline ASK status = %d, want 504; body:\n%s", rec.Code, rec.Body)
	}
	if strings.Contains(rec.Body.String(), "true") {
		t.Errorf("expired-deadline ASK leaked a result:\n%s", rec.Body)
	}
	if got := st.Stats(); got.TimedOut != 2 {
		t.Errorf("stats = %+v, want TimedOut=2", got)
	}
}

// slowRead issues a GET against a live server, reads a first chunk,
// stalls past d, then drains the rest — forcing the server to commit
// the response head and then block on socket backpressure until the
// request deadline has passed.
func slowRead(t *testing.T, base, query, accept string, d time.Duration) (status int, body []byte, readErr error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/sparql?query="+url.QueryEscape(workload.Prologue+query), nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	first := make([]byte, 1024)
	n, err := io.ReadFull(resp.Body, first)
	if err != nil {
		t.Fatalf("reading response head: %v", err)
	}
	time.Sleep(d)
	rest, err := io.ReadAll(resp.Body)
	return resp.StatusCode, append(first[:n], rest...), err
}

// TestStreamErrorMidStreamTextTrailer pins the post-commitment
// contract for text bodies: once bytes are on the wire, an error
// cannot unsend them, so the stream ends with a comment trailer
// marking the truncation, and the truncated/timed-out counters tick.
// (The text table serializer only commits at Close — column widths are
// global — so this path is reached through write failures rather than
// per-row deadline checks; the contract is pinned at the failStream
// seam where both converge.)
func TestStreamErrorMidStreamTextTrailer(t *testing.T) {
	s, _ := newServer(t)
	rec := httptest.NewRecorder()
	cw := &countingResponseWriter{ResponseWriter: rec}
	bw := bufPool.Get().(*bufio.Writer)
	bw.Reset(cw)
	sink := &querySink{w: cw, bw: bw, ctx: context.Background()}
	if err := sink.Head([]string{"x"}); err != nil {
		t.Fatal(err)
	}
	// Commit a prefix to the client, as a filled staging buffer would.
	fmt.Fprint(bw, "x\n----\nrow1\n")
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !cw.committed() {
		t.Fatal("prefix did not commit")
	}

	s.failStream(cw, sink, fmt.Errorf("decode failed: %w", context.DeadlineExceeded))
	body := rec.Body.String()
	if !strings.HasPrefix(body, "x\n----\nrow1\n") {
		t.Fatalf("committed prefix was unsent:\n%s", body)
	}
	if !strings.Contains(body, "# ERROR:") || !strings.Contains(body, "(response truncated)") {
		t.Fatalf("truncated text body lacks the error trailer:\n%s", body)
	}
	if rec.Code != http.StatusOK {
		t.Errorf("status rewritten to %d after commit", rec.Code)
	}
	if got := s.Stats(); got.Truncated != 1 || got.TimedOut != 1 {
		t.Errorf("stats = %+v, want Truncated=1 TimedOut=1", got)
	}

	// The same failure before commit yields a clean 504 instead.
	rec2 := httptest.NewRecorder()
	cw2 := &countingResponseWriter{ResponseWriter: rec2}
	bw2 := bufPool.Get().(*bufio.Writer)
	bw2.Reset(cw2)
	sink2 := &querySink{w: cw2, bw: bw2, ctx: context.Background()}
	if err := sink2.Head([]string{"x"}); err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(bw2, "staged but never flushed")
	s.failStream(cw2, sink2, context.DeadlineExceeded)
	if rec2.Code != http.StatusGatewayTimeout {
		t.Errorf("pre-commit failure status = %d, want 504", rec2.Code)
	}
	if strings.Contains(rec2.Body.String(), "staged") {
		t.Errorf("staged bytes leaked into the error response:\n%s", rec2.Body)
	}
}

// TestStreamErrorMidStreamJSONAborts pins the JSON half: there is no
// in-band way to flag failure inside a JSON document that has started,
// so the endpoint aborts the chunked transfer — the client observes a
// transport-level error instead of parsing a truncated prefix as a
// complete result.
func TestStreamErrorMidStreamJSONAborts(t *testing.T) {
	m, err := bigMediator()
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithOptions(m, Options{RequestTimeout: 300 * time.Millisecond})
	ts := httptest.NewServer(s)
	defer ts.Close()

	status, _, readErr := slowRead(t, ts.URL, scanQuery, "application/sparql-results+json", 700*time.Millisecond)
	if status != http.StatusOK {
		t.Fatalf("status = %d (the head was committed before the deadline)", status)
	}
	if readErr == nil {
		t.Fatal("truncated JSON stream ended cleanly; want an aborted transfer")
	}
	if got := s.Stats(); got.Truncated != 1 || got.TimedOut != 1 {
		t.Errorf("stats = %+v, want Truncated=1 TimedOut=1", got)
	}
}

// TestLoadShedding saturates a MaxInFlight=1 endpoint with one pinned
// request and checks that concurrent requests get fast 503s with
// Retry-After instead of queueing, that the shed counter ticks, and
// that /healthz stays reachable and reports the saturation. The slot
// is pinned deterministically by a request whose body never finishes
// arriving — the handler blocks reading it, holding the semaphore,
// independent of socket buffer sizes.
func TestLoadShedding(t *testing.T) {
	m, err := bigMediator()
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithOptions(m, Options{MaxInFlight: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Declare a 1000-byte form body but send only a prefix: handleQuery's
	// ParseForm blocks on the remainder with the in-flight slot held.
	fmt.Fprintf(conn, "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: 1000\r\n\r\nquery=")

	// Wait until the stalled request owns the only slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("stalled request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	const overload = 5
	start := time.Now()
	for i := 0; i < overload; i++ {
		resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(workload.Prologue+`ASK { ex:team1 foaf:name "Team 1" . }`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("overload request %d: status = %d, body %q", i, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("503 lacks Retry-After")
		}
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("shedding %d requests took %v; 503s must be fast", overload, d)
	}
	if got := s.Stats().Shed; got != overload {
		t.Errorf("shed = %d, want %d", got, overload)
	}

	// /healthz stays reachable while the gated routes are saturated.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under load: %v (status %v)", err, resp)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), fmt.Sprintf("%d shed", overload)) {
		t.Errorf("healthz does not report shed count:\n%s", body)
	}

	// Releasing the stalled request frees the slot; traffic flows again.
	conn.Close()
	deadline = time.Now().Add(5 * time.Second)
	for s.Stats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatal("slot never released after the stalled request died")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err = http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(workload.Prologue+`ASK { ex:team1 foaf:name "Team 1" . }`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-release request status = %d", resp.StatusCode)
	}
}

// TestSlowClientWriteTimeout wires the http.Server WriteTimeout that
// ontoaccessd installs and checks a stalled reader cannot pin a worker:
// the server cuts the connection, the handler unwinds, and the
// in-flight gauge returns to zero.
func TestSlowClientWriteTimeout(t *testing.T) {
	m, err := bigMediator()
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithOptions(m, Options{MaxInFlight: 4})
	ts := httptest.NewUnstartedServer(s)
	ts.Config.WriteTimeout = 300 * time.Millisecond
	ts.Start()
	defer ts.Close()

	// JSON flushes progressively (32 KiB batches), so the stalled
	// reader's small receive window blocks the handler mid-stream; the
	// write deadline then severs the connection out from under it.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/sparql?query="+url.QueryEscape(workload.Prologue+scanQuery), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/sparql-results+json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	first := make([]byte, 512)
	if _, err := io.ReadFull(resp.Body, first); err != nil {
		t.Fatal(err)
	}
	// Stall well past the write deadline, then try to drain: the server
	// must have severed the connection rather than wait on us.
	time.Sleep(900 * time.Millisecond)
	if _, err := io.Copy(io.Discard, resp.Body); err == nil {
		t.Error("connection survived a stall past WriteTimeout")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker still pinned after write timeout (in flight = %d)", s.Stats().InFlight)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
