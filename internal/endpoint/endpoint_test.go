package endpoint

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ontoaccess/internal/core"
	"ontoaccess/internal/ntriples"
	"ontoaccess/internal/rdb"
	"ontoaccess/internal/sparql"
	"ontoaccess/internal/workload"
)

func newServer(t *testing.T) (*Server, *core.Mediator) {
	t.Helper()
	m, err := workload.NewMediator(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return New(m), m
}

func post(t *testing.T, s *Server, path, contentType, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestUpdateEndpointSuccess(t *testing.T) {
	s, m := newServer(t)
	rec := post(t, s, "/update", "application/sparql-update", workload.Listing15)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body:\n%s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "fb:Success") {
		t.Errorf("body:\n%s", rec.Body)
	}
	if m.DB().TotalRows() != 6 {
		t.Errorf("rows = %d", m.DB().TotalRows())
	}
}

func TestUpdateEndpointFormEncoded(t *testing.T) {
	s, _ := newServer(t)
	form := url.Values{"update": {workload.Listing13}}
	rec := post(t, s, "/update", "application/x-www-form-urlencoded", form.Encode())
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body:\n%s", rec.Code, rec.Body)
	}
}

func TestUpdateEndpointConstraintViolation(t *testing.T) {
	s, _ := newServer(t)
	rec := post(t, s, "/update", "application/sparql-update", workload.Prologue+`
INSERT DATA { ex:author9 foaf:firstName "Anon" . }`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"fb:Failure", "fb:NotNullViolation", `"lastname"`} {
		if !strings.Contains(body, want) {
			t.Errorf("feedback missing %s:\n%s", want, body)
		}
	}
}

func TestUpdateEndpointParseError(t *testing.T) {
	s, _ := newServer(t)
	rec := post(t, s, "/update", "application/sparql-update", "THIS IS NOT SPARQL")
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "fb:Failure") {
		t.Errorf("parse failure body:\n%s", rec.Body)
	}
}

func TestUpdateEndpointRejectsGet(t *testing.T) {
	s, _ := newServer(t)
	req := httptest.NewRequest(http.MethodGet, "/update", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("status = %d", rec.Code)
	}
}

func TestUpdateEndpointEmptyBody(t *testing.T) {
	s, _ := newServer(t)
	rec := post(t, s, "/update", "application/sparql-update", "")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status = %d", rec.Code)
	}
}

func TestQueryEndpointSelect(t *testing.T) {
	s, _ := newServer(t)
	post(t, s, "/update", "application/sparql-update", workload.Listing15)
	q := url.QueryEscape(workload.Prologue + `SELECT ?name WHERE { ex:team5 foaf:name ?name . }`)
	req := httptest.NewRequest(http.MethodGet, "/sparql?query="+q, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body:\n%s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "Software Engineering") {
		t.Errorf("body:\n%s", rec.Body)
	}
}

func TestQueryEndpointAskAndConstruct(t *testing.T) {
	s, _ := newServer(t)
	post(t, s, "/update", "application/sparql-update", workload.Listing15)
	ask := url.QueryEscape(workload.Prologue + `ASK { ex:author6 foaf:family_name "Hert" . }`)
	req := httptest.NewRequest(http.MethodGet, "/sparql?query="+ask, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if strings.TrimSpace(rec.Body.String()) != "true" {
		t.Errorf("ASK body = %q", rec.Body.String())
	}
	construct := url.QueryEscape(workload.Prologue + `CONSTRUCT { ?a ont:wrote ?p . } WHERE { ?p dc:creator ?a . }`)
	req = httptest.NewRequest(http.MethodGet, "/sparql?query="+construct, nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), "ont:wrote") {
		t.Errorf("CONSTRUCT body:\n%s", rec.Body)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	s, _ := newServer(t)
	req := httptest.NewRequest(http.MethodGet, "/sparql", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing query: status = %d", rec.Code)
	}
	req = httptest.NewRequest(http.MethodGet, "/sparql?query=garbage", nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad query: status = %d", rec.Code)
	}
	req = httptest.NewRequest(http.MethodDelete, "/sparql?query=x", nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("bad method: status = %d", rec.Code)
	}
}

func TestExportEndpoint(t *testing.T) {
	s, _ := newServer(t)
	post(t, s, "/update", "application/sparql-update", workload.Listing15)
	req := httptest.NewRequest(http.MethodGet, "/export", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), "ex:author6") {
		t.Errorf("turtle export:\n%s", rec.Body)
	}
	req = httptest.NewRequest(http.MethodGet, "/export", nil)
	req.Header.Set("Accept", "application/n-triples")
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	g, err := ntriples.ParseString(rec.Body.String())
	if err != nil {
		t.Fatalf("export is not valid N-Triples: %v", err)
	}
	if g.Len() != 19 {
		t.Errorf("exported %d triples", g.Len())
	}
}

func TestMappingAndHealthEndpoints(t *testing.T) {
	s, _ := newServer(t)
	req := httptest.NewRequest(http.MethodGet, "/mapping", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), "r3m:DatabaseMap") {
		t.Errorf("mapping body:\n%s", rec.Body)
	}
	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	for _, want := range []string{"table author: 0 rows", "snapshot version: ", "write batches: ",
		"shard batches: 0 keyed claims, 0 whole-table, 0 keyed fallbacks",
		"query executions: 0 compiled, 0 fallback",
		// the planner statistics: per-index distinct counts ride the row counts
		"id: 0 distinct", "team: 0 distinct"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("health body lacks %q:\n%s", want, rec.Body)
		}
	}
}

// TestHealthQueryExecStats checks that /healthz tracks the read path's
// plan effectiveness: a compiled FILTER+ORDER BY query counts as
// compiled, an expression shape the translator cannot lower (STR) as
// fallback.
func TestHealthQueryExecStats(t *testing.T) {
	s, _ := newServer(t)
	post(t, s, "/update", "application/sparql-update", workload.Listing15)
	for _, q := range []string{
		`SELECT ?l WHERE { ?x foaf:family_name ?l . FILTER (?l >= "A") } ORDER BY ?l LIMIT 2`,
		`SELECT ?x WHERE { ?x foaf:family_name ?l . FILTER (STR(?l) = "Hert") }`,
	} {
		req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(workload.Prologue+q), nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("query %q status %d:\n%s", q, rec.Code, rec.Body)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), "query executions: 1 compiled, 1 fallback") {
		t.Errorf("health body lacks the exec split:\n%s", rec.Body)
	}
}

func TestQueryEndpointJSONResults(t *testing.T) {
	s, _ := newServer(t)
	post(t, s, "/update", "application/sparql-update", workload.Listing15)
	q := url.QueryEscape(workload.Prologue + `SELECT ?x ?m WHERE { ?x foaf:mbox ?m . }`)
	req := httptest.NewRequest(http.MethodGet, "/sparql?query="+q, nil)
	req.Header.Set("Accept", "application/sparql-results+json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Fatalf("content type = %q", ct)
	}
	vars, sols, err := sparql.ParseResultsJSON(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("invalid results JSON: %v\n%s", err, rec.Body)
	}
	if len(vars) != 2 || len(sols) != 1 {
		t.Fatalf("vars=%v sols=%v", vars, sols)
	}
	if sols[0]["m"].Value != "mailto:hert@ifi.uzh.ch" {
		t.Errorf("mbox = %v", sols[0]["m"])
	}
	// ASK as JSON.
	ask := url.QueryEscape(workload.Prologue + `ASK { ex:author6 foaf:family_name "Hert" . }`)
	req = httptest.NewRequest(http.MethodGet, "/sparql?query="+ask, nil)
	req.Header.Set("Accept", "application/json")
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	b, err := sparql.ParseAskJSON(rec.Body.Bytes())
	if err != nil || !b {
		t.Errorf("ASK JSON = %v, %v:\n%s", b, err, rec.Body)
	}
}

// TestConcurrentQueryUpdateSnapshotConsistency hammers /update with a
// MODIFY stream that rotates two properties of one author in lockstep
// (both carry the same serial) while parallel /query readers assert
// every response shows the pair from a single committed snapshot —
// never a half-applied MODIFY. Run under -race this also validates
// the endpoint's lock-free read path against the write scheduler.
func TestConcurrentQueryUpdateSnapshotConsistency(t *testing.T) {
	s, _ := newServer(t)
	rec := post(t, s, "/update", "application/sparql-update", workload.Prologue+`
INSERT DATA { ex:team1 foaf:name "T" ; ont:teamCode "T1" . }
INSERT DATA {
  ex:author1 foaf:firstName "F0" ;
      foaf:family_name "Hert" ;
      foaf:mbox <mailto:s0@example.org> ;
      ont:team ex:team1 .
}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("seed status = %d:\n%s", rec.Code, rec.Body)
	}

	const modifies = 120
	const readers = 4
	writerDone := make(chan struct{})
	errs := make(chan error, readers+1)
	go func() {
		defer close(writerDone)
		for i := 1; i <= modifies; i++ {
			body := fmt.Sprintf(workload.Prologue+`
MODIFY
DELETE { ex:author1 foaf:firstName ?f ; foaf:mbox ?m . }
INSERT { ex:author1 foaf:firstName "F%d" ; foaf:mbox <mailto:s%d@example.org> . }
WHERE { ex:author1 foaf:firstName ?f ; foaf:mbox ?m . }`, i, i)
			rec := post(t, s, "/update", "application/sparql-update", body)
			if rec.Code != http.StatusOK {
				errs <- fmt.Errorf("modify %d: status %d:\n%s", i, rec.Code, rec.Body)
				return
			}
		}
	}()

	query := url.QueryEscape(workload.Prologue +
		`SELECT ?f ?m WHERE { ex:author1 foaf:firstName ?f ; foaf:mbox ?m . }`)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-writerDone:
					return
				default:
				}
				req := httptest.NewRequest(http.MethodGet, "/sparql?query="+query, nil)
				req.Header.Set("Accept", "application/sparql-results+json")
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("query status %d:\n%s", rec.Code, rec.Body)
					return
				}
				_, sols, err := sparql.ParseResultsJSON(rec.Body.Bytes())
				if err != nil {
					errs <- fmt.Errorf("results JSON: %v", err)
					return
				}
				if len(sols) != 1 {
					errs <- fmt.Errorf("saw %d solutions mid-MODIFY, want exactly 1", len(sols))
					return
				}
				f, m := sols[0]["f"].Value, sols[0]["m"].Value
				serial := strings.TrimPrefix(f, "F")
				if want := "mailto:s" + serial + "@example.org"; m != want {
					errs <- fmt.Errorf("torn snapshot: firstName %q paired with mbox %q", f, m)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-writerDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The final state carries the last serial, and health reflects the
	// write traffic.
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	hrec := httptest.NewRecorder()
	s.ServeHTTP(hrec, req)
	if strings.Contains(hrec.Body.String(), "snapshot version: 0") {
		t.Errorf("snapshot version did not advance:\n%s", hrec.Body)
	}
}

func TestEndToEndModifyOverHTTP(t *testing.T) {
	s, m := newServer(t)
	post(t, s, "/update", "application/sparql-update", workload.Listing15)
	rec := post(t, s, "/update", "application/sparql-update", workload.Listing11)
	if rec.Code != http.StatusOK {
		t.Fatalf("modify status = %d:\n%s", rec.Code, rec.Body)
	}
	res, err := m.Query(workload.Prologue + `SELECT ?m WHERE { ex:author6 foaf:mbox ?m . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || res.Solutions[0]["m"].Value != "mailto:hert@example.com" {
		t.Errorf("mbox after modify = %v", res.Solutions)
	}
}

// TestHealthCheckpointIO checks the durability block's checkpoint I/O
// line: the table-file and manifest bytes checkpoints wrote, and the
// newest checkpoint's duration, both zero until one completes.
func TestHealthCheckpointIO(t *testing.T) {
	m, _, err := workload.NewMediatorWithOptions(core.Options{}, rdb.Options{DataDir: t.TempDir(), CheckpointBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	s := New(m)
	ioLine := func() string {
		t.Helper()
		body := getPath(t, s, "/healthz").Body.String()
		for _, l := range strings.Split(body, "\n") {
			if strings.HasPrefix(l, "checkpoint io: ") {
				return l
			}
		}
		t.Fatalf("health body lacks a checkpoint io line:\n%s", body)
		return ""
	}
	if m.DurabilityStats().Checkpoints == 0 {
		if got := ioLine(); got != "checkpoint io: 0 bytes, last 0s" {
			t.Fatalf("before any checkpoint: %q", got)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; m.DurabilityStats().Checkpoints == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("no background checkpoint ran")
		}
		post(t, s, "/update", "application/sparql-update", fmt.Sprintf(
			"%sINSERT DATA { ex:author%d foaf:family_name \"Checkpointed%d\" . }", workload.Prologue, 1000+i, i))
	}
	line := ioLine()
	var n uint64
	var d string
	if _, err := fmt.Sscanf(line, "checkpoint io: %d bytes, last %s", &n, &d); err != nil {
		t.Fatalf("checkpoint io line %q: %v", line, err)
	}
	if dur, err := time.ParseDuration(d); err != nil || dur <= 0 || n == 0 {
		t.Fatalf("checkpoint io line %q: %d bytes, duration %v (%v)", line, n, dur, err)
	}
	if st := m.DurabilityStats(); st.CheckpointBytes != n {
		t.Fatalf("line reports %d bytes, stats %d", n, st.CheckpointBytes)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHealthCheckpointFailures checks the durability block's failure
// line: it reads 0 while checkpoints succeed and carries the count
// and the last error once background checkpoints fail, while the
// existing "checkpoints:" line keeps its format.
func TestHealthCheckpointFailures(t *testing.T) {
	dir := t.TempDir()
	m, _, err := workload.NewMediatorWithOptions(core.Options{}, rdb.Options{DataDir: dir, CheckpointBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	s := New(m)
	if body := getPath(t, s, "/healthz").Body.String(); !strings.Contains(body, "\ncheckpoint failures: 0\n") {
		t.Fatalf("health body lacks a zero failure line:\n%s", body)
	}
	// A directory where the manifest is renamed to fails every
	// checkpoint, even as root.
	blocker := filepath.Join(dir, "checkpoint.db")
	if err := os.MkdirAll(filepath.Join(blocker, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; m.DurabilityStats().CheckpointFailures == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("no background checkpoint failed")
		}
		post(t, s, "/update", "application/sparql-update", fmt.Sprintf(
			"%sINSERT DATA { ex:author%d foaf:family_name \"Failing%d\" . }", workload.Prologue, 1000+i, i))
	}
	body := getPath(t, s, "/healthz").Body.String()
	var failures, ckpts, version uint64
	var line string
	for _, l := range strings.Split(body, "\n") {
		if strings.HasPrefix(l, "checkpoint failures: ") {
			line = l
		}
	}
	if _, err := fmt.Sscanf(line, "checkpoint failures: %d, last error ", &failures); err != nil || failures == 0 ||
		!strings.Contains(line, "checkpoint.db") {
		t.Fatalf("failure line %q (%v):\n%s", line, err, body)
	}
	i := strings.Index(body, "\ncheckpoints: ")
	if _, err := fmt.Sscanf(body[i+1:], "checkpoints: %d (last at version %d)", &ckpts, &version); err != nil {
		t.Fatalf("checkpoints line no longer scans: %v\n%s", err, body)
	}
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}
