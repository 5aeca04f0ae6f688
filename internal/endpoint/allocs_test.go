//go:build !race

// The race detector instruments allocations and randomly drops
// sync.Pool entries, so allocation counts only mean something without
// it.

package endpoint

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"ontoaccess/internal/workload"
)

// discardResponse is a ResponseWriter that drops the body, so a
// response's allocations are the server's alone (a recorder's buffer
// grows with the body).
type discardResponse struct {
	h     http.Header
	bytes int
}

func (d *discardResponse) Header() http.Header { return d.h }
func (d *discardResponse) WriteHeader(int)     {}
func (d *discardResponse) Write(p []byte) (int, error) {
	d.bytes += len(p)
	return len(p), nil
}

// TestStreamedScanAllocs gates the per-row cost of a JSON SELECT
// through ServeHTTP: a plan-cache hit costs the same allocations at
// 1,000 rows as at 10, and the full 25,000-row scan stays within a
// small per-request constant. Rows reach the JSON writer as slot rows
// whose cells the plan's encoders render straight into the writer's
// scratch buffer — no Binding map and no IRI string per row.
func TestStreamedScanAllocs(t *testing.T) {
	m, err := bigMediator()
	if err != nil {
		t.Fatal(err)
	}
	s := New(m)
	serve := func(query string) (allocs float64, bytes int) {
		req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(workload.Prologue+query), nil)
		req.Header.Set("Accept", "application/sparql-results+json")
		w := &discardResponse{h: http.Header{}}
		run := func() {
			s.ServeHTTP(w, req)
		}
		run() // compile and memoize the plan
		w.bytes = 0
		const runs = 5
		allocs = testing.AllocsPerRun(runs, run)
		return allocs, w.bytes / (runs + 1)
	}
	limited := func(n int) string { return scanQuery + " LIMIT " + strconv.Itoa(n) }
	at10, _ := serve(limited(10))
	at1000, _ := serve(limited(1000))
	full, body := serve(scanQuery)
	t.Logf("allocs per response: %v at 10 rows, %v at 1,000, %v for the full scan (%d bytes)", at10, at1000, full, body)
	if at1000 > at10 {
		t.Errorf("1,000-row response: %v allocs, above the 10-row response's %v", at1000, at10)
	}
	if full > 100 {
		t.Errorf("full-scan response: %v allocs, ceiling 100", full)
	}
}

// BenchmarkServeScan serves the benchmark's scan_stream whole-table
// read — every author's first name, family name and mailbox as JSON,
// about 25,000 rows from bigMediator — through ServeHTTP into a
// discarding writer, so it times the executor, the cell encoders and
// the JSON writer with no socket. Run it with
// `go test -run '^$' -bench ServeScan ./internal/endpoint`.
func BenchmarkServeScan(b *testing.B) {
	m, err := bigMediator()
	if err != nil {
		b.Fatal(err)
	}
	s := New(m)
	const q = `SELECT ?x ?f ?l ?m WHERE { ?x foaf:firstName ?f ; foaf:family_name ?l ; foaf:mbox ?m . }`
	req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(workload.Prologue+q), nil)
	req.Header.Set("Accept", "application/sparql-results+json")
	w := &discardResponse{h: http.Header{}}
	s.ServeHTTP(w, req) // compile and memoize the plan
	if w.bytes < 1<<20 {
		b.Fatalf("scan answered %d bytes, want the whole table", w.bytes)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeHTTP(w, req)
	}
}
