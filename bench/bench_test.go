package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"ontoaccess/internal/core"
	"ontoaccess/internal/endpoint"
	"ontoaccess/internal/rdb"
	paper "ontoaccess/internal/workload"
)

// small returns w over a data set small enough for a unit test.
func small(w *workload) *workload {
	c := *w
	c.authors, c.pubs = 400, 400
	return &c
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		stream := func(seed int64) []string {
			m := newModel(seed, w.authors, w.pubs)
			st := newConnState(w, m, seed, 1)
			var out []string
			for i := 0; i < 300; i++ {
				r := st.next()
				out = append(out, r.text)
				if r.apply != nil {
					r.apply()
				}
			}
			return out
		}
		a, b, c := stream(7), stream(7), stream(8)
		same := 0
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: request %d differs between two runs of seed 7", w.name, i)
			}
			if a[i] == c[i] {
				same++
			}
		}
		// scan_stream's reads carry no key, so its streams overlap in
		// those; the keyed writes still have to differ.
		if same > len(a)*9/10 {
			t.Errorf("%s: seeds 7 and 8 agree on %d of %d requests", w.name, same, len(a))
		}
	}
}

func TestKindSharesAndCatalogues(t *testing.T) {
	for _, w := range workloads {
		for _, write := range []bool{false, true} {
			sum, first := 0, -1
			for _, k := range w.kinds {
				if k.write == write {
					if first < 0 {
						first = k.per
					}
					sum += k.per
				}
			}
			if first*10 < sum*7 {
				t.Errorf("%s writes=%v: the primary kind holds %d of %d", w.name, write, first, sum)
			}
		}
		// The mix is exact over every deck.
		st := newConnState(small(w), newModel(1, 400, 400), 1, 0)
		count := make([]int, len(w.kinds))
		for i := 0; i < 3*w.deckSize(); i++ {
			r := st.next()
			count[r.kind]++
			if r.apply != nil {
				r.apply()
			}
		}
		for k, kd := range w.kinds {
			if count[k] != 3*kd.per {
				t.Errorf("%s: %d requests of kind %s in three decks, want %d", w.name, count[k], kd.name, 3*kd.per)
			}
		}
	}
	// shape_mix's point: more structurally distinct shapes than eight
	// plan caches hold.
	w := small(shapeMix)
	st := newConnState(w, newModel(1, w.authors, w.pubs), 1, 0)
	reads, writes := map[string]bool{}, map[string]bool{}
	for i := range readShapes {
		r := st.readShape(i)
		reads[shapeOf(r.text)] = true
	}
	for i := range writeShapes {
		r := st.writeShape(i)
		writes[shapeOf(r.text)] = true
	}
	if len(reads) < 8*core.DefaultPlanCacheSize || len(writes) < 8*core.DefaultPlanCacheSize {
		t.Errorf("%d distinct read shapes and %d distinct write shapes, want at least %d each", len(reads), len(writes), 8*core.DefaultPlanCacheSize)
	}
}

func TestEstimators(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5 (nearest rank)", got)
	}
	if got := percentile(sorted, 0.99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(sorted)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if q1 != 1.25 || q2 != 3.5 || q3 != 5.75 {
		t.Errorf("quartiles = %v %v %v, want 1.25 3.5 5.75", q1, q2, q3)
	}

	// One operation spanning a window boundary is shared between the
	// two windows; operations past the last window are dropped.
	s := time.Second
	rates := windowRates([]span{{0, s / 2}, {s / 2, 3 * s / 2}, {3 * s / 2, 2 * s}, {2 * s, 5 * s / 2}}, s, 2)
	if len(rates) != 2 || math.Abs(rates[0]-1.5) > 1e-9 || math.Abs(rates[1]-1.5) > 1e-9 {
		t.Errorf("window rates = %v, want [1.5 1.5]", rates)
	}
}

func TestCountJSONRows(t *testing.T) {
	doc := `{"head":{"vars":["f","m"]},"results":{"bindings":[
{"f":{"type":"literal","value":"a \"quoted\" } brace"},"m":{"type":"uri","value":"mailto:x"}},
{"f":{"type":"literal","value":"b"}}]}}`
	if rows, ok := countJSONRows([]byte(doc)); !ok || rows != 2 {
		t.Errorf("rows = %d ok = %v, want 2 true", rows, ok)
	}
	if _, ok := countJSONRows([]byte(doc[:len(doc)-1])); ok {
		t.Error("a truncated document passed")
	}
	if rows, ok := countJSONRows([]byte(`{"head":{"vars":[]},"results":{"bindings":[]}}`)); !ok || rows != 0 {
		t.Errorf("empty result: rows = %d ok = %v", rows, ok)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{on: true}
	tr.spans = []spanRec{
		{ID: 1, Parent: 0, Name: "request", Start: 0, End: 10_000},
		{ID: 2, Parent: 1, Name: "core.query", Start: 1_000, End: 8_000},
		{ID: 3, Parent: 2, Name: "sparql.serialize", Start: 1_000, End: 3_000},
	}
	self := tr.selfTimes()
	if self["request"][0] != 3 || self["core.query"][0] != 5 || self["sparql.serialize"][0] != 2 {
		t.Errorf("self times = %v", self)
	}
}

// TestParseHealthAgainstLiveServer scrapes a real endpoint.Server on a
// durable store, so that a change to the /healthz page fails here
// instead of zeroing the benchmark's counters.
func TestParseHealthAgainstLiveServer(t *testing.T) {
	m, _, err := paper.NewMediatorWithOptions(core.Options{}, rdb.Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ts := httptest.NewServer(endpoint.New(m))
	defer ts.Close()
	w := small(pointMix)
	model := newModel(1, w.authors, w.pubs)
	cl := newClient(newConnState(w, model, 1, 0), ts.URL)
	if err := seed(http.DefaultClient, ts.URL, model); err != nil {
		t.Fatal(err)
	}
	h0, err := scrapeHealth(http.DefaultClient, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareRows(h0, model); err != nil {
		t.Fatal(err)
	}
	reads, writes := 0, 0
	for i := 0; i < 200; i++ {
		r := cl.st.next()
		if _, _, _, err := cl.do(&r); err != nil {
			t.Fatalf("%s: %v", w.kinds[r.kind].name, err)
		}
		if r.apply != nil {
			writes++
		} else {
			reads++
		}
	}
	h1, err := scrapeHealth(http.DefaultClient, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got := h1.compiled + h1.fallback - h0.compiled - h0.fallback; got != uint64(reads) {
		t.Errorf("query executions grew by %d over %d reads", got, reads)
	}
	if got := h1.batchOps - h0.batchOps; got != uint64(writes) {
		t.Errorf("batched ops grew by %d over %d writes", got, writes)
	}
	if h1.fsyncs-h0.fsyncs == 0 || h1.walRecords-h0.walRecords == 0 || h1.snapshotVersion <= h0.snapshotVersion {
		t.Errorf("durability counters did not move: %+v -> %+v", h0, h1)
	}
	if h1.streamed+h1.buffered-h0.streamed-h0.buffered != uint64(reads+writes) || h1.out <= h0.out {
		t.Errorf("endpoint response counters: %+v -> %+v", h0, h1)
	}
	if h1.queryPlans.hits == 0 || h1.modifyPlans.hits == 0 || h1.updatePlans.misses == 0 || h1.queryParses.misses == 0 {
		t.Errorf("cache counters: %+v", h1)
	}
	if h1.historyRetained == 0 {
		t.Errorf("history counters: retained %d, evictions %d", h1.historyRetained, h1.historyEvictions)
	}
	if _, err := parseHealth("ok\ndatabase: x\n"); err == nil {
		t.Error("a page without the counters parsed")
	}
}

// TestWorkloadSmoke drives each workload for a second against an
// in-process server: every answer must check out and the final export
// must equal the model.
func TestWorkloadSmoke(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			m, err := paper.NewMediator(core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(endpoint.New(m))
			defer ts.Close()
			model := newModel(3, w.authors, w.pubs)
			if err := seed(http.DefaultClient, ts.URL, model); err != nil {
				t.Fatal(err)
			}
			clients := make([]*client, nConns)
			for i := range clients {
				clients[i] = newClient(newConnState(w, model, 3, i), ts.URL)
			}
			perConn := runPhase(clients, time.Second)
			ops := 0
			for i, cl := range clients {
				ops += len(perConn[i])
				if cl.failed != 0 {
					t.Errorf("connection %d: %d of %d operations failed: %v", i, cl.failed, cl.attempted, cl.errs)
				}
			}
			if ops < 20 {
				t.Errorf("only %d operations in a second", ops)
			}
			resp, err := http.DefaultClient.Do(mustRequest(http.MethodGet, ts.URL+"/export", "application/n-triples"))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			got, _, err := digestNTriples(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if want := model.digest(); got != want {
				t.Errorf("export has %d triples digest %x, the model %d triples digest %x", got.lines, got.sum, want.lines, want.sum)
			}
		})
	}
}

// TestBenchmarkFile keeps BENCHMARK.json and the harness's own tables
// the same: a metric the file names must be one the harness prints.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds < minPhase {
		t.Errorf("run_seconds %d is below the %d s the bounds hold for", file.RunSeconds, minPhase)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the harness", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q with a %d-character reason", i, w.Name, len(w.Why))
		}
	}
	if len(file.EndToEnd) != len(endToEndMetrics) || len(file.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("the file has %d + %d metrics, the harness %d + %d", len(file.EndToEnd), len(file.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, m := range file.EndToEnd {
		if d := endToEndMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, the harness has %+v", i, m, d)
		}
	}
	for i, m := range file.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, the harness has %+v", i, m, d)
		}
	}
}
