package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"ontoaccess/internal/core"
	"ontoaccess/internal/endpoint"
	"ontoaccess/internal/r3m"
	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlexec"
	"ontoaccess/internal/rdb/sqlparser"
	"ontoaccess/internal/rdb/wal"
	"ontoaccess/internal/rdf"
	"ontoaccess/internal/sparql"
	"ontoaccess/internal/update"
	paper "ontoaccess/internal/workload"
)

// The traced run: in-process, one goroutine, continuing the request
// streams of the daemon run it follows. Two mediators receive every
// write so they stay in step:
//
//   - the durable one, opened on the killed daemon's data directory
//     and served whole through endpoint.Server.ServeHTTP;
//   - a memory-only twin, driven layer by layer through each layer's
//     public functions.
//
// Every call is a span; spans live in memory and are written to
// bench/out/trace-<workload>.jsonl at the end. A layer's time is the
// median of its spans' self time (the span minus its children). The
// spans come from this file, around the calls into each layer; spans
// inside the program are ROADMAP item 1(d).

// spanRec is one line of the trace file.
type spanRec struct {
	Req    int    `json:"req"`    // request id, shared by the spans of one request
	ID     int    `json:"id"`     // span id, unique in the file
	Parent int    `json:"parent"` // id of the span that caused it, 0 for a request's root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
}

// tracer records spans. Disabled, begin and end cost one branch, which
// is what the overhead estimate compares against.
type tracer struct {
	on    bool
	t0    time.Time
	spans []spanRec
	req   int
}

func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, spanRec{Req: t.req, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t.on {
		t.spans[id-1].End = int64(time.Since(t.t0))
	}
}

// selfTimes groups each span's self time, in microseconds, by name.
func (t *tracer) selfTimes() map[string][]float64 {
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.End - s.Start
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-children[s.ID])/1e3)
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// timingSink is the twin's StreamSink: it serializes every solution
// with the endpoint's JSON writer into io.Discard and keeps the time
// spent doing so apart from the time the mediator spent producing it.
type timingSink struct {
	tr        *tracer
	jw        *sparql.ResultsJSONWriter
	rows      int
	timedRows int
	serialize time.Duration // over timedRows, every serializeSample-th row
}

func (k *timingSink) Head(vars []string) error {
	jw, err := sparql.NewResultsJSONWriter(io.Discard, vars)
	k.jw = jw
	return err
}

// serializeSample is how many rows share one timed row: reading the
// clock around each of 20,000 rows cost a fifth of the query's time.
const serializeSample = 16

func (k *timingSink) Solution(b sparql.Binding) error {
	k.rows++
	if !k.tr.on || k.rows%serializeSample != 1 {
		return k.jw.WriteSolution(b)
	}
	t := time.Now()
	err := k.jw.WriteSolution(b)
	k.serialize += time.Since(t)
	k.timedRows++
	return err
}

func (k *timingSink) Ask(bool) error         { return nil }
func (k *timingSink) Graph(*rdf.Graph) error { return nil }

type tracedResult struct {
	tally
	problems, notes []string
}

// labCap bounds how many reads also go through the translate -> SQL
// parse -> SelectFunc sequence on the twin.
const labCap = 1500

// runTraced follows a daemon run: it takes over the dead daemon's data
// directory and the connections' generator state, replays cfg.w's next
// traceOps requests through both mediators, and adds the per-layer
// metrics to res.perLayer.
func runTraced(cfg *runConfig, res *e2eResult, tracePath string) (*tracedResult, error) {
	out := &tracedResult{}
	l := res.perLayer
	live := res.live

	// rdb persist: open the crash image the daemon left (it was
	// SIGKILLed, so the WAL tail since its last checkpoint replays).
	t0 := time.Now()
	durable, recovered, err := paper.NewMediatorWithOptions(core.Options{}, rdb.Options{DataDir: live.dir, CheckpointBytes: -1})
	if err != nil {
		return nil, fmt.Errorf("opening the daemon's data directory in-process: %w", err)
	}
	defer durable.Close()
	openS := time.Since(t0).Seconds()
	if !recovered {
		return nil, fmt.Errorf("the daemon's data directory held nothing to recover")
	}
	l["rdb.persist.open_s"] = metric{openS, "s"}
	l["rdb.persist.replay_records_per_s"] = metric{float64(durable.DurabilityStats().RecoveredRecords) / openS, "1/s"}

	// The twin holds the same rows, loaded from the model.
	twin, err := paper.NewMediator(core.Options{})
	if err != nil {
		return nil, err
	}
	if err := live.m.seedRequests(func(body string) error {
		_, err := twin.ExecuteString(body)
		return err
	}); err != nil {
		return nil, fmt.Errorf("loading the twin: %w", err)
	}
	// lab compiles first-seen shapes: it needs the schema, not the rows.
	lab, err := paper.NewMediator(core.Options{})
	if err != nil {
		return nil, err
	}
	srv := endpoint.New(durable)
	tr := &tracer{on: true, t0: time.Now()}
	frequent := 0
	for k, kd := range cfg.w.kinds {
		if kd.per > cfg.w.kinds[frequent].per {
			frequent = k
		}
	}
	rp := &replayer{frequent: frequent, tr: tr, srv: srv, twin: twin, lab: lab, out: out, seenShape: map[string]bool{}}

	// Spans are on for three blocks of requests and off for the fourth,
	// over and over: the twin's core-call time with and without them,
	// under the same cache and heap conditions, is the tracing overhead.
	wal0 := durable.DurabilityStats()
	total := cfg.w.traceOps + cfg.w.traceOps/3
	block := max(1, cfg.w.traceOps/24)
	for i := 0; i < total; i++ {
		tr.on = (i/block)%4 != 3
		rp.one(live.states[i%len(live.states)])
	}
	tr.on = true
	wal1 := durable.DurabilityStats()
	if rp.writes > 0 {
		// Exact: one process, automatic checkpoints off, so the log
		// only grows.
		l["rdb.wal.bytes_per_write"] = metric{float64(wal1.WALBytes-wal0.WALBytes) / float64(rp.writes), "B"}
	}
	if plain := median(rp.coreTimes[0]); plain > 0 {
		l["bench.trace_overhead_pct"] = metric{100 * (median(rp.coreTimes[1]) - plain) / plain, "%"}
	}

	self := tr.selfTimes()
	p50 := func(name string) float64 { return median(self[name]) }
	put := func(metricName, spanName string) {
		if len(self[spanName]) > 0 {
			l[metricName] = metric{p50(spanName), "us"}
		}
	}
	put("endpoint.serve_read_us", "endpoint.serve_read")
	put("endpoint.serve_write_us", "endpoint.serve_write")
	put("sparql.parse_us", "sparql.parse")
	put("update.parse_us", "update.parse")
	put("core.query_us", "core.query")
	put("core.execute_us", "core.execute")
	put("core.translate_us", "core.translate")
	put("core.plan_compile_us", "core.plan_compile")
	put("rdb.sqlparser.parse_us", "rdb.sqlparser.parse")
	put("rdb.sqlexec.select_us", "rdb.sqlexec.select")
	put("bench.gen_us_per_req", "bench.generate")
	if len(self["endpoint.serve_read"]) > 0 {
		// What the daemon run's median read paid on top of serving:
		// the client, the loopback and the HTTP server's own work.
		l["endpoint.transport_us"] = metric{res.readP50*1e3 - p50("endpoint.serve_read"), "us"}
	}
	if len(self["endpoint.serve_write"]) > 0 && len(self["core.execute"]) > 0 {
		// Durable minus memory-only, both medians: the WAL's share of a
		// write, to within what ServeHTTP adds around the mediator.
		l["rdb.wal.commit_overhead_us"] = metric{p50("endpoint.serve_write") - p50("core.execute"), "us"}
	}
	if rp.serializedRows > 0 {
		l["sparql.serialize_us_per_row"] = metric{float64(rp.serializeTime) / 1e3 / float64(rp.serializedRows), "us"}
	}
	if rp.selectRows > 0 && rp.selectTime > 0 {
		l["rdb.sqlexec.rows_per_s"] = metric{float64(rp.selectRows) / rp.selectTime.Seconds(), "1/s"}
	}
	if rp.allocReads > 0 {
		l["core.allocs_per_read"] = metric{float64(rp.readMallocs) / float64(rp.allocReads), "count"}
	}
	if rp.allocRows > 0 {
		l["core.alloc_bytes_per_row"] = metric{float64(rp.readBytes) / float64(rp.allocRows), "B"}
	}
	if rp.allocWrites > 0 {
		l["core.allocs_per_write"] = metric{float64(rp.writeMallocs) / float64(rp.allocWrites), "count"}
	}

	if err := microLayers(cfg, live, durable, twin, l); err != nil {
		return nil, err
	}

	// Both mediators must have ended where the model says.
	want := live.m.digest()
	for name, m := range map[string]*core.Mediator{"durable": durable, "twin": twin} {
		rec := httptest.NewRecorder()
		endpoint.New(m).ServeHTTP(rec, mustRequest(http.MethodGet, "/export", "application/n-triples"))
		got, _, err := digestNTriples(rec.Body)
		out.attempted++
		if err != nil || rec.Code != http.StatusOK || got != want {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("traced run: the %s mediator's export (status %d, %d triples) differs from the model (%d triples): %v",
				name, rec.Code, got.lines, want.lines, err))
		}
	}
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	out.notes = append(out.notes, fmt.Sprintf("traced replay: %d requests, spans on for three blocks of %d and off for the fourth (%d spans in %s)", total, block, len(tr.spans), tracePath))
	return out, nil
}

// replayer drives requests through both mediators.
type replayer struct {
	tr   *tracer
	srv  *endpoint.Server
	twin *core.Mediator
	lab  *core.Mediator
	out  *tracedResult

	ops, writes int
	// coreTimes is the time of each call of the most frequent kind into
	// the twin's core layer, in microseconds: [0] with spans off, [1]
	// with spans on.
	coreTimes [2][]float64
	frequent  int // index of the workload's most frequent kind
	seenShape map[string]bool
	labRuns   int

	serializeTime  time.Duration
	serializedRows int
	selectTime     time.Duration
	selectRows     int

	allocReads, allocWrites, allocRows   int
	readMallocs, writeMallocs, readBytes uint64
}

// shapeOf reduces a request to its structure: the text with every
// digit run and every quoted or bracketed constant collapsed, which is
// also what the mediator's plan caches key on.
func shapeOf(text string) string {
	var b strings.Builder
	inLit, inIRI := false, false
	for i := 0; i < len(text); i++ {
		ch := text[i]
		switch {
		case inLit:
			inLit = ch != '"'
		case inIRI:
			inIRI = ch != '>'
		case ch == '"':
			inLit = true
			b.WriteByte('"')
		case ch == '<' && i+1 < len(text) && text[i+1] != ' ' && text[i+1] != '=':
			inIRI = true
			b.WriteByte('<')
		case ch >= '0' && ch <= '9':
			if n := b.Len(); n == 0 || b.String()[n-1] != '#' {
				b.WriteByte('#')
			}
		default:
			b.WriteByte(ch)
		}
	}
	return b.String()
}

func (rp *replayer) one(st *connState) {
	tr := rp.tr
	tr.req++
	rp.ops++
	root := tr.begin("request", 0)
	defer tr.end(root)

	g := tr.begin("bench.generate", root)
	r := st.next()
	tr.end(g)
	write := r.apply != nil

	// The durable mediator, whole, as the daemon would serve it.
	var req *http.Request
	if write {
		req = httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(r.text))
		req.Header.Set("Content-Type", "application/sparql-update")
	} else {
		req = httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(r.text), nil)
		if r.json {
			req.Header.Set("Accept", "application/sparql-results+json")
		}
	}
	rec := httptest.NewRecorder()
	name := "endpoint.serve_read"
	if write {
		name = "endpoint.serve_write"
	}
	s := tr.begin(name, root)
	rp.srv.ServeHTTP(rec, req)
	tr.end(s)
	err := checkResponse(&r, rec.Code, rec.Body.Bytes())
	if err != nil {
		err = fmt.Errorf("traced %s: %w", st.w.kinds[r.kind].name, err)
	}
	rp.out.note(err)
	if err != nil {
		return
	}

	// Allocation counts on every tenth request: ReadMemStats stops the
	// world, which the timed requests should not pay.
	countAllocs := rp.ops%10 == 0
	var ms0, ms1 runtime.MemStats

	var coreStart time.Time
	if write {
		r.apply()
		rp.writes++
		p := tr.begin("update.parse", root)
		_, perr := update.Parse(r.text)
		tr.end(p)
		if countAllocs {
			runtime.ReadMemStats(&ms0)
		}
		coreStart = time.Now()
		e := tr.begin("core.execute", root)
		_, eerr := rp.twin.ExecuteString(r.text)
		tr.end(e)
		rp.noteCore(&r, coreStart)
		if countAllocs {
			runtime.ReadMemStats(&ms1)
			rp.allocWrites++
			rp.writeMallocs += ms1.Mallocs - ms0.Mallocs
		}
		if perr != nil || eerr != nil {
			rp.out.note(fmt.Errorf("traced %s on the twin: parse %v, execute %v", st.w.kinds[r.kind].name, perr, eerr))
		}
	} else {
		p := tr.begin("sparql.parse", root)
		q, perr := sparql.ParseQuery(r.text)
		tr.end(p)
		if countAllocs {
			runtime.ReadMemStats(&ms0)
		}
		sink := &timingSink{tr: tr}
		coreStart = time.Now()
		c := tr.begin("core.query", root)
		qerr := rp.twin.QueryStream(r.text, sink)
		if sink.jw != nil && qerr == nil {
			qerr = sink.jw.Close()
		}
		tr.end(c)
		rp.noteCore(&r, coreStart)
		if countAllocs {
			runtime.ReadMemStats(&ms1)
			rp.allocReads++
			rp.readMallocs += ms1.Mallocs - ms0.Mallocs
			if sink.rows > 0 {
				rp.allocRows += sink.rows
				rp.readBytes += ms1.TotalAlloc - ms0.TotalAlloc
			}
		}
		if tr.on && sink.rows > 0 {
			// The serializer ran inside core.query, a row at a time;
			// one child span carries the sum, scaled up from the rows
			// that were timed.
			start := tr.spans[c-1].Start
			whole := sink.serialize * time.Duration(sink.rows) / time.Duration(sink.timedRows)
			tr.spans = append(tr.spans, spanRec{Req: tr.req, ID: len(tr.spans) + 1, Parent: c, Name: "sparql.serialize", Start: start, End: start + int64(whole)})
			rp.serializeTime += sink.serialize
			rp.serializedRows += sink.timedRows
		}
		if perr != nil || qerr != nil || (!r.ask && sink.rows != r.rows) {
			rp.out.note(fmt.Errorf("traced %s on the twin: parse %v, query %v, %d rows want %d", st.w.kinds[r.kind].name, perr, qerr, sink.rows, r.rows))
		}
		if tr.on && perr == nil && rp.labRuns < labCap {
			rp.labRuns++
			rp.lowerLayers(q, root)
		}
	}

	// A shape's first appearance: compile its plan where nothing is
	// cached yet.
	if shape := shapeOf(r.text); tr.on && !rp.seenShape[shape] {
		rp.seenShape[shape] = true
		c := tr.begin("core.plan_compile", root)
		switch {
		case !write:
			_, _ = rp.lab.QueryPlanFor(r.text) // unplannable shapes still pay the attempt
		case strings.Contains(r.text, "MODIFY"):
			_, _ = rp.lab.ModifyPlanFor(r.text)
		default:
			_, _ = rp.lab.PlanFor(r.text)
		}
		tr.end(c)
	}
}

// noteCore keeps the core call's time if r is of the workload's most
// frequent kind, so that the two medians the overhead estimate
// compares sit in the same mode.
func (rp *replayer) noteCore(r *request, start time.Time) {
	d := time.Since(start)
	if r.kind == rp.frequent {
		on := 0
		if rp.tr.on {
			on = 1
		}
		rp.coreTimes[on] = append(rp.coreTimes[on], float64(d)/1e3)
	}
}

// lowerLayers walks one read down the layers under core on the twin:
// translate the pattern to SQL, parse that SQL, run it with a row
// callback that does nothing. Shapes TranslateSelect rejects (OPTIONAL,
// UNION, aggregates) are skipped; the mediator serves them through its
// rich plans, which have no public seam to time.
func (rp *replayer) lowerLayers(q *sparql.Query, root int) {
	tr := rp.tr
	if q.Where == nil || q.Form != sparql.FormSelect {
		return
	}
	_ = rp.twin.DB().View(func(tx *rdb.Tx) error { // the callback returns nil
		t := tr.begin("core.translate", root)
		st, err := rp.twin.TranslateSelect(tx, q.Where, q.Vars)
		tr.end(t)
		if err != nil {
			tr.spans = tr.spans[:t-1] // a refusal is not a translation
			return nil
		}
		p := tr.begin("rdb.sqlparser.parse", root)
		stmt, err := sqlparser.ParseStatement(st.SQL)
		tr.end(p)
		sel, ok := stmt.(sqlparser.Select)
		if err != nil || !ok {
			return nil
		}
		rows := 0
		t0 := time.Now()
		x := tr.begin("rdb.sqlexec.select", root)
		err = sqlexec.SelectFunc(tx, sel, func([]string) error { return nil }, func([]rdb.Value) (bool, error) {
			rows++
			return true, nil
		})
		tr.end(x)
		if err == nil {
			rp.selectTime += time.Since(t0)
			rp.selectRows += rows
		}
		return nil
	})
}

// microLayers times the layers a request stream does not isolate:
// point lookups and commits in rdb, the WAL on this file system,
// checkpointing, and mapping load.
func microLayers(cfg *runConfig, live *liveRun, durable, twin *core.Mediator, l map[string]metric) error {
	const n = 1000
	rng := rand.New(rand.NewSource(cfg.seed))
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	authors := len(live.m.authors)

	db := twin.DB()
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		key := []rdb.Value{rdb.Int(int64(1 + rng.Intn(authors)))}
		t0 := time.Now()
		err := db.View(func(tx *rdb.Tx) error {
			_, _, found, err := tx.LookupPK("author", key)
			if err == nil && !found {
				err = fmt.Errorf("author %v not found", key[0])
			}
			return err
		})
		samples = append(samples, us(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("rdb point lookup: %w", err)
		}
	}
	l["rdb.point_lookup_us"] = metric{median(samples), "us"}

	samples = samples[:0]
	for i := 0; i < n; i++ {
		key := []rdb.Value{rdb.Int(int64(1 + rng.Intn(authors)))}
		t0 := time.Now()
		err := db.Update(func(tx *rdb.Tx) error {
			id, row, _, err := tx.LookupPK("author", key)
			if err != nil {
				return err
			}
			// Rewriting the title (column 1 of Figure 1's author table)
			// with the value it has keeps the twin equal to the model.
			return tx.UpdateByID("author", id, map[string]rdb.Value{"title": row[1]})
		}, "author")
		samples = append(samples, us(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("rdb commit: %w", err)
		}
	}
	l["rdb.tx_commit_us"] = metric{median(samples), "us"}

	// The WAL alone, on the file system the data directories are on:
	// the canary for a host whose disk got slower.
	dir, err := os.MkdirTemp(cfg.outDir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir)
	if err != nil {
		return fmt.Errorf("wal canary: %w", err)
	}
	payload := make([]byte, 256)
	appends, syncs := make([]float64, 0, n), make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := log.Append(payload); err != nil {
			log.Close()
			return fmt.Errorf("wal canary: %w", err)
		}
		t1 := time.Now()
		if err := log.Sync(); err != nil {
			log.Close()
			return fmt.Errorf("wal canary: %w", err)
		}
		appends, syncs = append(appends, us(t1.Sub(t0))), append(syncs, us(time.Since(t1)))
	}
	if err := log.Close(); err != nil {
		return fmt.Errorf("wal canary: %w", err)
	}
	l["rdb.wal.append_us"] = metric{median(appends), "us"}
	l["rdb.wal.fsync_us"] = metric{median(syncs), "us"}

	t0 := time.Now()
	if err := durable.DB().Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	l["rdb.persist.checkpoint_s"] = metric{time.Since(t0).Seconds(), "s"}

	loads := make([]float64, 0, 20)
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := r3m.Load(paper.MappingTTL); err != nil {
			return fmt.Errorf("r3m load: %w", err)
		}
		loads = append(loads, float64(time.Since(t0))/float64(time.Millisecond))
	}
	sort.Float64s(loads)
	l["r3m.load_ms"] = metric{median(loads), "ms"}
	return nil
}
