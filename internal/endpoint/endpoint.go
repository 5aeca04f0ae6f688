// Package endpoint implements the OntoAccess HTTP mediation endpoint
// of the paper's Section 6: "Implemented as a HTTP endpoint, it
// allows clients to remotely manipulate the relational data. Incoming
// SPARQL/Update operations are parsed from the HTTP requests and
// forwarded to the translation module... a confirmation or error
// message is... converted to an RDF representation and sent back to
// the client."
//
// Routes:
//
//	POST /update  — SPARQL/Update request in the body (or an "update"
//	                form parameter); the response is the feedback
//	                report in Turtle (fb:Success / fb:Failure with
//	                violations and translated SQL).
//	GET/POST /sparql — SPARQL query ("query" parameter); SELECT/ASK
//	                return a plain-text table or boolean, CONSTRUCT
//	                returns Turtle.
//	GET /export   — the full RDF view as Turtle or N-Triples.
//	GET /mapping  — the active R3M mapping as Turtle.
//	GET /healthz  — liveness probe with row counts, the published
//	                snapshot version, commit-DAG history statistics,
//	                group-commit statistics, plan-cache effectiveness
//	                (update, MODIFY and query plans) and endpoint load
//	                counters.
//	/branches     — the time-travel admin surface: GET lists the named
//	                refs (or diffs two targets with ?diff&from&to),
//	                POST creates, drops or merges (?action=create|
//	                drop|merge).
//
// Time travel rides the read routes as URL parameters: /sparql and
// /export accept ?asOf=<version> (a retained historical snapshot) or
// ?branch=<name> (a named branch head), and /update accepts ?branch=
// to address writes at a branch head. An asOf target on /update is
// rejected — historical snapshots are immutable.
//
// Request handling is fully concurrent: queries and exports evaluate
// against lock-free database snapshots (they never wait for writers),
// and updates flow through the mediator's group-commit scheduler,
// which coalesces concurrent requests hitting the same tables into
// shared transactions. Repeated /sparql requests are served from
// compiled query plans: the shape is translated once, re-executions
// bind parameters and stream the index-aware SELECT off the pinned
// snapshot.
//
// Responses stream: SELECT rows flow from the executor's cursor
// through incremental serializers into a pooled bufio.Writer, so an
// N-row result costs O(1) response memory instead of two full
// payload copies. Load hardening rides the same surface — a bounded
// in-flight semaphore sheds excess requests with fast 503s, and a
// per-request context deadline turns runaway queries into 504s (see
// Options and DESIGN.md §10 for the mid-stream error contract).
package endpoint

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ontoaccess/internal/core"
	"ontoaccess/internal/ntriples"
	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdf"
	"ontoaccess/internal/sparql"
	"ontoaccess/internal/turtle"
)

// Options tunes the endpoint's load hardening. The zero value keeps
// the endpoint fully permissive (no shedding, no deadlines) — what
// New installs and what unit tests use.
type Options struct {
	// MaxInFlight bounds concurrently served /sparql, /export and
	// /update requests. Excess requests are shed immediately with
	// 503 + Retry-After instead of queueing. 0 means unlimited.
	MaxInFlight int
	// RequestTimeout is the per-request deadline on the same routes;
	// a request that exceeds it fails with 504 (or a pinned truncation
	// if the response body is already underway). 0 means none.
	RequestTimeout time.Duration
}

// Server wraps a mediator in HTTP handlers.
type Server struct {
	mediator *core.Mediator
	mux      *http.ServeMux
	opts     Options
	sem      chan struct{}

	inFlight  atomic.Int64
	shed      atomic.Uint64
	timedOut  atomic.Uint64
	streamed  atomic.Uint64
	buffered  atomic.Uint64
	truncated atomic.Uint64
	bytes     atomic.Uint64
}

// Stats is a point-in-time snapshot of the endpoint's load counters,
// also printed by /healthz.
type Stats struct {
	// InFlight is the number of requests currently being served on
	// the gated routes (/sparql, /export, /update).
	InFlight int64
	// Shed counts requests rejected with 503 by the in-flight bound.
	Shed uint64
	// TimedOut counts requests that hit the per-request deadline.
	TimedOut uint64
	// Streamed counts responses whose body was produced incrementally
	// (SELECT rows, CONSTRUCT/export graphs); Buffered counts
	// whole-payload bodies (ASK, update feedback reports).
	Streamed uint64
	Buffered uint64
	// Truncated counts streamed responses cut short after their first
	// byte reached the client (mid-stream failure or timeout).
	Truncated uint64
	// BytesWritten totals response bytes on the gated routes.
	BytesWritten uint64
}

// New builds the endpoint around a mediator with permissive Options.
func New(m *core.Mediator) *Server {
	return NewWithOptions(m, Options{})
}

// NewWithOptions builds the endpoint with explicit load hardening.
func NewWithOptions(m *core.Mediator, opts Options) *Server {
	s := &Server{mediator: m, mux: http.NewServeMux(), opts: opts}
	if opts.MaxInFlight > 0 {
		s.sem = make(chan struct{}, opts.MaxInFlight)
	}
	s.mux.HandleFunc("/update", s.limited(s.handleUpdate))
	s.mux.HandleFunc("/sparql", s.limited(s.handleQuery))
	s.mux.HandleFunc("/export", s.limited(s.handleExport))
	s.mux.HandleFunc("/branches", s.limited(s.handleBranches))
	s.mux.HandleFunc("/mapping", s.handleMapping)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	return s
}

// Stats snapshots the endpoint load counters.
func (s *Server) Stats() Stats {
	return Stats{
		InFlight:     s.inFlight.Load(),
		Shed:         s.shed.Load(),
		TimedOut:     s.timedOut.Load(),
		Streamed:     s.streamed.Load(),
		Buffered:     s.buffered.Load(),
		Truncated:    s.truncated.Load(),
		BytesWritten: s.bytes.Load(),
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// limited applies the endpoint's load gates around a handler: the
// non-blocking in-flight semaphore (full ⇒ immediate 503, so overload
// turns into fast rejections instead of unbounded queueing), the
// per-request deadline, and response byte accounting. /mapping and
// /healthz stay ungated so operators can observe a saturated server.
func (s *Server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				s.shed.Add(1)
				w.Header().Set("Retry-After", "1")
				http.Error(w, "server overloaded; request shed", http.StatusServiceUnavailable)
				return
			}
		}
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		if s.opts.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		cw := &countingResponseWriter{ResponseWriter: w}
		defer func() { s.bytes.Add(cw.n) }()
		h(cw, r)
	}
}

// countingResponseWriter tracks how many body bytes actually reached
// the client connection — the commit point for the mid-stream error
// contract (nothing sent yet ⇒ the buffered staging can be dropped
// and a clean error status returned).
type countingResponseWriter struct {
	http.ResponseWriter
	n uint64
}

func (c *countingResponseWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += uint64(n)
	return n, err
}

// committed reports whether any body byte reached the client.
func (c *countingResponseWriter) committed() bool { return c.n > 0 }

// bufPool recycles the per-response staging buffers of the streaming
// serializers; 32 KiB batches tiny row writes into few socket writes
// and keeps small responses entirely un-flushed until the handler
// knows they succeeded.
var bufPool = sync.Pool{
	New: func() any { return bufio.NewWriterSize(io.Discard, 32<<10) },
}

const turtleMIME = "text/turtle; charset=utf-8"

// readTarget extracts the time-travel target from a request's URL
// parameters: ?asOf=<version> pins a retained historical snapshot,
// ?branch=<name> a named branch head. At most one may be given.
func readTarget(r *http.Request) (rdb.ReadTarget, error) {
	q := r.URL.Query()
	asOf, branch := q.Get("asOf"), q.Get("branch")
	if asOf != "" && branch != "" {
		return rdb.ReadTarget{}, fmt.Errorf("endpoint: asOf and branch are mutually exclusive")
	}
	if asOf != "" {
		v, err := strconv.ParseUint(asOf, 10, 64)
		if err != nil || v == 0 {
			return rdb.ReadTarget{}, fmt.Errorf("endpoint: invalid asOf version %q", asOf)
		}
		return rdb.ReadTarget{AsOf: v}, nil
	}
	if branch != "" && branch != rdb.MainBranch {
		return rdb.ReadTarget{Branch: branch}, nil
	}
	return rdb.ReadTarget{}, nil
}

// targetStatus maps a resolution failure onto an HTTP status: targets
// that do not exist (evicted or never-published versions, missing
// branches) are 404s, everything else a client error.
func targetStatus(err error) int {
	var ve *rdb.VersionError
	var be *rdb.BranchError
	if errors.As(err, &ve) || errors.As(err, &be) {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a SPARQL/Update request", http.StatusMethodNotAllowed)
		return
	}
	if r.URL.Query().Get("asOf") != "" {
		http.Error(w, "historical snapshots are immutable; writes take ?branch=, not ?asOf=",
			http.StatusBadRequest)
		return
	}
	target, err := readTarget(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	src, err := readUpdateBody(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, execErr := s.mediator.ExecuteStringOn(src, target)
	if execErr != nil && (res == nil || res.Report == nil) {
		// No feedback report to render: the failure happened before
		// translation (an unknown branch, a non-head target).
		http.Error(w, execErr.Error(), targetStatus(execErr))
		return
	}
	w.Header().Set("Content-Type", turtleMIME)
	if execErr != nil {
		// Constraint violations are client errors; everything the
		// client needs is in the RDF feedback report.
		w.WriteHeader(http.StatusUnprocessableEntity)
	}
	s.buffered.Add(1)
	if res != nil && res.Report != nil {
		io.WriteString(w, res.Report.Turtle())
		return
	}
	fmt.Fprintf(w, "# no report\n")
}

// readUpdateBody accepts the raw body, a form-encoded "update"
// parameter, or "application/sparql-update" content.
func readUpdateBody(r *http.Request) (string, error) {
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/x-www-form-urlencoded") {
		if err := r.ParseForm(); err != nil {
			return "", fmt.Errorf("endpoint: parsing form: %w", err)
		}
		if u := r.PostForm.Get("update"); u != "" {
			return u, nil
		}
		return "", fmt.Errorf("endpoint: missing 'update' form parameter")
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		return "", fmt.Errorf("endpoint: reading body: %w", err)
	}
	if len(body) == 0 {
		return "", fmt.Errorf("endpoint: empty request body")
	}
	return string(body), nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var query string
	switch r.Method {
	case http.MethodGet:
		query = r.URL.Query().Get("query")
	case http.MethodPost:
		if err := r.ParseForm(); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		query = r.PostForm.Get("query")
		if query == "" {
			body, _ := io.ReadAll(io.LimitReader(r.Body, 16<<20))
			query = string(body)
		}
	default:
		http.Error(w, "GET or POST a SPARQL query", http.StatusMethodNotAllowed)
		return
	}
	if strings.TrimSpace(query) == "" {
		http.Error(w, "missing 'query' parameter", http.StatusBadRequest)
		return
	}
	target, terr := readTarget(r)
	if terr != nil {
		http.Error(w, terr.Error(), http.StatusBadRequest)
		return
	}
	wantJSON := strings.Contains(r.Header.Get("Accept"), "application/sparql-results+json") ||
		strings.Contains(r.Header.Get("Accept"), "application/json")

	bw := bufPool.Get().(*bufio.Writer)
	bw.Reset(w)
	defer func() {
		bw.Reset(io.Discard)
		bufPool.Put(bw)
	}()
	sink := &querySink{w: w, bw: bw, ctx: r.Context(), done: r.Context().Done(), wantJSON: wantJSON}
	if err := s.mediator.QueryStreamOn(query, sink, target); err != nil {
		s.failStream(w, sink, err)
		return
	}
	if err := sink.finish(); err != nil {
		// The flush failed: the client is gone or stalled past the
		// server's write deadline. Nothing to tell them.
		s.truncated.Add(1)
		return
	}
	if sink.incremental {
		s.streamed.Add(1)
	} else {
		s.buffered.Add(1)
	}
}

// failStream maps a QueryStream error onto the wire. Before the first
// byte is committed the staged buffer is dropped and the client gets
// a clean error status — exactly the buffered endpoint's behavior
// (400 for query errors, 504 for deadline/cancel). After commit the
// response cannot be unsent: text formats get a comment trailer
// ("# ERROR: ... (response truncated)") and a clean close, JSON gets
// an aborted chunked body (http.ErrAbortHandler), so clients never
// mistake a truncated result for a complete one. Either post-commit
// path counts as truncated.
func (s *Server) failStream(w http.ResponseWriter, sink *querySink, err error) {
	deadline := errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
	if deadline {
		s.timedOut.Add(1)
	}
	cw, _ := w.(*countingResponseWriter)
	if cw == nil || !cw.committed() {
		sink.bw.Reset(io.Discard) // drop staged output
		if deadline {
			http.Error(w, "query timed out: "+err.Error(), http.StatusGatewayTimeout)
			return
		}
		http.Error(w, err.Error(), targetStatus(err))
		return
	}
	s.truncated.Add(1)
	if sink.wantJSON {
		// A JSON prefix has reached the client; no valid way to signal
		// failure in-band. Abort the chunked body so the transfer ends
		// visibly mid-document instead of parsing as a complete result.
		panic(http.ErrAbortHandler)
	}
	fmt.Fprintf(sink.bw, "\n# ERROR: %v (response truncated)\n", err)
	sink.bw.Flush()
}

// querySink adapts core.RowSink onto one HTTP response: Head picks
// the serializer from the negotiated content type, Row (or Solution)
// feeds it row by row, Ask/Graph handle the other query forms. Every
// call first checks the request's deadline, so an expired or cancelled
// request stops the cursor at the next row.
type querySink struct {
	w   http.ResponseWriter
	bw  *bufio.Writer
	ctx context.Context
	// done is ctx.Done(), captured once: a receive on it is the
	// per-row deadline check, where ctx.Err() would take the context's
	// mutex on every row.
	done     <-chan struct{}
	wantJSON bool
	// incremental marks bodies produced row-/block-wise (SELECT,
	// CONSTRUCT) as opposed to whole-payload writes (ASK).
	incremental bool
	jw          *sparql.ResultsJSONWriter
	tw          *sparql.TableWriter
}

// expired reports the request's context error once its deadline has
// passed or it was cancelled, and nil before — without locking.
func (k *querySink) expired() error {
	select {
	case <-k.done:
		return k.ctx.Err()
	default:
		return nil
	}
}

func (k *querySink) Head(vars []string) error {
	if err := k.expired(); err != nil {
		return err
	}
	k.incremental = true
	if k.wantJSON {
		k.w.Header().Set("Content-Type", "application/sparql-results+json")
		jw, err := sparql.NewResultsJSONWriter(k.bw, vars)
		if err != nil {
			return err
		}
		k.jw = jw
		return nil
	}
	k.w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	k.tw = sparql.NewTableWriter(k.bw, vars)
	return nil
}

func (k *querySink) Row(r *sparql.Row) error {
	if err := k.expired(); err != nil {
		return err
	}
	if k.jw != nil {
		return k.jw.WriteRow(r)
	}
	return k.tw.WriteRow(r)
}

func (k *querySink) Solution(b sparql.Binding) error {
	if err := k.expired(); err != nil {
		return err
	}
	if k.jw != nil {
		return k.jw.WriteSolution(b)
	}
	return k.tw.WriteSolution(b)
}

func (k *querySink) Ask(v bool) error {
	if err := k.expired(); err != nil {
		return err
	}
	if k.wantJSON {
		data, err := sparql.AskJSON(v)
		if err != nil {
			return err
		}
		k.w.Header().Set("Content-Type", "application/sparql-results+json")
		_, werr := k.bw.Write(data)
		return werr
	}
	k.w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, err := fmt.Fprintf(k.bw, "%v\n", v)
	return err
}

func (k *querySink) Graph(g *rdf.Graph) error {
	if err := k.expired(); err != nil {
		return err
	}
	k.incremental = true
	k.w.Header().Set("Content-Type", turtleMIME)
	return turtle.Write(k.bw, g, rdf.CommonPrefixes())
}

// finish closes the row serializer (writing its trailer) and flushes
// the staging buffer.
func (k *querySink) finish() error {
	if k.jw != nil {
		if err := k.jw.Close(); err != nil {
			return err
		}
	}
	if k.tw != nil {
		if err := k.tw.Close(); err != nil {
			return err
		}
	}
	return k.bw.Flush()
}

func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	target, terr := readTarget(r)
	if terr != nil {
		http.Error(w, terr.Error(), http.StatusBadRequest)
		return
	}
	g, err := s.mediator.ExportOn(target)
	if err != nil {
		if !target.IsHead() {
			http.Error(w, err.Error(), targetStatus(err))
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if err := r.Context().Err(); err != nil {
		s.timedOut.Add(1)
		http.Error(w, "export timed out: "+err.Error(), http.StatusGatewayTimeout)
		return
	}
	bw := bufPool.Get().(*bufio.Writer)
	bw.Reset(w)
	defer func() {
		bw.Reset(io.Discard)
		bufPool.Put(bw)
	}()
	if strings.Contains(r.Header.Get("Accept"), "application/n-triples") {
		w.Header().Set("Content-Type", "application/n-triples")
		err = ntriples.Write(bw, g)
	} else {
		w.Header().Set("Content-Type", turtleMIME)
		err = turtle.Write(bw, g, rdf.CommonPrefixes())
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		s.truncated.Add(1)
		return
	}
	s.streamed.Add(1)
}

// handleBranches is the time-travel admin surface.
//
//	GET  /branches                         — list named refs
//	GET  /branches?diff&from=<t>&to=<t>    — structural diff of two
//	                                         targets (a version number,
//	                                         a branch name, or "main")
//	POST /branches?action=create&name=<n>  — fork a branch off main
//	POST /branches?action=drop&name=<n>    — remove a ref
//	POST /branches?action=merge&from=<n>&into=<n> — merge refs (one
//	                                         side must be "main")
func (s *Server) handleBranches(w http.ResponseWriter, r *http.Request) {
	db := s.mediator.DB()
	q := r.URL.Query()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch r.Method {
	case http.MethodGet:
		if _, ok := q["diff"]; ok {
			s.writeDiff(w, q.Get("from"), q.Get("to"))
			return
		}
		hs := db.HistoryStats()
		fmt.Fprintf(w, "main head=%d seq=%d\n", hs.Head, hs.Seq)
		for _, b := range db.ListBranches() {
			fmt.Fprintf(w, "%s head=%d parent=%d base=%d created=%d\n",
				b.Name, b.Head, b.HeadParent, b.Base, b.CreatedAt)
		}
	case http.MethodPost:
		switch action := q.Get("action"); action {
		case "create":
			if err := db.CreateBranch(q.Get("name")); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			fmt.Fprintf(w, "created %s\n", q.Get("name"))
		case "drop":
			if err := db.DropBranch(q.Get("name")); err != nil {
				http.Error(w, err.Error(), targetStatus(err))
				return
			}
			fmt.Fprintf(w, "dropped %s\n", q.Get("name"))
		case "merge":
			res, err := db.Merge(q.Get("from"), q.Get("into"))
			if err != nil {
				var conflict *rdb.MergeConflictError
				var merr *rdb.MergeError
				status := targetStatus(err)
				if errors.As(err, &conflict) || errors.As(err, &merr) {
					status = http.StatusConflict
				}
				http.Error(w, err.Error(), status)
				return
			}
			switch {
			case res.UpToDate:
				fmt.Fprintf(w, "merge %s into %s: already up to date\n", res.From, res.Into)
			case res.FastForward:
				fmt.Fprintf(w, "merge %s into %s: fast-forward to version %d\n",
					res.From, res.Into, res.Version)
			default:
				fmt.Fprintf(w, "merge %s into %s: version %d, %d rows applied\n",
					res.From, res.Into, res.Version, res.Applied)
			}
		default:
			http.Error(w, "unknown action; want create, drop or merge", http.StatusBadRequest)
		}
	default:
		http.Error(w, "GET lists or diffs, POST mutates", http.StatusMethodNotAllowed)
	}
}

// parseRefSpec reads a diff target: a decimal snapshot version, the
// trunk name, or a branch name.
func parseRefSpec(spec string) (rdb.ReadTarget, error) {
	if spec == "" {
		return rdb.ReadTarget{}, fmt.Errorf("endpoint: missing diff target")
	}
	if v, err := strconv.ParseUint(spec, 10, 64); err == nil {
		return rdb.ReadTarget{AsOf: v}, nil
	}
	if spec == rdb.MainBranch {
		return rdb.ReadTarget{}, nil
	}
	return rdb.ReadTarget{Branch: spec}, nil
}

func (s *Server) writeDiff(w http.ResponseWriter, fromSpec, toSpec string) {
	from, err := parseRefSpec(fromSpec)
	if err == nil {
		var to rdb.ReadTarget
		to, err = parseRefSpec(toSpec)
		if err == nil {
			var d *rdb.DatabaseDiff
			d, err = s.mediator.DB().Diff(from, to)
			if err == nil {
				fmt.Fprintf(w, "diff %d..%d\n", d.From, d.To)
				for _, t := range d.TablesAdded {
					fmt.Fprintf(w, "table %s: added\n", t)
				}
				for _, t := range d.TablesRemoved {
					fmt.Fprintf(w, "table %s: removed\n", t)
				}
				for _, t := range d.Tables {
					fmt.Fprintf(w, "table %s: +%d -%d ~%d", t.Table, t.Added, t.Removed, t.Updated)
					if len(t.SampleKeys) > 0 {
						fmt.Fprintf(w, " keys %s", strings.Join(t.SampleKeys, " "))
					}
					fmt.Fprintln(w)
				}
				if d.Empty() {
					fmt.Fprintf(w, "identical\n")
				}
				return
			}
		}
	}
	http.Error(w, err.Error(), targetStatus(err))
}

func (s *Server) handleMapping(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", turtleMIME)
	io.WriteString(w, s.mediator.Mapping().Turtle())
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	db := s.mediator.DB()
	fmt.Fprintf(w, "ok\ndatabase: %s\n", db.Name())
	fmt.Fprintf(w, "snapshot version: %d\n", db.SnapshotVersion())
	hs := db.HistoryStats()
	fmt.Fprintf(w, "history: seq %d, %d/%d snapshots retained", hs.Seq, hs.Retained, hs.Depth)
	if hs.Retained > 0 {
		fmt.Fprintf(w, " (versions %d..%d)", hs.Oldest, hs.Newest)
	}
	fmt.Fprintf(w, ", %d evicted\n", hs.Evictions)
	fmt.Fprintf(w, "branches: %d named refs\n", hs.Branches)
	st := s.mediator.SchedulerStats()
	fmt.Fprintf(w, "write batches: %d (%d ops, max batch %d)\n", st.Batches, st.Ops, st.MaxBatch)
	var keyed uint64
	var hot []string
	for i, n := range st.ShardBatches {
		keyed += n
		if n > 0 {
			hot = append(hot, fmt.Sprintf("%d:%d", i, n))
		}
	}
	fmt.Fprintf(w, "shard batches: %d keyed claims, %d whole-table, %d keyed fallbacks\n",
		keyed, st.WholeTableBatches, st.KeyedFallbacks)
	if len(hot) > 0 {
		fmt.Fprintf(w, "shard batch counts: %s\n", strings.Join(hot, " "))
	}
	if ds := s.mediator.DurabilityStats(); ds.Enabled {
		fmt.Fprintf(w, "durability: %s\n", ds.DataDir)
		fmt.Fprintf(w, "wal: %d bytes, %d records, %d segments\n", ds.WALBytes, ds.WALRecords, ds.WALSegments)
		fmt.Fprintf(w, "checkpoints: %d (last at version %d)\n", ds.Checkpoints, ds.LastCheckpointVersion)
		fmt.Fprintf(w, "checkpoint tables: %d written, %d unchanged\n",
			ds.CheckpointTablesWritten, ds.CheckpointTablesSkipped)
		fmt.Fprintf(w, "checkpoint io: %d bytes, last %v\n",
			ds.CheckpointBytes, ds.LastCheckpointDuration.Round(time.Microsecond))
		if ds.CheckpointFailures > 0 {
			fmt.Fprintf(w, "checkpoint failures: %d, last error %q\n", ds.CheckpointFailures, ds.LastCheckpointError)
		} else {
			fmt.Fprintf(w, "checkpoint failures: 0\n")
		}
		fmt.Fprintf(w, "recovered records: %d\n", ds.RecoveredRecords)
		if st.Batches > 0 {
			fmt.Fprintf(w, "fsyncs: %d (%.2f per batch)\n", ds.Fsyncs, float64(ds.Fsyncs)/float64(st.Batches))
		} else {
			fmt.Fprintf(w, "fsyncs: %d\n", ds.Fsyncs)
		}
	} else {
		fmt.Fprintf(w, "durability: disabled (memory-only)\n")
	}
	compiled, fallback := s.mediator.QueryExecStats()
	fmt.Fprintf(w, "query executions: %d compiled, %d fallback\n", compiled, fallback)
	es := s.Stats()
	fmt.Fprintf(w, "endpoint requests: %d in flight, %d shed, %d timed out\n",
		es.InFlight, es.Shed, es.TimedOut)
	fmt.Fprintf(w, "endpoint responses: %d streamed, %d buffered, %d truncated, %d bytes written\n",
		es.Streamed, es.Buffered, es.Truncated, es.BytesWritten)
	for _, c := range []struct {
		name  string
		stats core.CacheStats
	}{
		{"update plans", s.mediator.PlanCacheStats()},
		{"modify plans", s.mediator.ModifyPlanCacheStats()},
		{"query plans", s.mediator.QueryPlanCacheStats()},
		{"query parses", s.mediator.QueryParseCacheStats()},
	} {
		fmt.Fprintf(w, "%s: %d cached, %d hits, %d misses, %d evictions\n",
			c.name, c.stats.Size, c.stats.Hits, c.stats.Misses, c.stats.Evictions)
	}
	// The statistics snapshot the cost-based join planner reads: row
	// counts plus per-index distinct counts, O(1) off the snapshot.
	stats := db.Stats()
	for _, name := range db.TableNames() {
		ts := stats.Tables[name]
		fmt.Fprintf(w, "table %s: %d rows", name, ts.Rows)
		cols := make([]string, 0, len(ts.Distinct))
		for c := range ts.Distinct {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		for _, c := range cols {
			fmt.Fprintf(w, ", %s: %d distinct", c, ts.Distinct[c])
		}
		fmt.Fprintln(w)
	}
}
