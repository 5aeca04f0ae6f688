package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The end-to-end run: the real ontoaccessd binary as a child process
// on a fresh data directory (fsync before acknowledgement, the
// daemon's default flags), driven over loopback HTTP by nConns
// closed-loop connections.
//
//	start daemon -> seed -> crash check -> warm-up -> measured phase -> scrape -> stop

const (
	warmup = 2 * time.Second
	// window is the throughput estimator's bucket.
	window = time.Second
	// crashWrites acknowledged single-row writes precede the SIGKILL.
	crashWrites = 2000
	// crashReads of them per connection are read back after restart.
	crashReads = 100
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts checked operations; a failed or wrong answer counts as
// failed.
type tally struct {
	attempted, failed int
	errs              []string // the first few, for the operator
}

func (t *tally) note(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// sample is one measured operation.
type sample struct {
	kind       uint8
	ok         bool
	start, end time.Duration // on the phase clock
	bytes      int
}

// client is one closed-loop connection.
type client struct {
	st   *connState
	hc   *http.Client
	base string
	buf  bytes.Buffer
	tally
}

func newClient(st *connState, base string) *client {
	return &client{
		st:   st,
		base: base,
		hc: &http.Client{
			Timeout: 60 * time.Second,
			// One keep-alive connection, no transparent gzip: the bytes
			// timed are the bytes the daemon wrote.
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
	}
}

// do sends r, reads the whole answer, checks it and, for an
// acknowledged write, updates the model. The returned times bracket
// request written -> body fully read; checking is outside them.
func (cl *client) do(r *request) (t0, t1 time.Time, n int, err error) {
	var req *http.Request
	if r.apply != nil {
		req, err = http.NewRequest(http.MethodPost, cl.base+"/update", strings.NewReader(r.text))
		if err == nil {
			req.Header.Set("Content-Type", "application/sparql-update")
		}
	} else {
		req, err = http.NewRequest(http.MethodGet, cl.base+"/sparql?query="+url.QueryEscape(r.text), nil)
		if err == nil && r.json {
			req.Header.Set("Accept", "application/sparql-results+json")
		}
	}
	if err != nil {
		return t0, t1, 0, err
	}
	t0 = time.Now()
	resp, err := cl.hc.Do(req)
	if err != nil {
		return t0, time.Now(), 0, err
	}
	cl.buf.Reset()
	_, err = cl.buf.ReadFrom(resp.Body)
	t1 = time.Now()
	resp.Body.Close()
	if err != nil {
		return t0, t1, cl.buf.Len(), fmt.Errorf("reading answer: %w", err)
	}
	if err = checkResponse(r, resp.StatusCode, cl.buf.Bytes()); err != nil {
		return t0, t1, cl.buf.Len(), err
	}
	if r.apply != nil {
		r.apply()
	}
	return t0, t1, cl.buf.Len(), nil
}

// runPhase drives every client in a closed loop for d and returns each
// connection's samples.
func runPhase(clients []*client, d time.Duration) [][]sample {
	out := make([][]sample, len(clients))
	var wg sync.WaitGroup
	begin := time.Now()
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			samples := make([]sample, 0, 1<<16)
			for time.Since(begin) < d {
				r := cl.st.next()
				t0, t1, n, err := cl.do(&r)
				if err != nil {
					err = fmt.Errorf("%s: %w", cl.st.w.kinds[r.kind].name, err)
				}
				cl.note(err)
				samples = append(samples, sample{kind: uint8(r.kind), ok: err == nil, start: t0.Sub(begin), end: t1.Sub(begin), bytes: n})
			}
			out[i] = samples
		}(i, cl)
	}
	wg.Wait()
	return out
}

// runConfig is what one run needs beyond the workload.
type runConfig struct {
	w         *workload
	seed      int64
	phase     time.Duration
	setups    int    // set-ups to take the median of
	recovers  int    // restarts of copies of the crash image to time (traced run only)
	keep      bool   // leave the data directory for a traced run to take over
	daemonBin string // path of the built ontoaccessd
	outDir    string // scratch root, inside the checkout
}

// e2eResult is everything an end-to-end run observed.
type e2eResult struct {
	tally
	endToEnd map[string]metric
	perLayer map[string]metric
	problems []string // violated assertions; any makes the run incorrect
	notes    []string
	// readP50, writeP50 (raw, ms) feed the traced run's transport
	// estimate.
	readP50, writeP50 float64
	// live is what a traced run takes over; nil unless cfg.keep.
	live *liveRun
}

// liveRun is the state a daemon run leaves behind: the killed daemon's
// data directory, the model, and each connection's generator.
type liveRun struct {
	dir    string
	m      *model
	states []*connState
}

// setUp starts a daemon on an empty directory under cfg.outDir, seeds
// m's preloaded rows through one connection and verifies the row
// counts.
func setUp(cfg *runConfig, m *model) (d *daemon, dir string, took, startTook time.Duration, err error) {
	dir, err = os.MkdirTemp(cfg.outDir, "data-")
	if err != nil {
		return nil, "", 0, 0, err
	}
	t0 := time.Now()
	d, startTook, err = startDaemon(cfg.daemonBin, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", 0, 0, err
	}
	fail := func(err error) (*daemon, string, time.Duration, time.Duration, error) {
		d.kill()
		os.RemoveAll(dir)
		return nil, "", 0, 0, err
	}
	hc := &http.Client{Timeout: 60 * time.Second}
	err = seed(hc, d.base, m)
	if err != nil {
		return fail(fmt.Errorf("seeding: %w", err))
	}
	h, err := scrapeHealth(hc, d.base)
	if err != nil {
		return fail(err)
	}
	if err := compareRows(h, m); err != nil {
		return fail(fmt.Errorf("after seeding: %w", err))
	}
	return d, dir, time.Since(t0), startTook, nil
}

// seed posts m's rows to base's /update, batch by batch, through one
// connection, and checks that each batch went in.
func seed(hc *http.Client, base string, m *model) error {
	return m.seedRequests(func(body string) error {
		resp, err := hc.Post(base+"/update", "application/sparql-update", strings.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		// The report lists every generated statement; its head says
		// whether the batch went in.
		head := make([]byte, 512)
		n, _ := io.ReadFull(resp.Body, head) // short reports are fine
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return fmt.Errorf("reading seed report: %w", err)
		}
		if resp.StatusCode != http.StatusOK || !bytes.Contains(head[:n], []byte("fb:Success")) {
			return fmt.Errorf("seed batch refused: status %d: %.300s", resp.StatusCode, head[:n])
		}
		return nil
	})
}

func compareRows(h *health, m *model) error {
	for table, want := range m.wantRows() {
		if got := h.tableRows[table]; got != want {
			return fmt.Errorf("table %s has %d rows, the model %d", table, got, want)
		}
	}
	return nil
}

// crashCheck is the durability check: crashWrites acknowledged
// single-row writes, SIGKILL, restart on the same directory, and the
// values a sample of those writes left must be readable. It returns
// the restarted daemon. A SIGKILL drops the process but not the
// kernel's page cache, so this shows that acknowledged means written
// and replayable, not that it survives power loss.
func crashCheck(cfg *runConfig, d *daemon, dir string, clients []*client, res *e2eResult) (*daemon, error) {
	touched := make([][]*author, len(clients))
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			for n := 0; n < crashWrites/len(clients); n++ {
				a := cl.st.ownAuthor()
				r := cl.st.modifyMbox(a)
				_, _, _, err := cl.do(&r)
				if err != nil {
					err = fmt.Errorf("crash-check write: %w", err)
				}
				cl.note(err)
				if err == nil && len(touched[i]) < crashReads {
					touched[i] = append(touched[i], a)
				}
			}
		}(i, cl)
	}
	wg.Wait()
	d.kill()
	if len(touched[0]) == 0 {
		return nil, fmt.Errorf("no crash-check write was acknowledged: %v", clients[0].errs)
	}

	// Restart time does not repeat within a tenth on the reference box
	// even for a byte-identical image, so it is a per-layer number:
	// the median over several copies of this image.
	var recoverS []float64
	for n := 0; n < cfg.recovers; n++ {
		cp, err := os.MkdirTemp(cfg.outDir, "crash-")
		if err != nil {
			return nil, err
		}
		if err := copyDir(dir, cp); err != nil {
			os.RemoveAll(cp)
			return nil, err
		}
		t0 := time.Now()
		rd, _, err := startDaemon(cfg.daemonBin, cp)
		if err != nil {
			os.RemoveAll(cp)
			return nil, fmt.Errorf("restart on the crash image: %w", err)
		}
		r := clients[0].st.pointRead(touched[0][0])
		_, _, _, err = newClient(clients[0].st, rd.base).do(&r)
		recoverS = append(recoverS, time.Since(t0).Seconds())
		rd.kill()
		os.RemoveAll(cp)
		if err != nil {
			return nil, fmt.Errorf("first read after restart: %w", err)
		}
	}
	if len(recoverS) > 0 {
		res.perLayer["rdb.persist.recover_s"] = metric{median(recoverS), "s"}
	}

	nd, _, err := startDaemon(cfg.daemonBin, dir)
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	for i, cl := range clients {
		cl.base = nd.base
		for _, a := range touched[i] {
			r := cl.st.pointRead(a)
			_, _, _, err := cl.do(&r)
			cl.note(err)
			if err != nil {
				res.problems = append(res.problems, fmt.Sprintf("acknowledged write lost across SIGKILL: %v", err))
				return nd, nil
			}
		}
	}
	return nd, nil
}

func copyDir(from, to string) error {
	return filepath.WalkDir(from, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(from, path)
		if err != nil {
			return err
		}
		if e.IsDir() {
			return os.MkdirAll(filepath.Join(to, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(to, rel), data, 0o644)
	})
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// selfCPU is the harness's own user + system CPU time so far, from
// getrusage: microsecond resolution, where /proc/self/stat counts in
// 10 ms ticks.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runE2E performs one end-to-end run of cfg.w.
func runE2E(cfg *runConfig) (*e2eResult, error) {
	res := &e2eResult{endToEnd: map[string]metric{}, perLayer: map[string]metric{}}
	m := newModel(cfg.seed, cfg.w.authors, cfg.w.pubs)

	// Set-up, several times over: one set-up is a second or two and
	// swings by a fifth, the median of a few does not.
	var setupS, setupCPU, startMs []float64
	var d *daemon
	var dir string
	for n := 0; n < cfg.setups; n++ {
		if d != nil {
			d.kill()
			os.RemoveAll(dir)
		}
		var took, startTook time.Duration
		var err error
		cpu0 := selfCPU()
		d, dir, took, startTook, err = setUp(cfg, m)
		if err != nil {
			return nil, err
		}
		setupCPU = append(setupCPU, (selfCPU() - cpu0).Seconds())
		setupS = append(setupS, took.Seconds())
		startMs = append(startMs, float64(startTook)/float64(time.Millisecond))
	}
	defer func() {
		d.kill()
		if res.live == nil {
			os.RemoveAll(dir)
		}
	}()
	// Each set-up is scaled to reference host speed by the harness's own
	// CPU time during it (generating and posting the same batches every
	// time), the way summarize scales the measured phase's times.
	scaled := make([]float64, len(setupS))
	for i := range setupS {
		scaled[i] = setupS[i] * cfg.w.refSetupCPU / setupCPU[i]
	}
	res.endToEnd["setup_s"] = metric{median(scaled), "s"}
	res.perLayer["proc.setup_raw_s"] = metric{median(setupS), "s"}
	res.perLayer["bench.setup_client_cpu_s"] = metric{median(setupCPU), "s"}
	res.perLayer["proc.start_ms"] = metric{median(startMs), "ms"}
	res.attempted++ // the set-up's verified row counts

	clients := make([]*client, nConns)
	for i := range clients {
		clients[i] = newClient(newConnState(cfg.w, m, cfg.seed, i), d.base)
	}
	restarted, err := crashCheck(cfg, d, dir, clients, res)
	if err != nil {
		return nil, err
	}
	d = restarted

	runPhase(clients, warmup)

	hc := &http.Client{Timeout: 60 * time.Second}
	h0, err := scrapeHealth(hc, d.base)
	if err != nil {
		return nil, err
	}
	p0, err := d.sample()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	perConn := runPhase(clients, cfg.phase)
	p1, err := d.sample()
	if err != nil {
		return nil, err
	}
	self1 := selfCPU()
	h1, err := scrapeHealth(hc, d.base)
	if err != nil {
		return nil, err
	}
	for _, cl := range clients {
		res.merge(&cl.tally)
	}
	summarize(cfg, res, perConn, h0, h1, p0, p1, self1-self0)

	// The final state, whole: the store's N-Triples export against the
	// model's own rendering.
	resp, err := hc.Do(mustRequest(http.MethodGet, d.base+"/export", "application/n-triples"))
	if err != nil {
		return nil, fmt.Errorf("export: %w", err)
	}
	got, exportBytes, err := digestNTriples(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	res.attempted++
	if want := m.digest(); resp.StatusCode != http.StatusOK || got != want {
		res.failed++
		res.problems = append(res.problems, fmt.Sprintf("final export (status %d) has %d triples digest %x, the model %d triples digest %x",
			resp.StatusCode, got.lines, got.sum, want.lines, want.sum))
	}
	h2, err := scrapeHealth(hc, d.base)
	if err != nil {
		return nil, err
	}
	if err := compareRows(h2, m); err != nil {
		res.problems = append(res.problems, "at the end: "+err.Error())
	}
	if onDisk, err := dirBytes(dir); err == nil && exportBytes > 0 {
		res.perLayer["rdb.persist.disk_bytes_per_user_byte"] = metric{float64(onDisk) / float64(exportBytes), "ratio"}
	}
	if cfg.keep {
		res.live = &liveRun{dir: dir, m: m}
		for _, cl := range clients {
			res.live.states = append(res.live.states, cl.st)
		}
	}
	res.notes = append(res.notes, "daemon flags: "+strings.Join(d.args[:3], " ")+" <dir> (all else default: fsync before ack, 4 MiB checkpoint trigger, 64 snapshots)")
	return res, nil
}

func mustRequest(method, url, accept string) *http.Request {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		panic(err) // a constant method and a URL the harness built
	}
	req.Header.Set("Accept", accept)
	return req
}

// summarize turns the measured phase's samples and the scrapes around
// it into metrics and workload-intent assertions.
func summarize(cfg *runConfig, res *e2eResult, perConn [][]sample, h0, h1 *health, p0, p1 procSample, clientCPU time.Duration) {
	w := cfg.w
	var okSpans []span
	var reads, writes []float64
	var okOps, readBytes int
	kindCount := make([]int, len(w.kinds))
	for _, samples := range perConn {
		for _, s := range samples {
			kindCount[s.kind]++
			if !s.ok {
				continue
			}
			okOps++
			okSpans = append(okSpans, span{s.start, s.end})
			ms := float64(s.end-s.start) / float64(time.Millisecond)
			if w.kinds[s.kind].write {
				writes = append(writes, ms)
			} else {
				reads = append(reads, ms)
				readBytes += s.bytes
			}
		}
	}
	sort.Float64s(reads)
	sort.Float64s(writes)
	windows := int(cfg.phase / window)
	rates := windowRates(okSpans, window, windows)
	res.readP50, res.writeP50 = percentile(reads, 0.50), percentile(writes, 0.50)
	e, l := res.endToEnd, res.perLayer
	// Host speed. This box's two vCPUs slow down and speed up by tens of
	// percent over minutes (neighbours on the host), and every time
	// measured here — latency, CPU per operation, the daemon's and the
	// harness's alike — stretches by the same factor: over sixteen
	// point_mix runs, raw throughput spread 17% and raw read p50 25%
	// (quartile distance over median) while throughput times the
	// harness's own CPU per operation spread 4.8% and read p50 over it
	// 4.3%. The harness does the same work for every operation of a
	// workload (generate, send, read, check), so its own CPU time per
	// operation measures the host's speed over exactly the measured
	// phase. The end-to-end times are reported at the reference speed:
	// scaled by refClientCPU, the harness's CPU per operation on the
	// reference box when undisturbed, over what it was in this run. The
	// raw values are kept beside them as per-layer metrics.
	clientPerOp := float64(clientCPU) / float64(time.Microsecond) / float64(max(okOps, 1))
	speed := 1.0
	if clientPerOp > 0 {
		speed = w.refClientCPU / clientPerOp // 1 at reference speed, below 1 on a slower host
	}
	rawCPU := float64(p1.cpu-p0.cpu) / float64(time.Microsecond) / float64(max(okOps, 1))
	e["throughput_rps"] = metric{median(rates) / speed, "1/s"}
	e["read_p50_ms"] = metric{res.readP50 * speed, "ms"}
	e["write_p50_ms"] = metric{res.writeP50 * speed, "ms"}
	e["cpu_us_per_op"] = metric{rawCPU * speed, "us"}
	res.notes = append(res.notes, fmt.Sprintf("host speed %.3f: the harness spent %.1f us of CPU per operation against %.1f at reference speed; times above are scaled to the reference, raw: throughput %.1f /s, read p50 %.4f ms, write p50 %.4f ms, daemon CPU %.1f us/op",
		speed, clientPerOp, w.refClientCPU, median(rates), res.readP50, res.writeP50, rawCPU))
	l["bench.host_speed"] = metric{speed, "ratio"}
	l["bench.client_cpu_us_per_op"] = metric{clientPerOp, "us"}
	l["endpoint.throughput_raw_rps"] = metric{median(rates), "1/s"}
	l["endpoint.read_p50_raw_ms"] = metric{res.readP50, "ms"}
	l["endpoint.write_p50_raw_ms"] = metric{res.writeP50, "ms"}
	l["proc.cpu_raw_us_per_op"] = metric{rawCPU, "us"}
	e["peak_rss_mb"] = metric{p1.hwmMiB, "MiB"}

	l["endpoint.read_p95_ms"] = metric{percentile(reads, 0.95), "ms"}
	l["endpoint.read_p99_ms"] = metric{percentile(reads, 0.99), "ms"}
	l["endpoint.read_samples"] = metric{float64(len(reads)), "count"}
	l["endpoint.write_p95_ms"] = metric{percentile(writes, 0.95), "ms"}
	l["endpoint.write_p99_ms"] = metric{percentile(writes, 0.99), "ms"}
	l["endpoint.write_samples"] = metric{float64(len(writes)), "count"}
	l["endpoint.throughput_mean_rps"] = metric{float64(okOps) / cfg.phase.Seconds(), "1/s"}
	if len(reads) > 0 {
		l["endpoint.bytes_per_read"] = metric{float64(readBytes) / float64(len(reads)), "B"}
	}
	l["endpoint.shed"] = metric{float64(h1.shed - h0.shed), "count"}
	l["endpoint.timed_out"] = metric{float64(h1.timedOut - h0.timedOut), "count"}
	l["endpoint.truncated"] = metric{float64(h1.truncated - h0.truncated), "count"}
	l["core.query_plan_hit_ratio"] = metric{h1.queryPlans.hitRatio(h0.queryPlans), "ratio"}
	l["core.update_plan_hit_ratio"] = metric{h1.updatePlans.hitRatio(h0.updatePlans), "ratio"}
	l["core.modify_plan_hit_ratio"] = metric{h1.modifyPlans.hitRatio(h0.modifyPlans), "ratio"}
	compiled, fallback := h1.compiled-h0.compiled, h1.fallback-h0.fallback
	compiledRatio := 1.0
	if compiled+fallback > 0 {
		compiledRatio = float64(compiled) / float64(compiled+fallback)
	}
	l["core.compiled_ratio"] = metric{compiledRatio, "ratio"}
	if b := h1.batches - h0.batches; b > 0 {
		l["core.batch_size_mean"] = metric{float64(h1.batchOps-h0.batchOps) / float64(b), "ops"}
	} else {
		l["core.batch_size_mean"] = metric{0, "ops"}
	}
	l["core.keyed_fallbacks"] = metric{float64(h1.keyedFallbacks - h0.keyedFallbacks), "count"}
	l["rdb.history_retained"] = metric{float64(h1.historyRetained), "count"}
	l["rdb.history_evictions"] = metric{float64(h1.historyEvictions - h0.historyEvictions), "count"}
	if len(writes) > 0 {
		l["rdb.wal.fsyncs_per_write"] = metric{float64(h1.fsyncs-h0.fsyncs) / float64(len(writes)), "ratio"}
	} else {
		l["rdb.wal.fsyncs_per_write"] = metric{0, "ratio"}
	}
	l["rdb.persist.checkpoints"] = metric{float64(h1.checkpoints - h0.checkpoints), "count"}
	l["proc.rss_end_mb"] = metric{p1.rssMiB, "MiB"}
	l["proc.hwm_start_mb"] = metric{p0.hwmMiB, "MiB"}

	// Workload intent: a run that does not load the layers its
	// workload exists to load is wrong, however fast.
	problem := func(format string, args ...any) {
		res.problems = append(res.problems, w.name+": "+fmt.Sprintf(format, args...))
	}
	for _, name := range []string{"endpoint.shed", "endpoint.timed_out", "endpoint.truncated"} {
		if l[name].Value != 0 {
			problem("%s = %v, must be 0", name, l[name].Value)
		}
	}
	for _, write := range []bool{false, true} {
		primary, total := -1, 0
		for k, kd := range w.kinds {
			if kd.write == write {
				if primary < 0 {
					primary = k
				}
				total += kindCount[k]
			}
		}
		if total > 0 && float64(kindCount[primary]) < 0.70*float64(total) {
			problem("%s is %d of %d in its class, under 70%%", w.kinds[primary].name, kindCount[primary], total)
		}
	}
	hit := l["core.query_plan_hit_ratio"].Value
	switch w.name {
	case "point_mix":
		if hit < 0.95 {
			problem("query plan hit ratio %.3f, want >= 0.95", hit)
		}
	case "shape_mix":
		if hit > 0.10 {
			problem("query plan hit ratio %.3f, want <= 0.10", hit)
		}
	case "write_burst":
		if n := l["rdb.persist.checkpoints"].Value; n < minCheckpoints {
			problem("%v background checkpoints in the measured phase, want >= %d", n, minCheckpoints)
		}
	}
	if (w.name == "point_mix" || w.name == "scan_stream") && compiledRatio < 0.99 {
		problem("compiled ratio %.3f, want >= 0.99", compiledRatio)
	}
}

// minCheckpoints is how many background checkpoint cycles write_burst's
// measured phase must see.
const minCheckpoints = 1
