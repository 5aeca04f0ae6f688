// Command bench is the repository's benchmark: it drives the real
// ontoaccessd binary over loopback HTTP with seeded closed-loop
// workloads, checks every answer, and reports end-to-end metrics
// (tracing off) or per-layer metrics (tracing on). See README.md.
//
//	bash bench/run.sh --workload point_mix --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh                  # every workload, both kinds of run
//	bash bench/run.sh -aa 10           # A/A report against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minPhase is the shortest measured phase the bounds in BENCHMARK.json
// were shown to hold for.
const minPhase = 15

func main() {
	os.Exit(run())
}

func run() (code int) {
	name := flag.String("workload", "", "workload to run: point_mix, scan_stream, write_burst or shape_mix (default: all)")
	seed := flag.Int64("seed", 1, "seed of the data set and of every connection's request stream")
	seconds := flag.Int("seconds", minPhase, "length of the measured phase in seconds, the same for every workload")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and bench/out/trace-<workload>.jsonl")
	aa := flag.Int("aa", 0, "run the suite N times as set A and N times as set B, alternating, and print the A/A report")
	daemonBin := flag.String("daemon", ".bench_build/ontoaccessd", "path of the built ontoaccessd binary")
	outDir := flag.String("out", "bench/out", "directory for data directories and trace files")
	flag.Parse()

	// The client side is part of the system being timed on a two-core
	// box; pin its parallelism so a bigger host does not change the
	// closed loop.
	runtime.GOMAXPROCS(2)

	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	if *seconds < minPhase {
		fmt.Fprintf(os.Stderr, "bench: warning: a %d s measured phase is below the %d s the metric bounds were validated for\n", *seconds, minPhase)
	}
	bin, err := filepath.Abs(*daemonBin)
	if err == nil {
		_, err = os.Stat(bin)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: no daemon binary (bench/run.sh builds it): %v\n", err)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	scratch, err := os.MkdirTemp(*outDir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	// Every exit path — return, panic, SIGINT/SIGTERM — kills the
	// children and removes the data directories.
	cleanup := func() {
		killChildren()
		os.RemoveAll(scratch)
	}
	defer cleanup()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		cleanup()
		os.Exit(130)
	}()

	var selected []*workload
	if *name == "" {
		selected = workloads
	} else if w := workloadByName(*name); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	base := runConfig{
		seed: *seed, phase: time.Duration(*seconds) * time.Second,
		daemonBin: bin, outDir: scratch,
	}

	if *aa > 0 {
		if err := runAA(base, selected, *aa, *outDir); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}

	// One workload with an explicit -trace is the contract's single
	// run; no workload named means the whole suite, both kinds of run.
	traces := []int{*trace}
	if *name == "" {
		traces = []int{0, 1}
	}
	var last *report
	for _, w := range selected {
		for _, tr := range traces {
			cfg := base
			cfg.w = w
			rep, err := runOnce(&cfg, tr == 1, *outDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			rep.print(os.Stdout)
			last = rep
		}
	}
	if len(selected) == 1 && len(traces) == 1 {
		// The contract's last line: one JSON object.
		line, err := json.Marshal(last)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return 0
}

// report is one run's outcome in the contract's shape.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload string
	traced   bool
	problems []string
	errs     []string
	notes    []string
}

// runOnce performs one run of cfg.w: end to end with tracing off, or
// the traced pair (a daemon run for the numbers read from outside,
// then the in-process replay with spans).
func runOnce(cfg *runConfig, traced bool, outDir string) (*report, error) {
	if traced {
		// The per-layer numbers carry no bound, so the traced run
		// spends a third of the time on the daemon and the rest on the
		// in-process replay.
		cfg.setups, cfg.recovers, cfg.keep = 1, 5, true
		cfg.phase /= 3
	} else {
		cfg.setups, cfg.recovers = 3, 0
	}
	res, err := runE2E(cfg)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Attempted: res.attempted, Failed: res.failed,
		workload: cfg.w.name, traced: traced, problems: res.problems, errs: res.errs, notes: res.notes,
	}
	rep.notes = append(rep.notes, fmt.Sprintf("seed %d, measured phase %v, warm-up %v, %d connections closed loop, client GOMAXPROCS %d; %s",
		cfg.seed, cfg.phase, warmup, nConns, runtime.GOMAXPROCS(0), cfg.w.describe()))
	if traced {
		tr, err := runTraced(cfg, res, filepath.Join(outDir, "trace-"+cfg.w.name+".jsonl"))
		if err != nil {
			return nil, err
		}
		rep.Attempted += tr.attempted
		rep.Failed += tr.failed
		rep.errs = append(rep.errs, tr.errs...)
		rep.problems = append(rep.problems, tr.problems...)
		rep.notes = append(rep.notes, tr.notes...)
	}
	defs, got := endToEndMetrics, res.endToEnd
	if traced {
		defs, got = perLayerMetrics, res.perLayer
	}
	var unknown []string
	if rep.Metrics, unknown = conform(got, defs); len(unknown) > 0 && traced {
		rep.problems = append(rep.problems, fmt.Sprintf("metrics computed but not declared in metrics.go: %v", unknown))
	}
	rep.Correct = rep.Failed == 0 && len(rep.problems) == 0
	return rep, nil
}

// print lists every metric with its unit, then whatever went wrong.
func (r *report) print(w *os.File) {
	kind := "end-to-end, tracing off"
	if r.traced {
		kind = "per-layer, traced"
	}
	fmt.Fprintf(w, "== %s (%s): %d operations attempted, %d failed, correct=%v\n", r.workload, kind, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-42s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "failed operation: %s\n", e)
	}
}
