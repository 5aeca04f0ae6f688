package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// The A/A mode: the same code measured twice, to show that two sets of
// runs agree within the benchmark's own bounds before any change is
// judged by them. Set A and set B alternate (A first on even rounds, B
// first on odd ones) so that a drift of the host lands on both.

// benchmarkFile is the part of BENCHMARK.json the report needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func runAA(base runConfig, selected []*workload, n int, outDir string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("the A/A report takes its bounds from BENCHMARK.json: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}

	// values[workload][metric][set] holds one value per round.
	values := map[string]map[string]*[2][]float64{}
	failedOps := 0
	incorrect := 0
	for _, w := range selected {
		values[w.name] = map[string]*[2][]float64{}
		for round := 0; round < n; round++ {
			order := [2]int{0, 1}
			if round%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, set := range order {
				cfg := base
				cfg.w = w
				cfg.seed = base.seed + int64(round)
				rep, err := runOnce(&cfg, false, outDir)
				if err != nil {
					return fmt.Errorf("%s round %d set %c: %w", w.name, round, 'A'+set, err)
				}
				fmt.Fprintf(os.Stderr, "%s round %d set %c seed %d: correct=%v\n", w.name, round+1, 'A'+set, cfg.seed, rep.Correct)
				failedOps += rep.Failed
				if !rep.Correct {
					incorrect++
					rep.print(os.Stderr)
				}
				for name, m := range rep.Metrics {
					if values[w.name][name] == nil {
						values[w.name][name] = &[2][]float64{}
					}
					values[w.name][name][set] = append(values[w.name][name][set], m.Value)
				}
			}
		}
	}

	fmt.Printf("# A/A report: %d rounds, seeds %d..%d, measured phase %v\n\n", n, base.seed, base.seed+int64(n)-1, base.phase)
	fmt.Printf("Host: %s\n\n", hostFingerprint(outDir))
	fmt.Printf("Two sets of runs of the same code, alternating. `spread` is the distance between the first and third quartile as a share of the median (Python's `statistics.quantiles(values, n=4)`); `diff` is how much worse set B's median is than set A's, as a share of A's. A row passes when both spreads are within the metric's bound (`setup_s` is exempt from that) and |diff| is under half the bound.\n\n")
	fmt.Printf("Failed operations across all runs: %d. Runs not correct: %d.\n\n", failedOps, incorrect)
	fmt.Printf("| workload | metric | unit | bound | A q1 | A median | A q3 | A spread | B q1 | B median | B q3 | B spread | diff | verdict |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n")
	allPass := incorrect == 0
	for _, w := range selected {
		for _, m := range bf.EndToEnd {
			v := values[w.name][m.Name]
			if v == nil {
				return fmt.Errorf("BENCHMARK.json names %s, which %s did not report", m.Name, w.name)
			}
			a1, a2, a3 := quartiles(v[0])
			b1, b2, b3 := quartiles(v[1])
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			diff := (b2 - a2) / a2
			if m.Better == "higher" {
				diff = -diff
			}
			pass := math.Abs(diff) < m.Bound/2
			if m.Name != "setup_s" {
				pass = pass && spreadA <= m.Bound && spreadB <= m.Bound
			}
			verdict := "pass"
			if !pass {
				verdict, allPass = "FAIL", false
			}
			fmt.Printf("| %s | %s | %s | %.0f%% | %.4g | %.4g | %.4g | %.1f%% | %.4g | %.4g | %.4g | %.1f%% | %+.1f%% | %s |\n",
				w.name, m.Name, m.Unit, m.Bound*100, a1, a2, a3, spreadA*100, b1, b2, b3, spreadB*100, diff*100, verdict)
		}
	}
	if allPass {
		fmt.Printf("\nEvery row passes.\n")
	} else {
		fmt.Printf("\nNot every row passes.\n")
	}
	return nil
}

// hostFingerprint says what the numbers were measured on.
func hostFingerprint(dataDir string) string {
	model := "unknown CPU"
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					model = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	kernel := "unknown kernel"
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = "Linux " + strings.TrimSpace(string(rel))
	}
	fsName := "unknown"
	var st syscall.Statfs_t
	if err := syscall.Statfs(dataDir, &st); err == nil {
		// The magic numbers of statfs(2) for the file systems a data
		// directory is likely to sit on.
		switch uint32(st.Type) {
		case 0xEF53:
			fsName = "ext4"
		case 0x01021994:
			fsName = "tmpfs — WARNING: fsync is free here, write latencies mean nothing"
		case 0x794C7630:
			fsName = "overlayfs"
		case 0x58465342:
			fsName = "xfs"
		case 0x9123683E:
			fsName = "btrfs"
		default:
			fsName = fmt.Sprintf("type %#x", uint32(st.Type))
		}
	}
	return fmt.Sprintf("%d CPUs (%s), %s, %s, data directories on %s", runtime.NumCPU(), model, kernel, runtime.Version(), fsName)
}
