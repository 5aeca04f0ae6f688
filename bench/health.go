package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
)

// health is the subset of the daemon's /healthz text page the
// benchmark reads. Every field is a monotonic counter unless noted, so
// a measured phase is the difference of two scrapes.
type health struct {
	snapshotVersion uint64

	historyRetained  uint64 // gauge
	historyEvictions uint64

	batches, batchOps uint64
	keyedFallbacks    uint64

	walBytes    uint64 // gauge: the live log
	walRecords  uint64
	checkpoints uint64
	fsyncs      uint64

	compiled, fallback uint64

	shed, timedOut                     uint64
	streamed, buffered, truncated, out uint64

	updatePlans, modifyPlans, queryPlans, queryParses cacheCounters

	tableRows map[string]uint64 // gauge
}

type cacheCounters struct{ size, hits, misses, evictions uint64 }

// hitRatio is hits over lookups since the earlier scrape.
func (c cacheCounters) hitRatio(since cacheCounters) float64 {
	hits, misses := c.hits-since.hits, c.misses-since.misses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// parseHealth reads the /healthz page. The page is prose for
// operators, not an API, so every line the benchmark depends on must
// be found and must scan completely: a format change is an error here
// instead of a counter that silently reads zero.
func parseHealth(page string) (*health, error) {
	h := &health{tableRows: map[string]uint64{}}
	var skip uint64
	type lineSpec struct {
		prefix, format string
		dst            []any
		seen           bool
	}
	specs := []*lineSpec{
		{prefix: "snapshot version:", format: "snapshot version: %d", dst: []any{&h.snapshotVersion}},
		{prefix: "write batches:", format: "write batches: %d (%d ops, max batch %d)", dst: []any{&h.batches, &h.batchOps, &skip}},
		{prefix: "shard batches:", format: "shard batches: %d keyed claims, %d whole-table, %d keyed fallbacks", dst: []any{&skip, &skip, &h.keyedFallbacks}},
		{prefix: "wal:", format: "wal: %d bytes, %d records, %d segments", dst: []any{&h.walBytes, &h.walRecords, &skip}},
		{prefix: "checkpoints:", format: "checkpoints: %d (last at version %d)", dst: []any{&h.checkpoints, &skip}},
		{prefix: "fsyncs:", format: "fsyncs: %d", dst: []any{&h.fsyncs}},
		{prefix: "query executions:", format: "query executions: %d compiled, %d fallback", dst: []any{&h.compiled, &h.fallback}},
		{prefix: "endpoint requests:", format: "endpoint requests: %d in flight, %d shed, %d timed out", dst: []any{&skip, &h.shed, &h.timedOut}},
		{prefix: "endpoint responses:", format: "endpoint responses: %d streamed, %d buffered, %d truncated, %d bytes written", dst: []any{&h.streamed, &h.buffered, &h.truncated, &h.out}},
	}
	caches := map[string]*cacheCounters{
		"update plans": &h.updatePlans, "modify plans": &h.modifyPlans,
		"query plans": &h.queryPlans, "query parses": &h.queryParses,
	}
	cachesSeen := 0
	historySeen := false
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "history:") {
			// "history: seq S, R/D snapshots retained[ (versions a..b)], E evicted"
			var seq, depth uint64
			if _, err := fmt.Sscanf(line, "history: seq %d, %d/%d snapshots retained", &seq, &h.historyRetained, &depth); err != nil {
				return nil, fmt.Errorf("healthz line %q: %w", line, err)
			}
			i := strings.LastIndex(line, ", ")
			if i < 0 {
				return nil, fmt.Errorf("healthz line %q: no eviction count", line)
			}
			if _, err := fmt.Sscanf(line[i:], ", %d evicted", &h.historyEvictions); err != nil {
				return nil, fmt.Errorf("healthz line %q: %w", line, err)
			}
			historySeen = true
			continue
		}
		if strings.HasPrefix(line, "table ") {
			var name string
			var rows uint64
			if _, err := fmt.Sscanf(line, "table %s %d rows", &name, &rows); err != nil {
				return nil, fmt.Errorf("healthz line %q: %w", line, err)
			}
			h.tableRows[strings.TrimSuffix(name, ":")] = rows
			continue
		}
		if i := strings.Index(line, ": "); i > 0 {
			if c, ok := caches[line[:i]]; ok {
				if _, err := fmt.Sscanf(line[i:], ": %d cached, %d hits, %d misses, %d evictions", &c.size, &c.hits, &c.misses, &c.evictions); err != nil {
					return nil, fmt.Errorf("healthz line %q: %w", line, err)
				}
				cachesSeen++
				continue
			}
		}
		for _, s := range specs {
			if strings.HasPrefix(line, s.prefix) {
				if _, err := fmt.Sscanf(line, s.format, s.dst...); err != nil {
					return nil, fmt.Errorf("healthz line %q: %w", line, err)
				}
				s.seen = true
				break
			}
		}
	}
	for _, s := range specs {
		if !s.seen {
			return nil, fmt.Errorf("healthz page has no %q line (format changed, or the store is memory-only)", s.prefix)
		}
	}
	if !historySeen || cachesSeen != len(caches) || len(h.tableRows) == 0 {
		return nil, fmt.Errorf("healthz page is missing history, cache or table lines")
	}
	return h, nil
}

// scrapeHealth fetches and parses base's /healthz.
func scrapeHealth(client *http.Client, base string) (*health, error) {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading /healthz: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/healthz status %d", resp.StatusCode)
	}
	return parseHealth(string(body))
}
