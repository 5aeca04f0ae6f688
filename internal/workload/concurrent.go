package workload

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ontoaccess/internal/core"
)

// ConcurrentStream drives the mixed write stream through one mediator
// from several goroutines. Each worker owns a disjoint id space
// (authors, publications), so its requests write disjoint rows; the
// shared pools (teams, publishers, pubtypes) are created once up front
// and only read afterwards, through foreign keys. With the
// compiled-plan pipeline the mediator executes disjoint-table writers
// in parallel and serializes same-table writers on that table's lock.
type ConcurrentStream struct {
	// Workers is the number of goroutines Run starts.
	Workers int
	// Streams holds each worker's request slice.
	Streams [][]string
	// QueryEvery issues Query after every n-th update per worker
	// (0 disables), exercising the shared-lock read path during
	// writes.
	QueryEvery int
	// Query is the SPARQL query used by QueryEvery; a team lookup by
	// default.
	Query string
	// Queries, when non-empty, replaces Query with a pool the workers
	// cycle through — the query-heavy mix uses several shapes so the
	// plan cache serves SELECT, join and ASK plans concurrently.
	Queries []string

	setup []string
}

// workerIDSpace separates the workers' entity ids; streams shorter
// than this cannot collide across workers.
const workerIDSpace = 1_000_000

// NewConcurrentStream builds a driver with `workers` goroutines, each
// executing perWorker requests of the standard mix (Stream) over its
// own id space. The same seed yields the same workload.
func NewConcurrentStream(seed int64, workers, perWorker int) *ConcurrentStream {
	if workers < 1 {
		workers = 1
	}
	cs := &ConcurrentStream{
		Workers: workers,
		Query: Prologue + `
SELECT ?name WHERE { ex:team1 foaf:name ?name . }`,
	}
	for w := 0; w < workers; w++ {
		g := NewGenerator(seed + int64(w))
		if w == 0 {
			cs.setup = g.SetupRequests()
		}
		cs.Streams = append(cs.Streams, g.Stream(perWorker, w*workerIDSpace+1))
	}
	return cs
}

// NewConcurrentModifyStream builds a driver whose workers execute the
// MODIFY-heavy mix (ModifyHeavyStream) over disjoint id spaces.
// Compiled MODIFYs on each worker's own author rows run under
// per-table locks.
func NewConcurrentModifyStream(seed int64, workers, perWorker int) *ConcurrentStream {
	if workers < 1 {
		workers = 1
	}
	cs := &ConcurrentStream{
		Workers: workers,
		Query: Prologue + `
SELECT ?name WHERE { ex:team1 foaf:name ?name . }`,
	}
	for w := 0; w < workers; w++ {
		g := NewGenerator(seed + int64(w))
		if w == 0 {
			cs.setup = g.SetupRequests()
		}
		cs.Streams = append(cs.Streams, g.ModifyHeavyStream(perWorker, w*workerIDSpace+1))
	}
	return cs
}

// NewConcurrentQueryStream builds the query-heavy driver: each worker
// interleaves every update of the standard mix with a query from a
// pool of compiled shapes (point SELECT, multi-table join, ASK, and
// the FILTER / ORDER BY / LIMIT shapes the pipeline compiles since
// PR 5), so the read path dominates the request stream — the serving
// profile of a read-mostly endpoint. Queries run against
// lock-free snapshots and compiled query plans; the same seed yields
// the same workload.
func NewConcurrentQueryStream(seed int64, workers, perWorker int) *ConcurrentStream {
	cs := NewConcurrentStream(seed, workers, perWorker)
	cs.QueryEvery = 1
	cs.Queries = []string{
		Prologue + `
SELECT ?name WHERE { ex:team1 foaf:name ?name . }`,
		Prologue + `
SELECT ?a ?mbox WHERE { ?a foaf:mbox ?mbox ; ont:team ex:team1 . }`,
		Prologue + `
SELECT ?last ?team WHERE { ?a foaf:family_name ?last ; ont:team ?t . ?t foaf:name ?team . }`,
		Prologue + `
ASK { ex:team1 ont:teamCode "T1" . }`,
		Prologue + `
SELECT ?last WHERE { ?a foaf:family_name ?last . FILTER (?last >= "A" && ?last < "M") } ORDER BY ?last LIMIT 5`,
		Prologue + `
SELECT DISTINCT ?name WHERE { ?a ont:team ?t . ?t foaf:name ?name . }`,
		// Rich structural shapes compiled since PR 7: OPTIONAL, UNION,
		// FILTER disjunction, streaming aggregation.
		Prologue + `
SELECT ?a ?mbox WHERE { ?a foaf:family_name ?last . OPTIONAL { ?a foaf:mbox ?mbox . } }`,
		Prologue + `
SELECT ?n WHERE { { ?t rdf:type foaf:Group ; foaf:name ?n . } UNION { ?a foaf:family_name ?n . } } ORDER BY ?n LIMIT 8`,
		Prologue + `
SELECT ?last WHERE { ?a foaf:family_name ?last . FILTER (?last < "C" || ?last >= "R") }`,
		Prologue + `
SELECT ?t (COUNT(?a) AS ?n) WHERE { ?a ont:team ?t . } GROUP BY ?t`,
	}
	return cs
}

// Setup creates the shared pools; run it once before Run.
func (cs *ConcurrentStream) Setup(m *core.Mediator) error {
	for _, req := range cs.setup {
		if _, err := m.ExecuteString(req); err != nil {
			return fmt.Errorf("workload: setup: %w", err)
		}
	}
	return nil
}

// Run executes every worker's stream concurrently and returns the
// number of update requests executed. The first error stops nothing
// — workers run their streams to completion so the count stays
// deterministic — but it is returned.
func (cs *ConcurrentStream) Run(m *core.Mediator) (int, error) {
	var wg sync.WaitGroup
	errs := make(chan error, cs.Workers)
	ops := 0
	for _, s := range cs.Streams {
		ops += len(s)
	}
	for w := 0; w < cs.Workers; w++ {
		wg.Add(1)
		go func(w int, stream []string) {
			defer wg.Done()
			var firstErr error
			for i, req := range stream {
				if _, err := m.ExecuteString(req); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("workload: concurrent request %d: %w", i, err)
				}
				if cs.QueryEvery > 0 && (i+1)%cs.QueryEvery == 0 {
					q := cs.Query
					if len(cs.Queries) > 0 {
						q = cs.Queries[(w+i)%len(cs.Queries)]
					}
					if _, err := m.Query(q); err != nil && firstErr == nil {
						firstErr = fmt.Errorf("workload: concurrent query: %w", err)
					}
				}
			}
			if firstErr != nil {
				errs <- firstErr
			}
		}(w, cs.Streams[w])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return ops, err
	}
	return ops, nil
}

// RunWithReaders executes the write streams like Run while `readers`
// goroutines continuously evaluate cs.Query until the writers finish.
// Queries run against lock-free database snapshots, so readers never
// wait on the write stream. It returns the number of update requests
// and of completed queries.
func (cs *ConcurrentStream) RunWithReaders(m *core.Mediator, readers int) (int, int, error) {
	stop := make(chan struct{})
	var reads atomic.Int64
	var rwg sync.WaitGroup
	rerrs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := m.Query(cs.Query); err != nil {
					rerrs <- fmt.Errorf("workload: reader query: %w", err)
					return
				}
				reads.Add(1)
			}
		}()
	}
	ops, err := cs.Run(m)
	close(stop)
	rwg.Wait()
	close(rerrs)
	if err == nil {
		for rerr := range rerrs {
			err = rerr
			break
		}
	}
	return ops, int(reads.Load()), err
}
