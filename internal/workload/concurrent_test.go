package workload

import (
	"sync"
	"testing"

	"ontoaccess/internal/core"
)

// TestConcurrentStreamMixed drives the mixed write stream plus
// interleaved queries through one mediator from several goroutines —
// the -race gate for the plan pipeline's locking.
func TestConcurrentStreamMixed(t *testing.T) {
	m, err := NewMediator(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs := NewConcurrentStream(11, 8, 30)
	cs.QueryEvery = 5
	if err := cs.Setup(m); err != nil {
		t.Fatal(err)
	}
	ops, err := cs.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if ops != 8*30 {
		t.Errorf("ops = %d, want %d", ops, 8*30)
	}
	if m.DB().TotalRows() == 0 {
		t.Error("stream inserted nothing")
	}
	if s := m.PlanCacheStats(); s.Hits == 0 {
		t.Errorf("plan cache never hit under concurrency: %+v", s)
	}
}

// TestConcurrentStreamWithReaders drives the MODIFY-heavy write mix
// while dedicated reader goroutines query continuously — the -race
// gate for snapshot reads under the group-commit scheduler. Readers
// never block, so they must complete a healthy number of queries even
// while every writer is streaming.
func TestConcurrentStreamWithReaders(t *testing.T) {
	m, err := NewMediator(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs := NewConcurrentModifyStream(31, 4, 40)
	if err := cs.Setup(m); err != nil {
		t.Fatal(err)
	}
	ops, reads, err := cs.RunWithReaders(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ops != 4*40 {
		t.Errorf("ops = %d, want %d", ops, 4*40)
	}
	if reads == 0 {
		t.Error("readers completed no queries while writers streamed")
	}
	if s := m.SchedulerStats(); s.Ops == 0 {
		t.Errorf("write scheduler saw no compiled operations: %+v", s)
	}
}

// TestConcurrentStreamDeterministicCounts verifies every worker's
// accepted updates land exactly once: the same streams executed
// serially and concurrently produce identical row counts.
func TestConcurrentStreamDeterministicCounts(t *testing.T) {
	serial, err := NewMediator(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	concurrent, err := NewMediator(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs := NewConcurrentStream(23, 4, 40)
	for _, m := range []*core.Mediator{serial, concurrent} {
		if err := cs.Setup(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, stream := range cs.Streams {
		for _, req := range stream {
			if _, err := serial.ExecuteString(req); err != nil {
				t.Fatalf("serial: %v", err)
			}
		}
	}
	if _, err := cs.Run(concurrent); err != nil {
		t.Fatal(err)
	}
	for _, table := range serial.DB().TableNames() {
		sn, _ := serial.DB().RowCount(table)
		cn, _ := concurrent.DB().RowCount(table)
		if sn != cn {
			t.Errorf("table %s: serial %d rows vs concurrent %d", table, sn, cn)
		}
	}
}

// TestConcurrentModifyStream drives the MODIFY-heavy mix from several
// goroutines — the -race gate for the compiled-MODIFY per-table
// locking — and proves the compiled MODIFY path is hot under
// concurrency.
func TestConcurrentModifyStream(t *testing.T) {
	m, err := NewMediator(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs := NewConcurrentModifyStream(19, 8, 25)
	cs.QueryEvery = 6
	if err := cs.Setup(m); err != nil {
		t.Fatal(err)
	}
	ops, err := cs.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if ops != 8*25 {
		t.Errorf("ops = %d, want %d", ops, 8*25)
	}
	if s := m.ModifyPlanCacheStats(); s.Hits == 0 {
		t.Errorf("modify plan cache never hit under concurrency: %+v", s)
	}
	// Serial re-execution of the same streams yields identical counts.
	serial, err := NewMediator(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Setup(serial); err != nil {
		t.Fatal(err)
	}
	for _, stream := range cs.Streams {
		for _, req := range stream {
			if _, err := serial.ExecuteString(req); err != nil {
				t.Fatalf("serial: %v", err)
			}
		}
	}
	for _, table := range serial.DB().TableNames() {
		sn, _ := serial.DB().RowCount(table)
		cn, _ := m.DB().RowCount(table)
		if sn != cn {
			t.Errorf("table %s: serial %d rows vs concurrent %d", table, sn, cn)
		}
	}
}

// TestConcurrentStreamWithCacheOff is the same workload under the
// whole-database lock (the paper's single-connection model).
func TestConcurrentStreamWithCacheOff(t *testing.T) {
	m, err := NewMediator(core.Options{DisablePlanCache: true})
	if err != nil {
		t.Fatal(err)
	}
	cs := NewConcurrentStream(11, 4, 20)
	cs.QueryEvery = 7
	if err := cs.Setup(m); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Run(m); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSameShapeWriters hammers one plan from many
// goroutines writing disjoint rows of the same table, plus parallel
// readers — the worst case for the plan cache's internal locking.
func TestConcurrentSameShapeWriters(t *testing.T) {
	m, err := NewMediator(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(1)
	for _, req := range g.SetupRequests() {
		if _, err := m.ExecuteString(req); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := NewGenerator(int64(100 + w))
			for i := 0; i < perWorker; i++ {
				id := w*perWorker + i + 1
				if _, err := m.ExecuteString(gen.AuthorInsert(id)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 40; i++ {
			if _, err := m.Query(Prologue + `SELECT ?n WHERE { ex:team1 foaf:name ?n . }`); err != nil {
				errs <- err
				return
			}
		}
		close(done)
	}()
	wg.Wait()
	<-done
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n, _ := m.DB().RowCount("author"); n != workers*perWorker {
		t.Errorf("author rows = %d, want %d", n, workers*perWorker)
	}
}

// TestConcurrentQueryStream drives the query-heavy mix: every worker
// interleaves each update with a pooled query, so compiled query plans
// are compiled once and then served concurrently from many goroutines
// against moving snapshots (the -race CI run guards the plan and parse
// caches on the read path).
func TestConcurrentQueryStream(t *testing.T) {
	m, err := NewMediator(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs := NewConcurrentQueryStream(11, 4, 25)
	if len(cs.Queries) == 0 || cs.QueryEvery != 1 {
		t.Fatalf("query-heavy mix misconfigured: %+v", cs)
	}
	if err := cs.Setup(m); err != nil {
		t.Fatal(err)
	}
	ops, err := cs.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if ops != 4*25 {
		t.Errorf("ops = %d, want 100", ops)
	}
	// Every pooled shape compiles once; repeated strings are then
	// served by the parse memo's bound plans.
	if s := m.QueryPlanCacheStats(); s.Size == 0 {
		t.Errorf("query plan cache never compiled the mix: %+v", s)
	}
	if s := m.QueryParseCacheStats(); s.Hits == 0 {
		t.Errorf("query parse memo never hit: %+v", s)
	}
}
