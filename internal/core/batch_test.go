package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ontoaccess/internal/rdb"
)

// TestGroupCommitSameTableWriters drives concurrent same-table
// compiled inserts through the scheduler: every accepted request
// lands exactly once, the scheduler accounts for each operation, and
// the final state matches an unbatched mediator run of the same
// stream.
func TestGroupCommitSameTableWriters(t *testing.T) {
	batched := paperMediator(t, Options{})
	unbatched := paperMediator(t, Options{DisableWriteBatching: true})
	for _, m := range []*Mediator{batched, unbatched} {
		mustExec(t, m, seedTeam5)
	}
	const workers = 8
	const perWorker = 30
	req := func(id int) string {
		return fmt.Sprintf(`%s
INSERT DATA {
  ex:author%d foaf:family_name "L%d" ;
      foaf:mbox <mailto:a%d@example.org> ;
      ont:team ex:team5 .
}`, paperPrologue, id, id, id)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := batched.ExecuteString(req(w*perWorker + i + 1)); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("batched request failed: %v", err)
	}
	for i := 1; i <= workers*perWorker; i++ {
		mustExec(t, unbatched, req(i))
	}
	if n, _ := batched.DB().RowCount("author"); n != workers*perWorker {
		t.Errorf("author rows = %d, want %d", n, workers*perWorker)
	}
	s := batched.SchedulerStats()
	if s.Ops != uint64(1+workers*perWorker) { // +1: the seed request
		t.Errorf("scheduler ops = %d, want %d", s.Ops, 1+workers*perWorker)
	}
	if s.Batches == 0 || s.Batches > s.Ops {
		t.Errorf("implausible batch count %d for %d ops", s.Batches, s.Ops)
	}
	if us := unbatched.SchedulerStats(); us.Batches != 0 || us.Ops != 0 || us.KeyedFallbacks != 0 {
		t.Errorf("unbatched mediator reports scheduler stats %+v", us)
	}
	gb, err := batched.Export()
	if err != nil {
		t.Fatal(err)
	}
	gu, err := unbatched.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !gb.Equal(gu) {
		t.Errorf("batched and unbatched runs diverge.\nonly batched:\n%v\nonly unbatched:\n%v",
			gb.Diff(gu), gu.Diff(gb))
	}
}

// TestGroupCommitCoalesces forces one batch with several operations:
// the leader's operation blocks mid-execution while followers enqueue
// behind it, so the hand-off batch must carry them together.
func TestGroupCommitCoalesces(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, seedTeam5)
	// Warm the plan so every request below takes the scheduler path.
	mustExec(t, m, fmt.Sprintf(`%s
INSERT DATA { ex:author1000 foaf:family_name "Warm" ; ont:team ex:team5 . }`, paperPrologue))

	var wg sync.WaitGroup
	slow := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(slow)
		// The leader executes this request; while its batch runs, the
		// followers below enqueue.
		m.ExecuteString(fmt.Sprintf(`%s
INSERT DATA { ex:author1001 foaf:family_name "Leader" ; ont:team ex:team5 . }`, paperPrologue))
	}()
	<-slow
	const followers = 6
	for w := 0; w < followers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m.ExecuteString(fmt.Sprintf(`%s
INSERT DATA { ex:author%d foaf:family_name "F%d" ; ont:team ex:team5 . }`, paperPrologue, 1002+w, w))
		}(w)
	}
	wg.Wait()
	if n, _ := m.DB().RowCount("author"); n != 2+followers {
		t.Fatalf("author rows = %d, want %d", n, 2+followers)
	}
	// Concurrency makes the exact batch shapes nondeterministic, but
	// with 7 concurrent submitters of one signature at least one batch
	// almost always coalesces; tolerate the unlucky fully serial run
	// but verify the accounting invariants always.
	s := m.SchedulerStats()
	if s.Ops != uint64(3+followers) { // seed + warm + leader + followers
		t.Fatalf("scheduler ops = %d, want %d", s.Ops, 3+followers)
	}
	if s.MaxBatch < 1 || s.MaxBatch > uint64(1+followers) {
		t.Fatalf("max batch = %d out of range", s.MaxBatch)
	}
}

// TestGroupCommitErrorIsolation batches valid and constraint-violating
// operations concurrently: the violations must fail with their own
// feedback while every valid batch mate commits untouched.
func TestGroupCommitErrorIsolation(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, seedTeam5)
	const n = 40
	var wg sync.WaitGroup
	var okCount, errCount int
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var req string
			if i%4 == 0 {
				// Invalid: references a team that does not exist.
				req = fmt.Sprintf(`%s
INSERT DATA { ex:author%d foaf:family_name "X%d" ; ont:team ex:team99 . }`, paperPrologue, i+1, i)
			} else {
				req = fmt.Sprintf(`%s
INSERT DATA { ex:author%d foaf:family_name "V%d" ; ont:team ex:team5 . }`, paperPrologue, i+1, i)
			}
			_, err := m.ExecuteString(req)
			mu.Lock()
			if err != nil {
				errCount++
			} else {
				okCount++
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	wantErr := n / 4
	if errCount != wantErr || okCount != n-wantErr {
		t.Fatalf("ok=%d err=%d, want ok=%d err=%d", okCount, errCount, n-wantErr, wantErr)
	}
	if rows, _ := m.DB().RowCount("author"); rows != n-wantErr {
		t.Fatalf("author rows = %d, want %d", rows, n-wantErr)
	}
}

// TestGroupCommitVisibility: a caller resumed by the scheduler must
// immediately see its own write in a fresh snapshot (results are
// delivered post-commit).
func TestGroupCommitVisibility(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, seedTeam5)
	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*20)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := w*100 + i + 1
				if _, err := m.ExecuteString(fmt.Sprintf(`%s
INSERT DATA { ex:author%d foaf:family_name "R%d" ; ont:team ex:team5 . }`, paperPrologue, id, id)); err != nil {
					errs <- err
					return
				}
				res, err := m.Query(fmt.Sprintf(`%s
SELECT ?n WHERE { ex:author%d foaf:family_name ?n . }`, paperPrologue, id))
				if err != nil {
					errs <- err
					return
				}
				if len(res.Solutions) != 1 {
					errs <- fmt.Errorf("own write of author%d invisible after commit: %d solutions", id, len(res.Solutions))
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("group-commit visibility test timed out (lost wakeup in the scheduler?)")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSchedulerStaleFallback: a compiled shape whose re-binding
// breaks a shape assumption (two distinct subject slots binding to
// the same URI) must abandon the batched/compiled path and fall back
// to the uncompiled whole-database path, which merges the groups.
func TestSchedulerStaleFallback(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, seedTeam5)
	// Compile the two-subject shape.
	mustExec(t, m, fmt.Sprintf(`%s
INSERT DATA {
  ex:author1 foaf:family_name "A" ; ont:team ex:team5 .
  ex:author2 foaf:family_name "B" ; ont:team ex:team5 .
}`, paperPrologue))
	// Re-bind with both subject slots naming the same entity: the bound
	// plan goes stale (distinct groups must stay distinct) and the
	// uncompiled path merges the triples into one entity.
	mustExec(t, m, fmt.Sprintf(`%s
INSERT DATA {
  ex:author7 foaf:family_name "C" ; ont:team ex:team5 .
  ex:author7 foaf:family_name "C" ; ont:team ex:team5 .
}`, paperPrologue))
	q, err := m.Query(paperPrologue + `SELECT ?n WHERE { ex:author7 foaf:family_name ?n . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Solutions) != 1 || q.Solutions[0]["n"].Value != "C" {
		t.Fatalf("merged entity wrong: %+v", q.Solutions)
	}
	if n, _ := m.DB().RowCount("author"); n != 3 {
		t.Fatalf("author rows = %d, want 3", n)
	}
}

// TestUnbatchedOptionBypassesScheduler pins the contract the
// unbatched reference path relies on: it never enters the scheduler.
func TestUnbatchedOptionBypassesScheduler(t *testing.T) {
	m := paperMediator(t, Options{DisableWriteBatching: true})
	mustExec(t, m, seedTeam5)
	mustExec(t, m, fmt.Sprintf(`%s
INSERT DATA { ex:author1 foaf:family_name "A" ; ont:team ex:team5 . }`, paperPrologue))
	if s := m.SchedulerStats(); s.Batches != 0 || s.Ops != 0 || s.KeyedFallbacks != 0 {
		t.Fatalf("scheduler ran despite DisableWriteBatching: %+v", s)
	}
}

// TestSchedulerContainsPanics: a panicking batched operation must
// surface as an error to its own caller, roll back to its savepoint,
// and leave the queue healthy — not wedge every later writer of the
// same signature behind a vanished leader.
func TestSchedulerContainsPanics(t *testing.T) {
	m := paperMediator(t, Options{})
	s := m.sched
	sig := lockSignature([]string{"team"}, nil)
	_, err := s.run(sig, wholeShards([]string{"team"}), nil, func(tx *rdb.Tx) (*OpResult, error) {
		tx.Insert("team", map[string]rdb.Value{
			"id": rdb.Int(1), "name": rdb.String_("doomed"), "code": rdb.String_("d")})
		panic("boom")
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking job returned err = %v, want panic-derived error", err)
	}
	// The queue must still accept and commit work.
	_, err = s.run(sig, wholeShards([]string{"team"}), nil, func(tx *rdb.Tx) (*OpResult, error) {
		return &OpResult{}, tx.Insert("team", map[string]rdb.Value{
			"id": rdb.Int(2), "name": rdb.String_("B"), "code": rdb.String_("b")})
	})
	if err != nil {
		t.Fatalf("queue wedged after panic: %v", err)
	}
	// The panicked op's partial work was rolled back; the later op
	// committed.
	m.DB().View(func(tx *rdb.Tx) error {
		if _, _, found, _ := tx.LookupPK("team", []rdb.Value{rdb.Int(1)}); found {
			t.Error("panicked operation's insert survived")
		}
		if _, _, found, _ := tx.LookupPK("team", []rdb.Value{rdb.Int(2)}); !found {
			t.Error("post-panic operation did not commit")
		}
		return nil
	})
}

// TestSavepointedExecKeepsBatchMates drives the scheduler directly:
// one failing job between two succeeding ones, all in one queue.
func TestSavepointedExecKeepsBatchMates(t *testing.T) {
	m := paperMediator(t, Options{})
	s := m.sched
	ok1, err1 := s.run(lockSignature([]string{"team"}, nil), wholeShards([]string{"team"}), nil, func(tx *rdb.Tx) (*OpResult, error) {
		return &OpResult{}, tx.Insert("team", map[string]rdb.Value{
			"id": rdb.Int(1), "name": rdb.String_("A"), "code": rdb.String_("a")})
	})
	_, errBad := s.run(lockSignature([]string{"team"}, nil), wholeShards([]string{"team"}), nil, func(tx *rdb.Tx) (*OpResult, error) {
		return &OpResult{}, tx.Insert("team", map[string]rdb.Value{
			"id": rdb.Int(1), "name": rdb.String_("dup"), "code": rdb.String_("x")})
	})
	ok2, err2 := s.run(lockSignature([]string{"team"}, nil), wholeShards([]string{"team"}), nil, func(tx *rdb.Tx) (*OpResult, error) {
		return &OpResult{}, tx.Insert("team", map[string]rdb.Value{
			"id": rdb.Int(2), "name": rdb.String_("B"), "code": rdb.String_("b")})
	})
	if err1 != nil || err2 != nil || ok1 == nil || ok2 == nil {
		t.Fatalf("valid jobs failed: %v %v", err1, err2)
	}
	if errBad == nil {
		t.Fatal("duplicate-key job must fail")
	}
	if n, _ := m.DB().RowCount("team"); n != 2 {
		t.Fatalf("team rows = %d, want 2", n)
	}
}
