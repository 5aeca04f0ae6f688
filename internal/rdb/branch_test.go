package rdb

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// kvPut commits one upsert of (id, val) on the main branch.
func kvPut(t *testing.T, db *Database, id int64, val string) uint64 {
	t.Helper()
	if err := db.Update(func(tx *Tx) error {
		rid, _, found, err := tx.LookupPK("kv", []Value{Int(id)})
		if err != nil {
			return err
		}
		if found {
			return tx.UpdateByID("kv", rid, map[string]Value{"val": String_(val)})
		}
		return tx.Insert("kv", map[string]Value{"id": Int(id), "val": String_(val)})
	}, "kv"); err != nil {
		t.Fatal(err)
	}
	return db.SnapshotVersion()
}

// kvGet reads kv[id] through a pinned snapshot ("" = missing).
func kvGet(t *testing.T, s *Snapshot, id int64) string {
	t.Helper()
	var out string
	if err := s.View(func(tx *Tx) error {
		_, row, found, err := tx.LookupPK("kv", []Value{Int(id)})
		if err != nil {
			return err
		}
		if found {
			out = row[1].S
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func resolve(t *testing.T, db *Database, target ReadTarget) *Snapshot {
	t.Helper()
	s, err := db.Resolve(target)
	if err != nil {
		t.Fatalf("resolve %s: %v", target, err)
	}
	return s
}

// dumpTarget is dump() against a resolved read target.
func dumpTarget(t *testing.T, db *Database, target ReadTarget) map[string][][]Value {
	t.Helper()
	s := resolve(t, db, target)
	out := make(map[string][][]Value)
	for _, key := range s.s.order {
		v := s.s.tables[key]
		rows := [][]Value{{Int(v.nextID), Int(v.nextAuto)}}
		v.scan(func(id int64, row []Value) bool {
			rows = append(rows, append([]Value{Int(id)}, row...))
			return true
		})
		out[key] = rows
	}
	return out
}

func branchPut(t *testing.T, db *Database, name string, id int64, val string) {
	t.Helper()
	tx, err := db.BeginBranch(name)
	if err != nil {
		t.Fatal(err)
	}
	rid, _, found, err := tx.LookupPK("kv", []Value{Int(id)})
	if err == nil {
		if found {
			err = tx.UpdateByID("kv", rid, map[string]Value{"val": String_(val)})
		} else {
			err = tx.Insert("kv", map[string]Value{"id": Int(id), "val": String_(val)})
		}
	}
	if err == nil {
		err = tx.Commit()
	} else {
		tx.Rollback()
	}
	if err != nil {
		t.Fatalf("branch %s put %d: %v", name, id, err)
	}
}

// TestAsOfReadsAndRetentionBound: every publish is retained up to
// HistoryDepth; AS OF pins the exact historical bytes; reads beyond the
// ring fail with a VersionError that distinguishes evicted from
// never-published.
func TestAsOfReadsAndRetentionBound(t *testing.T) {
	db, err := newDatabaseWith("hist", Options{HistoryDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	versions := make(map[uint64]string)
	for i := 0; i < 10; i++ {
		val := fmt.Sprintf("v%d", i)
		versions[kvPut(t, db, 1, val)] = val
	}
	st := db.HistoryStats()
	if st.Depth != 4 || st.Retained != 4 {
		t.Fatalf("history stats = %+v, want depth 4 fully retained", st)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions despite exceeding the retention bound")
	}
	if st.Newest != db.SnapshotVersion() || st.Oldest != st.Newest-3 {
		t.Fatalf("retained window [%d,%d], head %d", st.Oldest, st.Newest, db.SnapshotVersion())
	}
	for v, want := range versions {
		s, err := db.Resolve(ReadTarget{AsOf: v})
		if v < st.Oldest {
			var ve *VersionError
			if !errors.As(err, &ve) || !ve.Evicted {
				t.Fatalf("AS OF %d (evicted) = %v, want evicted VersionError", v, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("AS OF %d: %v", v, err)
		}
		if got := kvGet(t, s, 1); got != want {
			t.Fatalf("AS OF %d reads %q, want %q", v, got, want)
		}
	}
	var ve *VersionError
	if _, err := db.Resolve(ReadTarget{AsOf: db.seq.Load() + 10}); !errors.As(err, &ve) || ve.Evicted {
		t.Fatalf("future AS OF = %v, want never-published VersionError", err)
	}
	// A pinned snapshot stays byte-stable even after its version is
	// evicted from the ring by later commits.
	pinned := resolve(t, db, ReadTarget{AsOf: st.Newest})
	wantVal := versions[st.Newest]
	for i := 0; i < 10; i++ {
		kvPut(t, db, 1, fmt.Sprintf("later%d", i))
	}
	if got := kvGet(t, pinned, 1); got != wantVal {
		t.Fatalf("pinned snapshot drifted to %q, want %q", got, wantVal)
	}
}

// TestHistoryDisabled: negative HistoryDepth turns retention off; only
// the live head resolves.
func TestHistoryDisabled(t *testing.T) {
	db, err := newDatabaseWith("nohist", Options{HistoryDepth: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	old := kvPut(t, db, 1, "a")
	head := kvPut(t, db, 1, "b")
	if s := resolve(t, db, ReadTarget{AsOf: head}); kvGet(t, s, 1) != "b" {
		t.Fatal("AS OF the live head must always resolve")
	}
	var ve *VersionError
	if _, err := db.Resolve(ReadTarget{AsOf: old}); !errors.As(err, &ve) {
		t.Fatalf("AS OF with retention disabled = %v, want VersionError", err)
	}
}

func TestShardCountValidation(t *testing.T) {
	for _, bad := range []int{3, -1, 128, 63} {
		if _, err := newDatabaseWith("x", Options{ShardCount: bad}); err == nil {
			t.Errorf("ShardCount %d accepted", bad)
		}
	}
	for _, good := range []int{1, 2, 16, 64} {
		db, err := newDatabaseWith("x", Options{ShardCount: good})
		if err != nil {
			t.Fatalf("ShardCount %d rejected: %v", good, err)
		}
		if db.NumShards() != good {
			t.Fatalf("NumShards = %d, want %d", db.NumShards(), good)
		}
		if err := db.CreateTable(kvSchema()); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 100; i++ {
			if s, ok := db.ShardOfPK("kv", Int(i)); !ok || s < 0 || s >= good {
				t.Fatalf("shard %d out of range [0,%d)", s, good)
			}
		}
	}
	if db := NewDatabase("x"); db.NumShards() != DefaultShardCount {
		t.Fatalf("default NumShards = %d, want %d", db.NumShards(), DefaultShardCount)
	}
}

// TestBranchLifecycleAndIsolation: forked branches see the fork state,
// branch commits stay invisible to main (and vice versa), and drops
// fail in-flight branch transactions instead of resurrecting the ref.
func TestBranchLifecycleAndIsolation(t *testing.T) {
	db := NewDatabase("br")
	if err := db.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	kvPut(t, db, 1, "base")
	forkVersion := db.SnapshotVersion()

	for _, bad := range []string{"", "main", "sp ace", "über", "x/y", string(make([]byte, 65))} {
		if err := db.CreateBranch(bad); err == nil {
			t.Errorf("branch name %q accepted", bad)
		}
	}
	if err := db.CreateBranch("feature"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateBranch("feature"); err == nil {
		t.Fatal("duplicate branch accepted")
	}
	bs := db.ListBranches()
	if len(bs) != 1 || bs[0].Name != "feature" || bs[0].Head != forkVersion || bs[0].Base != forkVersion {
		t.Fatalf("ListBranches = %+v, want feature at fork version %d", bs, forkVersion)
	}

	branchPut(t, db, "feature", 2, "feat")
	kvPut(t, db, 3, "trunk")

	mainS := resolve(t, db, ReadTarget{})
	featS := resolve(t, db, ReadTarget{Branch: "feature"})
	if kvGet(t, mainS, 2) != "" || kvGet(t, mainS, 3) != "trunk" {
		t.Fatal("main sees branch writes (or lost its own)")
	}
	if kvGet(t, featS, 2) != "feat" || kvGet(t, featS, 3) != "" {
		t.Fatal("branch sees main writes (or lost its own)")
	}
	if featS.Branch() != "feature" || featS.Parent() != forkVersion {
		t.Fatalf("branch head {branch %q parent %d}, want {feature %d}",
			featS.Branch(), featS.Parent(), forkVersion)
	}

	// Drop while a branch transaction is open: the commit must fail.
	tx, err := db.BeginBranch("feature")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("kv", map[string]Value{"id": Int(9), "val": String_("zombie")}); err != nil {
		tx.Rollback()
		t.Fatal(err)
	}
	if err := db.DropBranch("feature"); err != nil {
		tx.Rollback()
		t.Fatal(err)
	}
	err = tx.Commit()
	var be *BranchError
	if !errors.As(err, &be) {
		t.Fatalf("commit on dropped branch = %v, want BranchError", err)
	}
	if len(db.ListBranches()) != 0 {
		t.Fatal("dropped branch still listed")
	}
	if _, err := db.BeginBranch("feature"); !errors.As(err, &be) {
		t.Fatalf("BeginBranch on dropped ref = %v, want BranchError", err)
	}
	if err := db.DropBranch("feature"); !errors.As(err, &be) {
		t.Fatalf("double drop = %v, want BranchError", err)
	}
}

// TestDiffStructural: Diff prunes shared state, reports per-class row
// counts, classifies DDL, and Diff(v, v) is empty.
func TestDiffStructural(t *testing.T) {
	db := NewDatabase("diff")
	if err := db.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		kvPut(t, db, i, fmt.Sprintf("v%d", i))
	}
	from := db.SnapshotVersion()
	kvPut(t, db, 5, "changed")               // update
	kvPut(t, db, 200, "new")                 // insert
	if err := db.Update(func(tx *Tx) error { // delete
		id, _, _, err := tx.LookupPK("kv", []Value{Int(7)})
		if err != nil {
			return err
		}
		return tx.DeleteByID("kv", id)
	}, "kv"); err != nil {
		t.Fatal(err)
	}
	to := db.SnapshotVersion()

	d, err := db.Diff(ReadTarget{AsOf: from}, ReadTarget{AsOf: to})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Tables) != 1 || d.Tables[0].Added != 1 || d.Tables[0].Removed != 1 || d.Tables[0].Updated != 1 {
		t.Fatalf("diff = %+v, want kv +1 -1 ~1", d)
	}
	if same, err := db.Diff(ReadTarget{AsOf: to}, ReadTarget{AsOf: to}); err != nil || !same.Empty() {
		t.Fatalf("Diff(v,v) = %+v (%v), want empty", same, err)
	}
	if err := db.CreateTable(groupSchema()); err != nil {
		t.Fatal(err)
	}
	d, err = db.Diff(ReadTarget{AsOf: to}, ReadTarget{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.TablesAdded, []string{"grp"}) || len(d.Tables) != 0 {
		t.Fatalf("DDL diff = %+v, want table grp added", d)
	}
}

// TestDiffDoubleCells: Diff compares DOUBLE cells as float64 values,
// not by the bits a Value stores. A row rewritten from 0.0 to -0.0 is
// unchanged, a row rewritten from NaN to the same NaN is updated (NaN
// equals nothing), and a row rewritten to the same number is unchanged.
func TestDiffDoubleCells(t *testing.T) {
	db := NewDatabase("diffdouble")
	if err := db.CreateTable(&TableSchema{
		Name: "fv",
		Columns: []Column{
			{Name: "id", Type: TInt, NotNull: true},
			{Name: "x", Type: TFloat},
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		t.Fatal(err)
	}
	before := []float64{0.0, math.NaN(), 1.5}
	after := []float64{math.Copysign(0, -1), math.NaN(), 1.5}
	put := func(xs []float64, insert bool) {
		t.Helper()
		if err := db.Update(func(tx *Tx) error {
			for i, x := range xs {
				id := Int(int64(i + 1))
				if insert {
					if err := tx.Insert("fv", map[string]Value{"id": id, "x": Float(x)}); err != nil {
						return err
					}
					continue
				}
				rid, _, _, err := tx.LookupPK("fv", []Value{id})
				if err != nil {
					return err
				}
				if err := tx.UpdateByID("fv", rid, map[string]Value{"x": Float(x)}); err != nil {
					return err
				}
			}
			return nil
		}, "fv"); err != nil {
			t.Fatal(err)
		}
	}
	put(before, true)
	from := db.SnapshotVersion()
	put(after, false)
	d, err := db.Diff(ReadTarget{AsOf: from}, ReadTarget{})
	if err != nil {
		t.Fatal(err)
	}
	want := []TableDiff{{Table: "fv", Updated: 1, SampleKeys: []string{"2"}}}
	if !reflect.DeepEqual(d.Tables, want) {
		t.Fatalf("diff = %+v, want %+v", d.Tables, want)
	}
}

// TestMergeFastForwardAndConvergence: an unchanged main fast-forwards
// to the branch head by pointer, and the merge converges the branch on
// the result.
func TestMergeFastForwardAndConvergence(t *testing.T) {
	db := NewDatabase("ff")
	if err := db.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	kvPut(t, db, 1, "base")
	if err := db.CreateBranch("feature"); err != nil {
		t.Fatal(err)
	}
	branchPut(t, db, "feature", 2, "feat")
	// Metamorphic: after a fast-forward, main's state must equal the
	// source branch's pre-merge state.
	wantState := dumpTarget(t, db, ReadTarget{Branch: "feature"})

	res, err := db.Merge("feature", MainBranch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FastForward || res.UpToDate || res.Version != db.SnapshotVersion() {
		t.Fatalf("merge result = %+v, want fast-forward to head", res)
	}
	if got := dumpTarget(t, db, ReadTarget{}); !reflect.DeepEqual(got, wantState) {
		t.Fatalf("fast-forward merge: main diverges from source branch:\n got %v\nwant %v", got, wantState)
	}
	// Convergence: branch head and base moved to the merged main head.
	bs := db.ListBranches()
	if len(bs) != 1 || bs[0].Head != res.Version || bs[0].Base != res.Version {
		t.Fatalf("post-merge refs = %+v, want feature converged on %d", bs, res.Version)
	}
	if res2, err := db.Merge("feature", MainBranch); err != nil || !res2.UpToDate {
		t.Fatalf("re-merge = %+v (%v), want up-to-date", res2, err)
	}
	if res2, err := db.Merge(MainBranch, "feature"); err != nil || !res2.UpToDate {
		t.Fatalf("reverse re-merge = %+v (%v), want up-to-date", res2, err)
	}
}

// TestMergeThreeWayDisjoint: both sides moved on disjoint keys; the
// merge transplants the source delta and converges the branch.
func TestMergeThreeWayDisjoint(t *testing.T) {
	db := NewDatabase("3way")
	if err := db.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	kvPut(t, db, 1, "one")
	kvPut(t, db, 2, "two")
	kvPut(t, db, 3, "three")
	if err := db.CreateBranch("b"); err != nil {
		t.Fatal(err)
	}
	kvPut(t, db, 1, "one-main") // main: update 1
	kvPut(t, db, 10, "ten")     // main: insert 10
	branchPut(t, db, "b", 2, "two-branch")
	branchPut(t, db, "b", 20, "twenty")

	res, err := db.Merge("b", MainBranch)
	if err != nil {
		t.Fatal(err)
	}
	if res.FastForward || res.UpToDate || res.Applied != 2 {
		t.Fatalf("merge result = %+v, want three-way with 2 applied", res)
	}
	main := resolve(t, db, ReadTarget{})
	for id, want := range map[int64]string{1: "one-main", 2: "two-branch", 3: "three", 10: "ten", 20: "twenty"} {
		if got := kvGet(t, main, id); got != want {
			t.Fatalf("merged kv[%d] = %q, want %q", id, got, want)
		}
	}
	if got, want := dumpTarget(t, db, ReadTarget{Branch: "b"}), dumpTarget(t, db, ReadTarget{}); !reflect.DeepEqual(got, want) {
		t.Fatal("branch did not converge on the merged head")
	}

	// Merge main into a behind branch: three-way in the other direction.
	if err := db.CreateBranch("c"); err != nil {
		t.Fatal(err)
	}
	branchPut(t, db, "c", 30, "thirty")
	kvPut(t, db, 3, "three-main")
	res, err = db.Merge(MainBranch, "c")
	if err != nil {
		t.Fatal(err)
	}
	if res.FastForward || res.Applied != 1 {
		t.Fatalf("merge main→c = %+v, want three-way with 1 applied", res)
	}
	c := resolve(t, db, ReadTarget{Branch: "c"})
	if kvGet(t, c, 3) != "three-main" || kvGet(t, c, 30) != "thirty" {
		t.Fatal("branch c missing merged or own rows")
	}
	if kvGet(t, resolve(t, db, ReadTarget{}), 30) != "" {
		t.Fatal("merging main into c leaked branch rows into main")
	}
}

// TestMergeConflictsReported: overlapping key changes abort with the
// conflicting keys listed — never silently resolved.
func TestMergeConflictsReported(t *testing.T) {
	db := NewDatabase("conflict")
	if err := db.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	kvPut(t, db, 1, "one")
	if err := db.CreateBranch("b"); err != nil {
		t.Fatal(err)
	}
	kvPut(t, db, 1, "main-side")
	branchPut(t, db, "b", 1, "branch-side")

	_, err := db.Merge("b", MainBranch)
	var ce *MergeConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("conflicting merge = %v, want MergeConflictError", err)
	}
	if len(ce.Conflicts) != 1 || ce.Conflicts[0].Table != "kv" ||
		!reflect.DeepEqual(ce.Conflicts[0].Keys, []string{"1"}) {
		t.Fatalf("conflicts = %+v, want kv key 1", ce.Conflicts)
	}
	// Both sides are untouched by the failed merge.
	if kvGet(t, resolve(t, db, ReadTarget{}), 1) != "main-side" {
		t.Fatal("failed merge mutated main")
	}
	if kvGet(t, resolve(t, db, ReadTarget{Branch: "b"}), 1) != "branch-side" {
		t.Fatal("failed merge mutated the branch")
	}
	if _, err := db.Merge(MainBranch, "b"); !errors.As(err, &ce) {
		t.Fatalf("reverse conflicting merge = %v, want MergeConflictError", err)
	}
}

// TestMergeCatalogDivergence: DDL after the fork makes the catalogs
// incompatible; the merge refuses instead of guessing.
func TestMergeCatalogDivergence(t *testing.T) {
	db := NewDatabase("ddl")
	if err := db.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateBranch("b"); err != nil {
		t.Fatal(err)
	}
	branchPut(t, db, "b", 1, "x")
	if err := db.CreateTable(groupSchema()); err != nil {
		t.Fatal(err)
	}
	var me *MergeError
	if _, err := db.Merge("b", MainBranch); !errors.As(err, &me) {
		t.Fatalf("merge across DDL divergence = %v, want MergeError", err)
	}
	if _, err := db.Merge("b", "b"); !errors.As(err, &me) {
		t.Fatalf("self merge = %v, want MergeError", err)
	}
	if _, err := db.Merge("nope", MainBranch); err == nil {
		t.Fatal("merge from unknown branch succeeded")
	}
}

// TestBranchRecovery: branch create/commit/drop/merge are WAL-logged
// and checkpointed; kill-and-recover (WAL replay) and clean restart
// (manifest refs block) both rebuild the DAG exactly.
func TestBranchRecovery(t *testing.T) {
	for _, clean := range []bool{false, true} {
		name := "wal-replay"
		if clean {
			name = "manifest"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			db, _ := mustOpen(t, dir, Options{})
			if err := db.CreateTable(kvSchema()); err != nil {
				t.Fatal(err)
			}
			kvPut(t, db, 1, "base")
			if err := db.CreateBranch("keep"); err != nil {
				t.Fatal(err)
			}
			branchPut(t, db, "keep", 2, "feat")
			kvPut(t, db, 3, "trunk")
			if err := db.CreateBranch("gone"); err != nil {
				t.Fatal(err)
			}
			if err := db.DropBranch("gone"); err != nil {
				t.Fatal(err)
			}
			if err := db.CreateBranch("merged"); err != nil {
				t.Fatal(err)
			}
			branchPut(t, db, "merged", 4, "via-merge")
			if _, err := db.Merge("merged", MainBranch); err != nil {
				t.Fatal(err)
			}

			wantMain := dumpTarget(t, db, ReadTarget{})
			wantKeep := dumpTarget(t, db, ReadTarget{Branch: "keep"})
			wantRefs := db.ListBranches()
			wantSeq := db.seq.Load()
			wantHead := db.SnapshotVersion()
			if clean {
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			} // else: hard stop, recovery from the WAL alone

			db2, recovered := mustOpen(t, dir, Options{})
			if !recovered {
				t.Fatal("reopen found no state")
			}
			if got := db2.seq.Load(); got != wantSeq {
				t.Fatalf("recovered seq %d, want %d", got, wantSeq)
			}
			if got := db2.SnapshotVersion(); got != wantHead {
				t.Fatalf("recovered head %d, want %d", got, wantHead)
			}
			if got := db2.ListBranches(); !reflect.DeepEqual(got, wantRefs) {
				t.Fatalf("recovered refs:\n got %+v\nwant %+v", got, wantRefs)
			}
			if got := dumpTarget(t, db2, ReadTarget{}); !reflect.DeepEqual(got, wantMain) {
				t.Fatalf("recovered main diverges:\n got %v\nwant %v", got, wantMain)
			}
			if got := dumpTarget(t, db2, ReadTarget{Branch: "keep"}); !reflect.DeepEqual(got, wantKeep) {
				t.Fatalf("recovered branch diverges:\n got %v\nwant %v", got, wantKeep)
			}
			// AS OF the recovered head resolves (history re-seeded).
			if s := resolve(t, db2, ReadTarget{AsOf: wantHead}); kvGet(t, s, 3) != "trunk" {
				t.Fatal("AS OF recovered head lost data")
			}
			// The recovered DAG is live: branch writes and merges work.
			branchPut(t, db2, "keep", 5, "post-recovery")
			if _, err := db2.Merge("keep", MainBranch); err != nil {
				t.Fatalf("merge after recovery: %v", err)
			}
			if got := kvGet(t, resolve(t, db2, ReadTarget{}), 5); got != "post-recovery" {
				t.Fatalf("post-recovery merge lost data: %q", got)
			}
			if err := db2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestResolveTargetRules pins the ReadTarget contract: zero value is
// the head, asOf+branch is invalid, branch "main" aliases the head.
func TestResolveTargetRules(t *testing.T) {
	db := NewDatabase("targets")
	if err := db.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	v := kvPut(t, db, 1, "x")
	if !(ReadTarget{}).IsHead() || !(ReadTarget{Branch: MainBranch}).IsHead() {
		t.Fatal("zero/main targets must be head")
	}
	if (ReadTarget{AsOf: v}).IsHead() || (ReadTarget{Branch: "b"}).IsHead() {
		t.Fatal("pinned targets must not be head")
	}
	if _, err := db.Resolve(ReadTarget{AsOf: v, Branch: "b"}); err == nil {
		t.Fatal("asOf+branch accepted")
	}
	if s := resolve(t, db, ReadTarget{Branch: MainBranch}); s.Version() != v {
		t.Fatal("branch main does not alias the head")
	}
	var be *BranchError
	if _, err := db.Resolve(ReadTarget{Branch: "nope"}); !errors.As(err, &be) {
		t.Fatalf("unknown branch = %v, want BranchError", err)
	}
}
