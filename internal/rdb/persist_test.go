package rdb

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ontoaccess/internal/rdb/wal"
)

// personSchema returns the schema the persistence tests reuse: an
// AUTO_INCREMENT integer key, a UNIQUE column, a nullable column with
// a DEFAULT, and (via groupSchema) a foreign key target.
func personSchema() *TableSchema {
	def := String_("unset")
	return &TableSchema{
		Name: "person",
		Columns: []Column{
			{Name: "id", Type: TInt, NotNull: true, AutoIncrement: true},
			{Name: "lastname", Type: TVarchar, Length: 50, NotNull: true, Unique: true},
			{Name: "email", Type: TVarchar, Length: 100},
			{Name: "note", Type: TText, Default: &def},
			{Name: "grp", Type: TInt},
			{Name: "score", Type: TFloat},
			{Name: "active", Type: TBool},
		},
		PrimaryKey:  []string{"id"},
		ForeignKeys: []ForeignKey{{Column: "grp", RefTable: "grp"}},
	}
}

func groupSchema() *TableSchema {
	return &TableSchema{
		Name: "grp",
		Columns: []Column{
			{Name: "id", Type: TInt, NotNull: true},
			{Name: "name", Type: TVarchar, Length: 50},
		},
		PrimaryKey: []string{"id"},
	}
}

// mustOpen opens a durable database or fails the test.
func mustOpen(t *testing.T, dir string, opts Options) (*Database, bool) {
	t.Helper()
	opts.DataDir = dir
	db, recovered, err := Open("persisttest", opts)
	if err != nil {
		t.Fatal(err)
	}
	return db, recovered
}

// dump snapshots every table's rows (in creation then insertion
// order) plus the id counters, for state comparison across restarts.
func dump(t *testing.T, db *Database) map[string][][]Value {
	t.Helper()
	out := make(map[string][][]Value)
	s := db.snapshot()
	for _, key := range s.order {
		v := s.tables[key]
		rows := [][]Value{{Int(v.nextID), Int(v.nextAuto)}}
		v.scan(func(id int64, row []Value) bool {
			rows = append(rows, append([]Value{Int(id)}, row...))
			return true
		})
		out[key] = rows
	}
	return out
}

func seedGroups(t *testing.T, db *Database) {
	t.Helper()
	if err := db.CreateTable(groupSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(personSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error {
		return tx.Insert("grp", map[string]Value{"id": Int(1), "name": String_("Team 1")})
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	db, recovered := mustOpen(t, dir, Options{})
	if recovered {
		t.Fatal("fresh directory reported recovered state")
	}
	seedGroups(t, db)
	if err := db.Update(func(tx *Tx) error {
		if err := tx.Insert("person", map[string]Value{
			"lastname": String_("Hert"), "email": String_("mailto:h@x.org"),
			"grp": Int(1), "score": Float(1.5), "active": Bool(true),
		}); err != nil {
			return err
		}
		return tx.Insert("person", map[string]Value{"lastname": String_("Reif")})
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error {
		return tx.UpdateByID("person", 0, map[string]Value{"email": String_("mailto:h2@x.org")})
	}, "person"); err != nil {
		t.Fatal(err)
	}
	want := dump(t, db)
	wantVersion := db.SnapshotVersion()
	// Hard stop: no Close, no checkpoint — recovery must come from the
	// WAL alone.

	db2, recovered := mustOpen(t, dir, Options{})
	if !recovered {
		t.Fatal("reopen found no state")
	}
	if got := db2.SnapshotVersion(); got != wantVersion {
		t.Fatalf("recovered version %d, want %d", got, wantVersion)
	}
	if got := dump(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state diverges:\n got %v\nwant %v", got, want)
	}
	// AUTO_INCREMENT and row-id assignment must continue where the
	// crashed process stopped.
	if err := db2.Update(func(tx *Tx) error {
		return tx.Insert("person", map[string]Value{"lastname": String_("Ghidini")})
	}, "person"); err != nil {
		t.Fatal(err)
	}
	if db2.DurabilityStats().RecoveredRecords == 0 {
		t.Fatal("no WAL records reported recovered")
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverFromCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	db, _ := mustOpen(t, dir, Options{})
	seedGroups(t, db)
	if err := db.Update(func(tx *Tx) error {
		return tx.Insert("person", map[string]Value{"lastname": String_("Before")})
	}, "person"); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint tail: an insert, an update, a delete.
	if err := db.Update(func(tx *Tx) error {
		return tx.Insert("person", map[string]Value{"lastname": String_("After")})
	}, "person"); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error {
		return tx.UpdateByID("person", 0, map[string]Value{"note": String_("tail")})
	}, "person"); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error {
		return tx.DeleteByID("person", 1)
	}, "person"); err != nil {
		t.Fatal(err)
	}
	want := dump(t, db)
	st := db.DurabilityStats()
	if st.Checkpoints != 1 || st.LastCheckpointVersion == 0 {
		t.Fatalf("checkpoint stats = %+v", st)
	}

	db2, recovered := mustOpen(t, dir, Options{})
	if !recovered {
		t.Fatal("reopen found no state")
	}
	if got := dump(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state diverges:\n got %v\nwant %v", got, want)
	}
	if got, wantV := db2.SnapshotVersion(), db.SnapshotVersion(); got != wantV {
		t.Fatalf("recovered version %d, want %d", got, wantV)
	}
}

func TestRecoverAfterCleanClose(t *testing.T) {
	dir := t.TempDir()
	db, _ := mustOpen(t, dir, Options{})
	seedGroups(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	want := dump(t, db)

	db2, recovered := mustOpen(t, dir, Options{})
	if !recovered {
		t.Fatal("reopen found no state")
	}
	if got := dump(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state diverges:\n got %v\nwant %v", got, want)
	}
	// A clean close checkpointed everything: nothing to replay.
	if st := db2.DurabilityStats(); st.RecoveredRecords != 0 {
		t.Fatalf("replayed %d records after clean close, want 0", st.RecoveredRecords)
	}
}

func TestTornFinalFrameDropsOnlyLastCommit(t *testing.T) {
	dir := t.TempDir()
	db, _ := mustOpen(t, dir, Options{})
	seedGroups(t, db)
	if err := db.Update(func(tx *Tx) error {
		return tx.Insert("person", map[string]Value{"lastname": String_("Acked")})
	}, "person"); err != nil {
		t.Fatal(err)
	}
	want := dump(t, db)
	if err := db.Update(func(tx *Tx) error {
		return tx.Insert("person", map[string]Value{"lastname": String_("Torn")})
	}, "person"); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash tearing the final frame: chop bytes off the
	// newest segment so its last record (the "Torn" insert) is partial.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	newest := segs[len(segs)-1]
	info, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	db2, recovered := mustOpen(t, dir, Options{})
	if !recovered {
		t.Fatal("reopen found no state")
	}
	if got := dump(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("state after torn-frame recovery diverges:\n got %v\nwant %v", got, want)
	}
	// The log is repaired in place: new commits append cleanly and a
	// third open sees them.
	if err := db2.Update(func(tx *Tx) error {
		return tx.Insert("person", map[string]Value{"lastname": String_("Fresh")})
	}, "person"); err != nil {
		t.Fatal(err)
	}
	want = dump(t, db2)
	db3, _ := mustOpen(t, dir, Options{})
	if got := dump(t, db3); !reflect.DeepEqual(got, want) {
		t.Fatalf("state after repair+append diverges:\n got %v\nwant %v", got, want)
	}
}

func TestRolledBackOpsLeaveNoTrace(t *testing.T) {
	dir := t.TempDir()
	db, _ := mustOpen(t, dir, Options{})
	seedGroups(t, db)
	// Mimic the group-commit scheduler: several savepointed operations
	// inside one transaction, one of which rolls back.
	tx := db.BeginWrite("person")
	if err := tx.Insert("person", map[string]Value{"lastname": String_("Keep1")}); err != nil {
		t.Fatal(err)
	}
	sp := tx.Savepoint()
	if err := tx.Insert("person", map[string]Value{"lastname": String_("Keep1")}); err == nil {
		t.Fatal("duplicate unique insert succeeded")
	} else {
		tx.RollbackTo(sp)
	}
	if err := tx.Insert("person", map[string]Value{"lastname": String_("Keep2")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := dump(t, db)

	db2, _ := mustOpen(t, dir, Options{})
	if got := dump(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay of savepointed batch diverges:\n got %v\nwant %v", got, want)
	}
}

func TestDDLReplayAndDrop(t *testing.T) {
	dir := t.TempDir()
	db, _ := mustOpen(t, dir, Options{})
	seedGroups(t, db)
	if err := db.CreateTable(&TableSchema{
		Name:       "scratch",
		Columns:    []Column{{Name: "id", Type: TInt, NotNull: true}},
		PrimaryKey: []string{"id"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("scratch"); err != nil {
		t.Fatal(err)
	}
	want := dump(t, db)
	wantNames := db.TableNames()

	db2, _ := mustOpen(t, dir, Options{})
	if got := dump(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("DDL replay diverges:\n got %v\nwant %v", got, want)
	}
	if got := db2.TableNames(); !reflect.DeepEqual(got, wantNames) {
		t.Fatalf("table names after replay = %v, want %v", got, wantNames)
	}
}

func TestAutoCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	// A tiny threshold so the background checkpoint fires quickly.
	db, _ := mustOpen(t, dir, Options{CheckpointBytes: 256})
	seedGroups(t, db)
	for i := 0; i < 50; i++ {
		if err := db.Update(func(tx *Tx) error {
			return tx.Insert("person", map[string]Value{
				"lastname": String_("Bulk" + string(rune('A'+i%26)) + string(rune('0'+i/26))),
			})
		}, "person"); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil { // waits on nothing, but forces a final checkpoint
		t.Fatal(err)
	}
	st := db.DurabilityStats()
	if st.Checkpoints < 2 {
		t.Fatalf("expected automatic checkpoints to fire, got %+v", st)
	}
	want := dump(t, db)
	db2, _ := mustOpen(t, dir, Options{})
	if got := dump(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state diverges after auto-checkpoints")
	}
}

// TestBackgroundCheckpointFailureCounted makes every background
// checkpoint fail — a directory sits where the manifest is renamed to,
// which fails even as root — and checks that the failures are counted
// with their error, that each later trigger retries, and that the
// first trigger after the obstacle is gone checkpoints.
func TestBackgroundCheckpointFailureCounted(t *testing.T) {
	dir := t.TempDir()
	db, _ := mustOpen(t, dir, Options{CheckpointBytes: 256})
	blocker := filepath.Join(dir, checkpointFile)
	if err := os.MkdirAll(filepath.Join(blocker, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	seedGroups(t, db)
	insert := func(name string) {
		t.Helper()
		if err := db.Update(func(tx *Tx) error {
			return tx.Insert("person", map[string]Value{"lastname": String_(name)})
		}, "person"); err != nil {
			t.Fatal(err)
		}
		db.persist.ckptWG.Wait() // the trigger's background checkpoint
	}
	// Commit until the log outgrows the threshold and a checkpoint runs.
	for i := 0; i < 100 && db.DurabilityStats().CheckpointFailures == 0; i++ {
		insert(fmt.Sprint("Bulk", i))
	}
	st := db.DurabilityStats()
	if st.CheckpointFailures == 0 || st.Checkpoints != 0 || !strings.Contains(st.LastCheckpointError, checkpointFile) {
		t.Fatalf("after a failed background checkpoint: %d failures, %d checkpoints, last error %q",
			st.CheckpointFailures, st.Checkpoints, st.LastCheckpointError)
	}
	failed := st.CheckpointFailures
	insert("Second")
	if st = db.DurabilityStats(); st.CheckpointFailures != failed+1 {
		t.Fatalf("the next trigger did not retry: %d failures, want %d", st.CheckpointFailures, failed+1)
	}
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}
	insert("Third")
	if st = db.DurabilityStats(); st.Checkpoints != 1 || st.CheckpointFailures != failed+1 {
		t.Fatalf("after the obstacle went: %d checkpoints, %d failures; want 1, %d",
			st.Checkpoints, st.CheckpointFailures, failed+1)
	}
	want := dump(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, _ := mustOpen(t, dir, Options{})
	if got := dump(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state diverges after failed checkpoints:\n got %v\nwant %v", got, want)
	}
}

// TestCheckpointFailuresBounded keeps every checkpoint failing for 200
// commits, each of which retries at once, and checks that the data
// directory stops growing: the retries reuse the first failed attempt's
// WAL rotation, and each attempt removes the table files it wrote. Once
// the obstacle is gone the next checkpoint succeeds, and a reopen
// recovers the same state.
func TestCheckpointFailuresBounded(t *testing.T) {
	dir := t.TempDir()
	db, _ := mustOpen(t, dir, Options{CheckpointBytes: 256})
	blocker := filepath.Join(dir, checkpointFile)
	if err := os.MkdirAll(filepath.Join(blocker, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	seedGroups(t, db)
	insert := func(name string) {
		t.Helper()
		if err := db.Update(func(tx *Tx) error {
			return tx.Insert("person", map[string]Value{"lastname": String_(name)})
		}, "person"); err != nil {
			t.Fatal(err)
		}
		db.persist.ckptWG.Wait()
	}
	// files counts the WAL segments and checkpoint table files in dir.
	files := func() (segments, tables int) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			n := e.Name()
			switch {
			case strings.HasPrefix(n, "wal-"):
				segments++
			case strings.HasPrefix(n, "ckpt-"):
				tables++
			}
		}
		return segments, tables
	}
	for i := 0; i < 200; i++ {
		insert(fmt.Sprint("Blocked", i))
	}
	st := db.DurabilityStats()
	if st.CheckpointFailures < 100 || st.Checkpoints != 0 {
		t.Fatalf("after 200 blocked commits: %d failures, %d checkpoints", st.CheckpointFailures, st.Checkpoints)
	}
	if segments, tables := files(); segments > 2 || tables != 0 {
		t.Fatalf("after %d failed checkpoints: %d WAL segments (want <= 2) and %d unreferenced table files (want 0)",
			st.CheckpointFailures, segments, tables)
	}
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}
	insert("Unblocked")
	if st = db.DurabilityStats(); st.Checkpoints != 1 {
		t.Fatalf("after the obstacle went: %d checkpoints, want 1", st.Checkpoints)
	}
	if _, tables := files(); tables != 2 {
		t.Fatalf("after the checkpoint: %d table files, want 2", tables)
	}
	want := dump(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, _ := mustOpen(t, dir, Options{})
	if got := dump(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state diverges after failed checkpoints:\n got %v\nwant %v", got, want)
	}
}

// TestCheckpointRowsLargerThanBuffer checkpoints rows that do not fit
// the checkpoint's write buffer, alone or straddling a flush, and
// recovers them from the table file alone.
func TestCheckpointRowsLargerThanBuffer(t *testing.T) {
	dir := t.TempDir()
	db, _ := mustOpen(t, dir, Options{CheckpointBytes: -1})
	seedGroups(t, db)
	for i, n := range []int{ckptBufSize - 40, 3 * ckptBufSize, 10, ckptBufSize / 2, ckptBufSize + 1} {
		note := strings.Repeat(string(rune('a'+i)), n)
		if err := db.Update(func(tx *Tx) error {
			return tx.Insert("person", map[string]Value{"lastname": String_(fmt.Sprint("Large", i)), "note": String_(note)})
		}, "person"); err != nil {
			t.Fatal(err)
		}
	}
	want := dump(t, db)
	if err := db.Close(); err != nil { // checkpoints every table
		t.Fatal(err)
	}
	db2, _ := mustOpen(t, dir, Options{})
	if st := db2.DurabilityStats(); st.RecoveredRecords != 0 {
		t.Fatalf("reopen replayed %d records, want the checkpoint alone", st.RecoveredRecords)
	}
	if got := dump(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatal("rows larger than the checkpoint buffer did not round-trip")
	}
}

func TestCorruptCheckpointRefused(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(data []byte)
		wantErr string
	}{
		{"bit flip", func(data []byte) { data[len(data)/2] ^= 0xFF }, "checksum mismatch"},
		// The monolithic (OACP1) and first incremental (OACM1) formats
		// are not read: an old magic is not a checkpoint.
		{"old monolithic magic", func(data []byte) { copy(data, "OACP1") }, "not a checkpoint file"},
		{"old manifest magic", func(data []byte) { copy(data, "OACM1") }, "not a checkpoint file"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db, _ := mustOpen(t, dir, Options{})
			seedGroups(t, db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, checkpointFile)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(data)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err = Open("persisttest", Options{DataDir: dir})
			if err == nil {
				t.Fatal("open of a corrupt checkpoint succeeded")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("open error = %v, want it to say %q", err, tc.wantErr)
			}
		})
	}
}

func TestStaleSegmentAfterCrashedCheckpointSkipped(t *testing.T) {
	// A crash between checkpoint write and segment removal leaves old
	// segments whose records the checkpoint already covers; replay
	// must skip them instead of double-applying.
	dir := t.TempDir()
	db, _ := mustOpen(t, dir, Options{})
	seedGroups(t, db)
	if err := db.Update(func(tx *Tx) error {
		return tx.Insert("person", map[string]Value{"lastname": String_("Covered")})
	}, "person"); err != nil {
		t.Fatal(err)
	}
	// Write the checkpoint by hand without pruning segments — exactly
	// the state a crash mid-Checkpoint leaves.
	snap := db.snapshot()
	buf := bufio.NewWriterSize(nil, ckptBufSize)
	for _, key := range snap.order {
		v := snap.tables[key]
		path := filepath.Join(dir, tableFileName(key, v.asOf))
		if err := wal.WriteFileAtomicFunc(path, func(w io.Writer) error {
			_, err := writeTableFile(w, buf, v)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.WriteFileAtomic(filepath.Join(dir, checkpointFile), encodeManifest(db.seq.Load(), snap, nil)); err != nil {
		t.Fatal(err)
	}
	want := dump(t, db)

	db2, recovered := mustOpen(t, dir, Options{})
	if !recovered {
		t.Fatal("reopen found no state")
	}
	if got := dump(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("stale-segment recovery diverges:\n got %v\nwant %v", got, want)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestCheckpointTableFileGolden pins the OATB1 table-file bytes a
// checkpoint writes. The database is small and fixed, and its rows
// carry every Value kind the encoder distinguishes: NULL, a negative
// INTEGER, -0.0, a NaN with payload bits, a STRING that is not valid
// UTF-8, and both BOOLEANs; an update and a delete leave an id gap
// and a moved row. The golden was written by the encoder that built
// each image in one byte slice; `go test -run TableFileGolden
// -update` rewrites it.
func TestCheckpointTableFileGolden(t *testing.T) {
	dir := t.TempDir()
	db, _ := mustOpen(t, dir, Options{CheckpointBytes: -1})
	seedGroups(t, db)
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	rows := []map[string]Value{
		{"id": Int(-7), "lastname": String_("Negative"), "email": Null, "score": Float(math.Copysign(0, -1)), "active": Bool(false)},
		{"lastname": String_("Bits\xff\xfe\x00"), "email": String_("mailto:b@example.org"), "grp": Int(1), "score": Float(nan), "active": Bool(true)},
		{"lastname": String_("Gone"), "note": String_("deleted below")},
		{"lastname": String_("héllo"), "grp": Null, "score": Float(-2.5e300), "active": Null},
	}
	for _, r := range rows {
		if err := db.Update(func(tx *Tx) error { return tx.Insert("person", r) }, "person"); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Update(func(tx *Tx) error {
		ids, err := tx.Match("person", map[string]Value{"lastname": String_("Gone")})
		if err != nil || len(ids) != 1 {
			return fmt.Errorf("match Gone: %v %v", ids, err)
		}
		if err := tx.DeleteByID("person", ids[0]); err != nil {
			return err
		}
		ids, err = tx.Match("person", map[string]Value{"lastname": String_("Negative")})
		if err != nil || len(ids) != 1 {
			return fmt.Errorf("match Negative: %v %v", ids, err)
		}
		return tx.UpdateByID("person", ids[0], map[string]Value{"email": String_("mailto:n@example.org")})
	}, "person"); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap := db.snapshot()
	for _, key := range snap.order {
		got, err := os.ReadFile(filepath.Join(dir, tableFileName(key, snap.tables[key].asOf)))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "checkpoint-"+key+".tbl.golden")
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("table file for %s differs from %s:\n got % x\nwant % x", key, path, got, want)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestValueAndSchemaRoundTrip(t *testing.T) {
	vals := []Value{
		Null, Int(-42), Int(1 << 40), Float(3.25), Float(-0.0),
		String_(""), String_("héllo\x00world"), Bool(true), Bool(false),
	}
	var b []byte
	for _, v := range vals {
		b = appendValue(b, v)
	}
	d := &walDec{b: b}
	for i, want := range vals {
		if got := d.value(); got != want {
			t.Fatalf("value %d round-tripped to %v, want %v", i, got, want)
		}
	}
	if d.err != nil || len(d.b) != 0 {
		t.Fatalf("decoder state after round trip: err=%v rest=%d", d.err, len(d.b))
	}

	s := personSchema()
	sd := &walDec{b: appendSchema(nil, s)}
	got := sd.schema()
	if sd.err != nil {
		t.Fatal(sd.err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("schema round-tripped to %+v, want %+v", got, s)
	}
}

func TestEphemeralOpenHasNoDurability(t *testing.T) {
	db, recovered, err := Open("mem", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if recovered {
		t.Fatal("ephemeral open reported recovery")
	}
	if st := db.DurabilityStats(); st.Enabled {
		t.Fatal("ephemeral database reports durability enabled")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFsyncsAmortizedAcrossBatchedOps(t *testing.T) {
	dir := t.TempDir()
	db, _ := mustOpen(t, dir, Options{})
	seedGroups(t, db)
	before := db.DurabilityStats().Fsyncs
	// Ten operations in one transaction = one publish = one record =
	// one fsync. This is the property the group-commit scheduler
	// builds on.
	if err := db.Update(func(tx *Tx) error {
		for i := 0; i < 10; i++ {
			if err := tx.Insert("person", map[string]Value{
				"lastname": String_("Batch" + string(rune('A'+i))),
			}); err != nil {
				return err
			}
		}
		return nil
	}, "person"); err != nil {
		t.Fatal(err)
	}
	if got := db.DurabilityStats().Fsyncs - before; got != 1 {
		t.Fatalf("10 batched ops cost %d fsyncs, want 1", got)
	}
}
