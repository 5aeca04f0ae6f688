package rdb

// Durability for the MVCC engine: logical write-ahead logging,
// snapshot checkpointing, and crash recovery.
//
// The unit of logging is the *publish* — the commit step that installs
// the next database snapshot. Every publish appends exactly one record
// whose sequence number equals the version of the snapshot it
// produces, and fsyncs it before the snapshot becomes visible
// (write-ahead rule). Because the group-commit scheduler runs a whole
// drained batch inside one transaction and therefore one publish, the
// WAL inherits its amortization for free: one record and one fsync
// cover every operation in the batch, the same way one lock
// acquisition already does.
//
// Records carry logical operations, not pages: for a commit, the
// tables touched and the per-row inserts/updates/deletes with their
// typed, post-coercion values and internal row ids; for DDL, the
// serialized schema. Replay re-applies them at the tableVersion level
// without re-validating constraints — the rows were validated and
// coerced when the original commit ran, and re-deriving the exact same
// versions (asserted via the logged row ids) is what makes the
// recovered export byte-identical to the acknowledged prefix.
//
// Sequence numbers are dense: every publish is logged, so replay can
// demand seq == version+1 and detect a lost record as a hard error
// rather than silently skipping history. Records at or below the
// checkpoint version are skipped — they can legitimately linger in old
// segments when a crash lands between checkpoint write and segment
// removal.
//
// Checkpointing rotates the log under the publish lock (so every
// record not covered by the checkpoint lives in segments at or after
// the returned index), serializes the immutable snapshot outside any
// lock, atomically replaces the checkpoint file, and only then removes
// the covered segments. A crash at any point leaves either the old
// checkpoint plus a longer log, or the new checkpoint plus a log whose
// stale prefix replay skips.
//
// Each table dirtied since the previous checkpoint is rewritten whole —
// a copy-on-write table version has no partial image — so a
// checkpoint's I/O is proportional to the dirty tables' size. Its
// memory is not: every image streams from the immutable table version
// into its file through one fixed 64 KiB buffer, with the CRC-32C
// folded in as the buffer flushes. A failed checkpoint removes the
// table files it created and leaves its log rotation for the retry to
// reuse, so a run of failures does not grow the data directory.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ontoaccess/internal/rdb/wal"
)

const (
	recCommit byte = 'C'
	recCreate byte = 'T'
	recDrop   byte = 'X'
	// Branch-DAG records: ref creation ('R') and removal ('Q'), a
	// commit published on a branch head ('B'), and a merge between a
	// branch and main ('M'). Like every record their sequence number is
	// the global commit seq the operation consumed, so one dense
	// sequence covers the whole DAG and replay rebuilds it exactly.
	recBranchCreate byte = 'R'
	recBranchDrop   byte = 'Q'
	recBranchCommit byte = 'B'
	recMerge        byte = 'M'

	walInsert byte = 'i'
	walUpdate byte = 'u'
	walDelete byte = 'd'

	checkpointFile = "checkpoint.db"
	// ckptBufSize sizes the one buffer a checkpoint streams all its
	// table images through.
	ckptBufSize = 64 << 10
	// Incremental checkpoints: checkpoint.db is a manifest
	// (manifestMagicV2) referencing one immutable per-table file
	// (tableFileMagic) per table, named by the snapshot version that
	// last changed the table — so a checkpoint rewrites only the
	// tables dirtied since the previous one. The manifest also carries
	// the global commit seq and a refs block (every named branch with
	// its head and base snapshots), so recovery restores the commit
	// DAG, not just the main head.
	manifestMagicV2 = "OACM2"
	tableFileMagic  = "OATB1"

	// DefaultCheckpointBytes is the WAL growth between automatic
	// checkpoints when Options.CheckpointBytes is zero.
	DefaultCheckpointBytes = 4 << 20
)

// Options configures persistence for Open.
type Options struct {
	// DataDir roots the WAL segments and the checkpoint file. Empty
	// means ephemeral: a memory-only database identical to NewDatabase.
	DataDir string
	// CheckpointBytes is the WAL growth that triggers an automatic
	// background checkpoint; zero selects DefaultCheckpointBytes,
	// negative disables automatic checkpointing (Checkpoint can still
	// be called explicitly).
	CheckpointBytes int64
	// ShardCount is the number of key-range lock shards per table — a
	// power of two in [1, MaxShardCount]; zero selects
	// DefaultShardCount. More shards admit more concurrent keyed
	// writers per table at the cost of wider reader lock fan-out.
	ShardCount int
	// HistoryDepth bounds the retained-snapshot ring for AS OF reads;
	// zero selects DefaultHistoryDepth, negative disables retention.
	HistoryDepth int
}

// walChange is one logical row mutation captured by a transaction for
// the commit record: the post-coercion row exactly as the derived
// tableVersion stores it.
type walChange struct {
	table string
	op    byte
	id    int64
	row   []Value // nil for deletes
}

// persister holds a database's durability state.
type persister struct {
	log *wal.Log
	dir string

	checkpointBytes int64
	bytesSinceCkpt  atomic.Int64
	lastCkptVersion atomic.Uint64
	checkpoints     atomic.Uint64
	recovered       atomic.Uint64
	checkpointing   atomic.Bool
	// ckptWritten / ckptSkipped count per-table checkpoint files
	// written vs reused across incremental checkpoints (dirty-table
	// skipping made observable).
	ckptWritten atomic.Uint64
	ckptSkipped atomic.Uint64
	// ckptFailed counts failed background checkpoints; ckptLastErr
	// holds the newest one's error text.
	ckptFailed  atomic.Uint64
	ckptLastErr atomic.Pointer[string]
	// ckptMu serializes Checkpoint against itself (explicit calls vs
	// the automatic background trigger); ckptWG lets Close wait for an
	// in-flight background checkpoint so it cannot recreate files
	// after the caller tears the data directory down.
	ckptMu sync.Mutex
	ckptWG sync.WaitGroup
	// ckptBytes totals the table and manifest bytes checkpoints wrote;
	// ckptLastDur is how long the newest completed checkpoint took to
	// install its manifest.
	ckptBytes   atomic.Uint64
	ckptLastDur atomic.Int64
	// retrySeg is the WAL rotation a failed checkpoint made, reused by
	// the next attempt; zero when the last attempt succeeded. Guarded
	// by ckptMu.
	retrySeg uint64
}

// append writes one record and makes it durable. Callers hold
// whatever lock fixes the record's sequence number (pubMu for
// commits, the exclusive catalog lock for DDL), so records land in
// the log in sequence order.
func (p *persister) append(payload []byte) error {
	if err := p.log.Append(payload); err != nil {
		return err
	}
	if err := p.log.Sync(); err != nil {
		return err
	}
	p.bytesSinceCkpt.Add(int64(len(payload)))
	return nil
}

// maybeCheckpoint kicks off a background checkpoint when the WAL has
// grown past the threshold and none is already running. A failed
// background checkpoint is counted and its error kept for
// DurabilityStats; it leaves the WAL growth counter untouched, so the
// next publish over the threshold retries.
func (p *persister) maybeCheckpoint(db *Database) {
	if p.checkpointBytes <= 0 || p.bytesSinceCkpt.Load() < p.checkpointBytes {
		return
	}
	if !p.checkpointing.CompareAndSwap(false, true) {
		return
	}
	p.ckptWG.Add(1)
	go func() {
		defer p.ckptWG.Done()
		defer p.checkpointing.Store(false)
		if err := db.Checkpoint(); err != nil {
			msg := err.Error()
			p.ckptLastErr.Store(&msg)
			p.ckptFailed.Add(1)
		}
	}()
}

// DurabilityStats is the operator-facing view of the durability
// layer, surfaced through /healthz.
type DurabilityStats struct {
	Enabled bool
	DataDir string
	// WALBytes / WALRecords / WALSegments describe the live log;
	// Fsyncs counts physical fsyncs (compare against the scheduler's
	// batch count for the amortization ratio).
	WALBytes    int64
	WALRecords  uint64
	WALSegments uint64
	Fsyncs      uint64
	// LastCheckpointVersion is the snapshot version the newest durable
	// checkpoint covers; Checkpoints counts completed checkpoints.
	LastCheckpointVersion uint64
	Checkpoints           uint64
	// CheckpointTablesWritten / CheckpointTablesSkipped count per-table
	// checkpoint files written vs reused unchanged across incremental
	// checkpoints — skipped tables were clean since the last checkpoint.
	CheckpointTablesWritten uint64
	CheckpointTablesSkipped uint64
	// RecoveredRecords counts WAL records replayed by Open.
	RecoveredRecords uint64
	// CheckpointFailures counts background checkpoints that failed;
	// LastCheckpointError is the newest failure's error ("" if none).
	// Each failure is retried at the next trigger.
	CheckpointFailures  uint64
	LastCheckpointError string
	// CheckpointBytes totals the table-file and manifest bytes that
	// checkpoints wrote; LastCheckpointDuration is how long the newest
	// completed checkpoint took, from its start to its installed
	// manifest.
	CheckpointBytes        uint64
	LastCheckpointDuration time.Duration
}

// DurabilityStats reports the durability layer's counters; the zero
// value (Enabled=false) for an ephemeral database.
func (db *Database) DurabilityStats() DurabilityStats {
	p := db.persist
	if p == nil {
		return DurabilityStats{}
	}
	ls := p.log.Stats()
	var lastErr string
	if e := p.ckptLastErr.Load(); e != nil {
		lastErr = *e
	}
	return DurabilityStats{
		Enabled:                 true,
		DataDir:                 p.dir,
		WALBytes:                ls.Bytes,
		WALRecords:              ls.Records,
		WALSegments:             ls.Segments,
		Fsyncs:                  ls.Fsyncs,
		LastCheckpointVersion:   p.lastCkptVersion.Load(),
		Checkpoints:             p.checkpoints.Load(),
		CheckpointTablesWritten: p.ckptWritten.Load(),
		CheckpointTablesSkipped: p.ckptSkipped.Load(),
		RecoveredRecords:        p.recovered.Load(),
		CheckpointFailures:      p.ckptFailed.Load(),
		LastCheckpointError:     lastErr,
		CheckpointBytes:         p.ckptBytes.Load(),
		LastCheckpointDuration:  time.Duration(p.ckptLastDur.Load()),
	}
}

// Open returns a database backed by the data directory in o,
// recovering any state a previous process left there: the newest
// valid checkpoint is loaded, the WAL tail is replayed on top of it,
// and a torn final frame (a crash mid-append) is truncated away. The
// recovered result reports whether any prior state was found — when
// true the schema already exists and callers must not re-apply DDL.
// With an empty DataDir, Open degenerates to NewDatabase.
func Open(name string, o Options) (*Database, bool, error) {
	db, err := newDatabaseWith(name, o)
	if err != nil {
		return nil, false, err
	}
	if o.DataDir == "" {
		return db, false, nil
	}
	p := &persister{dir: o.DataDir, checkpointBytes: o.CheckpointBytes}
	if p.checkpointBytes == 0 {
		p.checkpointBytes = DefaultCheckpointBytes
	}
	l, err := wal.Open(o.DataDir)
	if err != nil {
		return nil, false, err
	}
	p.log = l

	hadState := false
	var ckptVersion uint64
	if data, rerr := os.ReadFile(filepath.Join(o.DataDir, checkpointFile)); rerr == nil {
		hadState = true
		ckptVersion, err = db.restoreCheckpoint(o.DataDir, data)
		if err != nil {
			l.Close()
			return nil, false, fmt.Errorf("rdb: loading checkpoint: %w", err)
		}
	} else if !os.IsNotExist(rerr) {
		l.Close()
		return nil, false, rerr
	}

	// Recovery decodes and CRC-verifies sealed segments in parallel;
	// records still apply strictly in log order (replayRecord enforces
	// the dense commit sequence).
	var replayed uint64
	if _, err := l.ReplayParallel(func(payload []byte) error {
		return db.replayRecord(payload, &replayed)
	}); err != nil {
		l.Close()
		return nil, false, fmt.Errorf("rdb: replaying WAL: %w", err)
	}
	p.recovered.Store(replayed)
	p.lastCkptVersion.Store(ckptVersion)
	db.persist = p
	return db, hadState || replayed > 0, nil
}

// Checkpoint serializes the current snapshot to the checkpoint file
// and prunes the WAL segments it covers. Safe to call concurrently
// with commits; a no-op on an ephemeral database.
func (db *Database) Checkpoint() error {
	p := db.persist
	if p == nil {
		return nil
	}
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	start := time.Now()
	// Under pubMu no publish can intervene between reading the state
	// and rotating, so every record not covered by this checkpoint
	// lives in segments >= seg. The refs map only mutates under pubMu
	// (branch create/drop hold it), so it is safe to capture here — and
	// capturing it at the same instant as the seq is what keeps "record
	// covered by checkpoint" and "branch present in manifest" in sync.
	// A failed attempt leaves its rotation behind, and the retry cuts
	// there again instead of adding a segment per failure: an older cut
	// only keeps more segments, whose covered records replay skips.
	db.pubMu.Lock()
	snap := db.snap.Load()
	seq := db.seq.Load()
	refs := make([]ckptRef, 0, len(db.refs))
	for name, b := range db.refs {
		refs = append(refs, ckptRef{name: name, createdAt: b.createdAt,
			head: b.head.Load(), base: b.base.Load()})
	}
	seg := p.retrySeg
	var err error
	if seg == 0 {
		seg, err = p.log.Rotate()
	}
	db.pubMu.Unlock()
	if err != nil {
		return err
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].name < refs[j].name })
	need, err := p.writeCheckpoint(seq, snap, refs)
	if err != nil {
		p.retrySeg = seg
		return err
	}
	p.retrySeg = 0
	p.ckptLastDur.Store(int64(time.Since(start)))
	p.lastCkptVersion.Store(snap.version)
	p.bytesSinceCkpt.Store(0)
	p.checkpoints.Add(1)
	// Prune table files the just-installed manifest no longer
	// references. A crash before this point merely leaves extra files;
	// a failure here is cosmetic, so it does not fail the checkpoint.
	if entries, derr := os.ReadDir(p.dir); derr == nil {
		for _, e := range entries {
			n := e.Name()
			if _, referenced := need[n]; !referenced &&
				strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".tbl") {
				os.Remove(filepath.Join(p.dir, n)) //nolint:errcheck // cosmetic
			}
		}
	}
	return p.log.RemoveBefore(seg)
}

// writeCheckpoint writes the table files the snapshots need and then
// the manifest that installs them, returning the file names the new
// manifest references. The snapshots are immutable: serialization
// needs no lock. Each table serializes to its own immutable file named
// by the snapshot version that last changed it, so only tables dirtied
// since the previous checkpoint are rewritten — each one whole, since
// a copy-on-write table version has no partial image — and the
// manifest then flips the whole checkpoint atomically. Branch heads
// and bases share almost every table version with main or with each
// other, and the (key, asOf) naming dedupes those files for free.
//
// A failed attempt removes the table files it created: no manifest
// references them, and a retry writes them again. The one exception is
// a manifest whose rename landed before its directory fsync failed; it
// references this attempt's files, which therefore stay.
func (p *persister) writeCheckpoint(seq uint64, snap *dbSnapshot, refs []ckptRef) (need map[string]*tableVersion, err error) {
	need = make(map[string]*tableVersion)
	collect := func(s *dbSnapshot) {
		for _, key := range s.order {
			v := s.tables[key]
			need[tableFileName(key, v.asOf)] = v
		}
	}
	collect(snap)
	for _, r := range refs {
		collect(r.head)
		collect(r.base)
	}
	var created []string
	defer func() {
		if err != nil {
			for _, path := range created {
				os.Remove(path) //nolint:errcheck // a leftover is pruned by the next successful checkpoint
			}
		}
	}()
	var buf *bufio.Writer
	for name, v := range need {
		path := filepath.Join(p.dir, name)
		if _, serr := os.Stat(path); serr == nil {
			p.ckptSkipped.Add(1)
			continue
		} else if !os.IsNotExist(serr) {
			return nil, serr
		}
		if buf == nil {
			buf = bufio.NewWriterSize(nil, ckptBufSize)
		}
		created = append(created, path)
		var n int64
		if err := wal.WriteFileAtomicFunc(path, func(w io.Writer) (err error) {
			n, err = writeTableFile(w, buf, v)
			return err
		}); err != nil {
			return nil, err
		}
		p.ckptWritten.Add(1)
		p.ckptBytes.Add(uint64(n))
	}
	manifest := encodeManifest(seq, snap, refs)
	if err := wal.WriteFileAtomic(filepath.Join(p.dir, checkpointFile), manifest); err != nil {
		if errors.Is(err, wal.ErrDirSync) {
			created = nil
		}
		return nil, err
	}
	p.ckptBytes.Add(uint64(len(manifest)))
	return need, nil
}

// tableFileName names the immutable per-table checkpoint file for a
// table key at the snapshot version that last changed it.
func tableFileName(key string, asOf uint64) string {
	return fmt.Sprintf("ckpt-%s-%d.tbl", key, asOf)
}

// Close checkpoints and closes the WAL. The database must not be used
// afterwards. A no-op on an ephemeral database.
func (db *Database) Close() error {
	p := db.persist
	if p == nil {
		return nil
	}
	// Commits happen-before Close, so every background checkpoint has
	// already been registered; wait it out before the final one.
	p.ckptWG.Wait()
	err := db.Checkpoint()
	if cerr := p.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---------------------------------------------------------------------------
// Record and checkpoint encoding. Everything is varint-based except
// floats (fixed 8-byte IEEE bits); strings are length-prefixed.

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendValue(b []byte, v Value) []byte {
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case KInt:
		b = binary.AppendVarint(b, v.I)
	case KFloat:
		b = binary.LittleEndian.AppendUint64(b, uint64(v.I)) // the IEEE bits, as stored
	case KString:
		b = appendString(b, v.S)
	case KBool:
		if v.B() {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

func appendRow(b []byte, row []Value) []byte {
	b = binary.AppendUvarint(b, uint64(len(row)))
	for _, v := range row {
		b = appendValue(b, v)
	}
	return b
}

func appendSchema(b []byte, s *TableSchema) []byte {
	b = appendString(b, s.Name)
	b = binary.AppendUvarint(b, uint64(len(s.Columns)))
	for i := range s.Columns {
		c := &s.Columns[i]
		b = appendString(b, c.Name)
		b = append(b, byte(c.Type))
		b = binary.AppendUvarint(b, uint64(c.Length))
		flags := byte(0)
		if c.NotNull {
			flags |= 1
		}
		if c.Unique {
			flags |= 2
		}
		if c.AutoIncrement {
			flags |= 4
		}
		if c.Default != nil {
			flags |= 8
		}
		b = append(b, flags)
		if c.Default != nil {
			b = appendValue(b, *c.Default)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(s.PrimaryKey)))
	for _, pk := range s.PrimaryKey {
		b = appendString(b, pk)
	}
	b = binary.AppendUvarint(b, uint64(len(s.ForeignKeys)))
	for _, fk := range s.ForeignKeys {
		b = appendString(b, fk.Column)
		b = appendString(b, fk.RefTable)
	}
	return b
}

// appendChanges serializes a change list grouped by table in
// first-touch order, preserving the per-table operation order (which
// is what fixes replayed insert-id assignment). Shared by commit,
// branch-commit and merge records.
func appendChanges(b []byte, changes []walChange) []byte {
	var order []string
	groups := make(map[string][]walChange)
	for _, c := range changes {
		if _, ok := groups[c.table]; !ok {
			order = append(order, c.table)
		}
		groups[c.table] = append(groups[c.table], c)
	}
	b = binary.AppendUvarint(b, uint64(len(order)))
	for _, t := range order {
		b = appendString(b, t)
		g := groups[t]
		b = binary.AppendUvarint(b, uint64(len(g)))
		for _, c := range g {
			b = append(b, c.op)
			b = binary.AppendUvarint(b, uint64(c.id))
			if c.op != walDelete {
				b = appendRow(b, c.row)
			}
		}
	}
	return b
}

// encodeCommitRecord serializes one main-branch publish.
func encodeCommitRecord(seq uint64, changes []walChange) []byte {
	b := []byte{recCommit}
	b = binary.AppendUvarint(b, seq)
	return appendChanges(b, changes)
}

// encodeBranchCreateRecord serializes a branch create: the ref name
// and the main head version it forked (logged for replay validation).
func encodeBranchCreateRecord(seq uint64, name string, baseVersion uint64) []byte {
	b := []byte{recBranchCreate}
	b = binary.AppendUvarint(b, seq)
	b = appendString(b, name)
	return binary.AppendUvarint(b, baseVersion)
}

// encodeBranchDropRecord serializes a branch drop.
func encodeBranchDropRecord(seq uint64, name string) []byte {
	b := []byte{recBranchDrop}
	b = binary.AppendUvarint(b, seq)
	return appendString(b, name)
}

// encodeBranchCommitRecord serializes one publish on a branch head.
func encodeBranchCommitRecord(seq uint64, name string, changes []walChange) []byte {
	b := []byte{recBranchCommit}
	b = binary.AppendUvarint(b, seq)
	b = appendString(b, name)
	return appendChanges(b, changes)
}

// encodeMergeRecord serializes a merge between a branch and main. A
// fast-forward carries no changes (the merged head adopts the source's
// tables); a three-way carries the transplanted change list, already
// validated against the destination.
func encodeMergeRecord(seq uint64, from, into string, ff bool, changes []walChange) []byte {
	b := []byte{recMerge}
	b = binary.AppendUvarint(b, seq)
	b = appendString(b, from)
	b = appendString(b, into)
	if ff {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return appendChanges(b, changes)
}

func encodeCreateRecord(seq uint64, s *TableSchema) []byte {
	b := []byte{recCreate}
	b = binary.AppendUvarint(b, seq)
	return appendSchema(b, s)
}

func encodeDropRecord(seq uint64, name string) []byte {
	b := []byte{recDrop}
	b = binary.AppendUvarint(b, seq)
	return appendString(b, name)
}

// ckptRef is one named branch captured for a checkpoint manifest.
type ckptRef struct {
	name       string
	createdAt  uint64
	head, base *dbSnapshot
}

// appendSnapshotMeta serializes one snapshot's identity and table list:
// version, parent, publishing branch, and every table key in creation
// order with the snapshot version that last changed it (which names
// its table file).
func appendSnapshotMeta(b []byte, s *dbSnapshot) []byte {
	b = binary.AppendUvarint(b, s.version)
	b = binary.AppendUvarint(b, s.parent)
	b = appendString(b, s.branch)
	b = binary.AppendUvarint(b, uint64(len(s.order)))
	for _, key := range s.order {
		b = appendString(b, key)
		b = binary.AppendUvarint(b, s.tables[key].asOf)
	}
	return b
}

// encodeManifest serializes a V2 checkpoint manifest: magic, the
// global commit seq, the main head snapshot, the refs block (every
// named branch with its head and base snapshots), and a trailing
// CRC-32C.
func encodeManifest(seq uint64, s *dbSnapshot, refs []ckptRef) []byte {
	b := []byte(manifestMagicV2)
	b = binary.AppendUvarint(b, seq)
	b = appendSnapshotMeta(b, s)
	b = binary.AppendUvarint(b, uint64(len(refs)))
	for _, r := range refs {
		b = appendString(b, r.name)
		b = binary.AppendUvarint(b, r.createdAt)
		b = appendSnapshotMeta(b, r.head)
		b = appendSnapshotMeta(b, r.base)
	}
	sum := crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli))
	return binary.LittleEndian.AppendUint32(b, sum)
}

// crcWriter passes writes through to w, folding what was written
// into a running CRC-32C and counting it.
type crcWriter struct {
	w   io.Writer
	sum uint32
	n   int64
}

func (c *crcWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.sum = crc32.Update(c.sum, crc32.MakeTable(crc32.Castagnoli), b[:n])
	c.n += int64(n)
	return n, err
}

// writeTableFile streams one table version's image to w through buf:
// magic, schema, id counters, rows in insertion order, and a trailing
// CRC-32C of everything before it. Rows are encoded straight into the
// buffer's free space, and the checksum folds in each chunk as the
// buffer flushes, so memory stays at the buffer whatever the table's
// size. It returns the bytes written to w.
func writeTableFile(w io.Writer, buf *bufio.Writer, v *tableVersion) (int64, error) {
	cw := &crcWriter{w: w}
	buf.Reset(cw)
	b := append(buf.AvailableBuffer(), tableFileMagic...)
	b = appendSchema(b, v.schema)
	b = binary.AppendVarint(b, v.nextID)
	b = binary.AppendVarint(b, v.nextAuto)
	b = binary.AppendUvarint(b, uint64(v.rows.len()))
	_, err := buf.Write(b)
	v.scan(func(id int64, row []Value) bool {
		b := binary.AppendUvarint(buf.AvailableBuffer(), uint64(id))
		_, err = buf.Write(appendRow(b, row))
		return err == nil
	})
	if err == nil {
		err = buf.Flush()
	}
	if err != nil {
		return cw.n, err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], cw.sum)
	n, err := w.Write(sum[:])
	return cw.n + int64(n), err
}

// ---------------------------------------------------------------------------
// Decoding.

// walDec is a cursor over an encoded record; the first failed read
// poisons it, so callers check err once at the end.
type walDec struct {
	b   []byte
	err error
}

func (d *walDec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("rdb: truncated or corrupt record")
	}
}

func (d *walDec) u64() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *walDec) i64() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *walDec) byte_() byte {
	if len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *walDec) str() string {
	n := d.u64()
	if uint64(len(d.b)) < n {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *walDec) value() Value {
	switch ValueKind(d.byte_()) {
	case KNull:
		return Null
	case KInt:
		return Int(d.i64())
	case KFloat:
		if len(d.b) < 8 {
			d.fail()
			return Null
		}
		bits := binary.LittleEndian.Uint64(d.b)
		d.b = d.b[8:]
		return Float(math.Float64frombits(bits))
	case KString:
		return String_(d.str())
	case KBool:
		return Bool(d.byte_() != 0)
	}
	d.fail()
	return Null
}

func (d *walDec) row() []Value {
	n := d.u64()
	if d.err != nil || n > uint64(len(d.b)) { // each value takes >= 1 byte
		d.fail()
		return nil
	}
	row := make([]Value, n)
	for i := range row {
		row[i] = d.value()
	}
	return row
}

func (d *walDec) schema() *TableSchema {
	s := &TableSchema{Name: d.str()}
	ncols := d.u64()
	if d.err != nil || ncols > uint64(len(d.b)) {
		d.fail()
		return s
	}
	s.Columns = make([]Column, ncols)
	for i := range s.Columns {
		c := &s.Columns[i]
		c.Name = d.str()
		c.Type = ColType(d.byte_())
		c.Length = int(d.u64())
		flags := d.byte_()
		c.NotNull = flags&1 != 0
		c.Unique = flags&2 != 0
		c.AutoIncrement = flags&4 != 0
		if flags&8 != 0 {
			v := d.value()
			c.Default = &v
		}
	}
	npk := d.u64()
	for i := uint64(0); i < npk && d.err == nil; i++ {
		s.PrimaryKey = append(s.PrimaryKey, d.str())
	}
	nfk := d.u64()
	for i := uint64(0); i < nfk && d.err == nil; i++ {
		col := d.str()
		ref := d.str()
		s.ForeignKeys = append(s.ForeignKeys, ForeignKey{Column: col, RefTable: ref})
	}
	return s
}

// snapMeta is one decoded snapshot descriptor from a checkpoint manifest.
type snapMeta struct {
	version uint64
	parent  uint64
	branch  string
	keys    []string
	asOf    []uint64
}

func decodeSnapshotMeta(d *walDec) snapMeta {
	m := snapMeta{version: d.u64(), parent: d.u64(), branch: d.str()}
	n := d.u64()
	if d.err != nil || n > uint64(len(d.b)) {
		d.fail()
		return m
	}
	m.keys = make([]string, 0, n)
	m.asOf = make([]uint64, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		m.keys = append(m.keys, d.str())
		m.asOf = append(m.asOf, d.u64())
	}
	return m
}

// buildReferencedBy rebuilds the FK back-reference map of a restored
// snapshot from its schemas (a branch snapshot cannot borrow the
// catalog's: it may pin tables dropped from main after the fork).
func buildReferencedBy(s *dbSnapshot) map[string][]fkBackRef {
	out := make(map[string][]fkBackRef)
	for _, key := range s.order {
		for _, fk := range s.tables[key].schema.ForeignKeys {
			ref := lowerName(fk.RefTable)
			out[ref] = append(out[ref], fkBackRef{table: key, column: fk.Column})
		}
	}
	return out
}

// restoreCheckpoint rebuilds the database — main head, global commit
// seq, and every named branch with its head and base snapshots — from
// the checkpoint manifest blob and returns the main head version it
// covers. Table files are loaded once per (key, asOf) pair and shared
// by pointer across every snapshot that references them, so the
// restored DAG keeps the table-level structural sharing that makes
// diffs and merges cheap. Runs single-threaded during Open, before the
// database is shared.
func (db *Database) restoreCheckpoint(dir string, data []byte) (uint64, error) {
	if len(data) < len(manifestMagicV2) || string(data[:len(manifestMagicV2)]) != manifestMagicV2 {
		return 0, fmt.Errorf("not a checkpoint file")
	}
	if len(data) < len(manifestMagicV2)+4 {
		return 0, fmt.Errorf("truncated checkpoint manifest")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)) != binary.LittleEndian.Uint32(tail) {
		return 0, fmt.Errorf("checkpoint manifest checksum mismatch")
	}
	d := &walDec{b: body[len(manifestMagicV2):]}
	seq := d.u64()
	main := decodeSnapshotMeta(d)
	nrefs := d.u64()
	type refMeta struct {
		name       string
		createdAt  uint64
		head, base snapMeta
	}
	var refMetas []refMeta
	for i := uint64(0); i < nrefs && d.err == nil; i++ {
		rm := refMeta{name: d.str(), createdAt: d.u64()}
		rm.head = decodeSnapshotMeta(d)
		rm.base = decodeSnapshotMeta(d)
		refMetas = append(refMetas, rm)
	}
	if d.err != nil {
		return 0, d.err
	}

	loaded := make(map[string]*tableVersion)
	load := func(key string, asOf uint64) (*tableVersion, error) {
		fname := tableFileName(key, asOf)
		if v, ok := loaded[fname]; ok {
			return v, nil
		}
		v, err := db.loadTableFile(filepath.Join(dir, fname))
		if err != nil {
			return nil, err
		}
		v.asOf = asOf
		v.owner = nil // frozen: shared across restored snapshots
		loaded[fname] = v
		return v, nil
	}

	restored := make(map[string]*tableVersion, len(main.keys))
	for i, key := range main.keys {
		v, err := load(key, main.asOf[i])
		if err != nil {
			return 0, err
		}
		if err := db.CreateTable(v.schema); err != nil {
			return 0, err
		}
		restored[key] = v
	}
	db.installSnapshot(restored, main.version, main.parent, MainBranch)

	snapByVersion := map[uint64]*dbSnapshot{main.version: db.snap.Load()}
	buildSnap := func(m snapMeta) (*dbSnapshot, error) {
		if s, ok := snapByVersion[m.version]; ok {
			return s, nil // versions are unique: same version, same snapshot
		}
		s := &dbSnapshot{
			version: m.version,
			parent:  m.parent,
			branch:  m.branch,
			tables:  make(map[string]*tableVersion, len(m.keys)),
			order:   append([]string(nil), m.keys...),
		}
		for i, key := range m.keys {
			v, err := load(key, m.asOf[i])
			if err != nil {
				return nil, err
			}
			s.tables[key] = v
		}
		s.referencedBy = buildReferencedBy(s)
		snapByVersion[m.version] = s
		return s, nil
	}
	for _, rm := range refMetas {
		head, err := buildSnap(rm.head)
		if err != nil {
			return 0, err
		}
		base, err := buildSnap(rm.base)
		if err != nil {
			return 0, err
		}
		b := &branch{name: rm.name, createdAt: rm.createdAt}
		b.head.Store(head)
		b.base.Store(base)
		db.refs[rm.name] = b
	}
	if seq > db.seq.Load() {
		db.seq.Store(seq)
	}
	db.resetHistory()
	return main.version, nil
}

// resetHistory discards snapshots retained while the restore phase
// rebuilt the catalog (those interim publishes never existed
// historically) and re-seeds the ring with the restored heads, so AS
// OF of the current version works immediately after recovery.
func (db *Database) resetHistory() {
	db.hist.reset()
	seen := map[uint64]bool{}
	rec := func(s *dbSnapshot) {
		if s != nil && !seen[s.version] {
			seen[s.version] = true
			db.hist.record(s)
		}
	}
	rec(db.snap.Load())
	for _, b := range db.refs {
		rec(b.head.Load())
		rec(b.base.Load())
	}
}

// loadTableFile reads, verifies, and decodes one per-table checkpoint
// file referenced by a manifest.
func (db *Database) loadTableFile(path string) (*tableVersion, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name := filepath.Base(path)
	if len(data) < len(tableFileMagic)+4 || string(data[:len(tableFileMagic)]) != tableFileMagic {
		return nil, fmt.Errorf("%s: not a checkpoint table file", name)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%s: checksum mismatch", name)
	}
	d := &walDec{b: body[len(tableFileMagic):]}
	v, err := db.loadTableBody(d)
	if err != nil {
		return nil, err
	}
	if d.err != nil {
		return nil, fmt.Errorf("%s: %w", name, d.err)
	}
	return v, nil
}

// loadTableBody decodes one table (schema, id counters, rows) from a
// checkpoint stream and builds its version with bulk-load transient
// nodes (frozen by the caller). It does not register the table in the
// catalog — branch snapshots may pin tables main has dropped, so
// registration is the caller's call.
func (db *Database) loadTableBody(d *walDec) (*tableVersion, error) {
	s := d.schema()
	nextID := d.i64()
	nextAuto := d.i64()
	nrows := d.u64()
	if d.err != nil {
		return nil, d.err
	}
	v := newTableVersion(s)
	o := newOwner() // bulk load: transient nodes, frozen on return
	for r := uint64(0); r < nrows && d.err == nil; r++ {
		id := int64(d.u64())
		row := d.row()
		if d.err != nil {
			break
		}
		v.rows = v.rows.withO(uint64(id), row, o)
		v.pk = v.pk.withO(v.pkIx(row), id, o)
		for si := range v.sec {
			e := &v.sec[si]
			e.idx = idxAdd(e.idx, keyOf(row[e.col:e.col+1]), id, o)
		}
	}
	v.nextID = nextID
	v.nextAuto = nextAuto
	return v, nil
}

// installSnapshot overwrites table versions and pins the snapshot's
// DAG coordinates — recovery's replacement for publish, which would
// assign fresh sequence numbers and (once persistence is attached)
// re-log the records.
func (db *Database) installSnapshot(updated map[string]*tableVersion, version, parent uint64, branchName string) {
	db.pubMu.Lock()
	defer db.pubMu.Unlock()
	cur := db.snap.Load()
	ns := &dbSnapshot{
		version:      version,
		parent:       parent,
		branch:       branchName,
		tables:       make(map[string]*tableVersion, len(cur.tables)),
		order:        cur.order,
		referencedBy: cur.referencedBy,
	}
	for k, v := range cur.tables {
		ns.tables[k] = v
	}
	for k, v := range updated {
		v.owner = nil // freeze before sharing; callers set asOf
		ns.tables[k] = v
	}
	if version > db.seq.Load() {
		db.seq.Store(version)
	}
	db.snap.Store(ns)
	db.hist.record(ns)
}

// installBranchSnapshot is installSnapshot for a branch head during
// replay: it derives the next head from the current one and moves the
// ref.
func (db *Database) installBranchSnapshot(b *branch, updated map[string]*tableVersion, seq uint64) {
	db.pubMu.Lock()
	defer db.pubMu.Unlock()
	cur := b.head.Load()
	ns := &dbSnapshot{
		version:      seq,
		parent:       cur.version,
		branch:       b.name,
		tables:       make(map[string]*tableVersion, len(cur.tables)),
		order:        cur.order,
		referencedBy: cur.referencedBy,
	}
	for k, v := range cur.tables {
		ns.tables[k] = v
	}
	for k, v := range updated {
		v.owner = nil // freeze before sharing; callers set asOf
		ns.tables[k] = v
	}
	db.seq.Store(seq)
	b.head.Store(ns)
	db.hist.record(ns)
}

// decodeChanges re-derives table versions by replaying an encoded
// change body (appendChanges) against base's versions.
func decodeChanges(d *walDec, base *dbSnapshot, seq uint64) (map[string]*tableVersion, error) {
	ntables := d.u64()
	updated := make(map[string]*tableVersion, ntables)
	o := newOwner() // replay owns every node it copies
	for t := uint64(0); t < ntables && d.err == nil; t++ {
		name := d.str()
		key := lowerName(name)
		v, ok := updated[key]
		if !ok {
			if v, ok = base.tables[key]; !ok {
				return nil, fmt.Errorf("record %d touches unknown table %q", seq, name)
			}
		}
		nchanges := d.u64()
		for c := uint64(0); c < nchanges && d.err == nil; c++ {
			op := d.byte_()
			id := int64(d.u64())
			switch op {
			case walInsert:
				row := d.row()
				if d.err != nil {
					break
				}
				nv, gotID := v.insert(row, o)
				if gotID != id {
					return nil, fmt.Errorf("record %d: replayed insert into %q got id %d, logged %d",
						seq, name, gotID, id)
				}
				v = nv
			case walUpdate:
				row := d.row()
				if d.err != nil {
					break
				}
				if _, ok := v.row(id); !ok {
					return nil, fmt.Errorf("record %d: update of missing row %d in %q", seq, id, name)
				}
				v = v.update(id, row, o)
			case walDelete:
				if _, ok := v.row(id); !ok {
					return nil, fmt.Errorf("record %d: delete of missing row %d in %q", seq, id, name)
				}
				v = v.remove(id, o)
			default:
				return nil, fmt.Errorf("record %d: unknown op %q", seq, op)
			}
		}
		updated[key] = v
	}
	if d.err != nil {
		return nil, d.err
	}
	for _, v := range updated {
		v.asOf = seq
	}
	return updated, nil
}

// replayRecord applies one WAL record during Open. Records at or
// below the recovered commit seq are stale (their effects are inside
// the checkpoint); beyond that, sequence numbers must be dense — a gap
// means a lost record and recovery refuses to guess.
func (db *Database) replayRecord(payload []byte, replayed *uint64) error {
	if len(payload) == 0 {
		return fmt.Errorf("empty record")
	}
	d := &walDec{b: payload[1:]}
	kind := payload[0]
	seq := d.u64()
	if d.err != nil {
		return d.err
	}
	have := db.seq.Load()
	if seq <= have {
		return nil // covered by the checkpoint
	}
	if seq != have+1 {
		return fmt.Errorf("sequence gap: have seq %d, next record is %d", have, seq)
	}
	switch kind {
	case recCommit:
		cur := db.snapshot()
		updated, err := decodeChanges(d, cur, seq)
		if err != nil {
			return err
		}
		db.installSnapshot(updated, seq, cur.version, MainBranch)
	case recCreate:
		s := d.schema()
		if d.err != nil {
			return d.err
		}
		// persist is still nil during replay, so CreateTable does not
		// re-log; its publishCatalog assigns seq+1 == the record's seq.
		if err := db.CreateTable(s); err != nil {
			return err
		}
	case recDrop:
		name := d.str()
		if d.err != nil {
			return d.err
		}
		if err := db.DropTable(name); err != nil {
			return err
		}
	case recBranchCreate:
		name := d.str()
		baseVersion := d.u64()
		if d.err != nil {
			return d.err
		}
		if got := db.snapshot().version; got != baseVersion {
			return fmt.Errorf("record %d: branch %q forked version %d, replay head is %d",
				seq, name, baseVersion, got)
		}
		// Like recCreate: persist is nil, so CreateBranch assigns the
		// record's seq without re-logging.
		if err := db.CreateBranch(name); err != nil {
			return err
		}
	case recBranchDrop:
		name := d.str()
		if d.err != nil {
			return d.err
		}
		if err := db.DropBranch(name); err != nil {
			return err
		}
	case recBranchCommit:
		name := d.str()
		if d.err != nil {
			return d.err
		}
		b, err := db.lookupBranch(name)
		if err != nil {
			return fmt.Errorf("record %d: %w", seq, err)
		}
		updated, err := decodeChanges(d, b.head.Load(), seq)
		if err != nil {
			return err
		}
		db.installBranchSnapshot(b, updated, seq)
	case recMerge:
		from := d.str()
		into := d.str()
		ff := d.byte_() != 0
		if d.err != nil {
			return d.err
		}
		if err := db.replayMerge(d, seq, from, into, ff); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown record kind %q", kind)
	}
	*replayed++
	return nil
}

// replayMerge re-applies a logged merge. The record's change list was
// derived against the heads as they stood when the merge published;
// replay reproduces exactly those heads (records are dense and merges
// publish under pubMu with the pinned main head verified), so the
// transplant applies without re-running the three-way.
func (db *Database) replayMerge(d *walDec, seq uint64, from, into string, ff bool) error {
	adopt := func(src *dbSnapshot) (map[string]*tableVersion, error) {
		if n := d.u64(); d.err != nil || n != 0 {
			return nil, fmt.Errorf("record %d: fast-forward merge carries changes", seq)
		}
		updated := make(map[string]*tableVersion, len(src.tables))
		for k, v := range src.tables {
			updated[k] = v
		}
		return updated, nil
	}
	switch {
	case into == MainBranch:
		b, err := db.lookupBranch(from)
		if err != nil {
			return fmt.Errorf("record %d: %w", seq, err)
		}
		cur := db.snapshot()
		var updated map[string]*tableVersion
		if ff {
			updated, err = adopt(b.head.Load())
		} else {
			updated, err = decodeChanges(d, cur, seq)
		}
		if err != nil {
			return err
		}
		db.installSnapshot(updated, seq, cur.version, MainBranch)
		ns := db.snapshot()
		b.head.Store(ns) // the branch converges on the merged head
		b.base.Store(ns)
	case from == MainBranch:
		b, err := db.lookupBranch(into)
		if err != nil {
			return fmt.Errorf("record %d: %w", seq, err)
		}
		main := db.snapshot()
		var updated map[string]*tableVersion
		if ff {
			updated, err = adopt(main)
		} else {
			updated, err = decodeChanges(d, b.head.Load(), seq)
		}
		if err != nil {
			return err
		}
		db.installBranchSnapshot(b, updated, seq)
		b.base.Store(main)
	default:
		return fmt.Errorf("record %d: merge %q into %q has no main side", seq, from, into)
	}
	return nil
}
