// Package wal implements the byte-level mechanics of the write-ahead
// log the rdb engine persists committed operations to: an append-only
// sequence of segment files holding checksummed, length-prefixed
// frames, plus the atomic-rename file writer the checkpoint protocol
// uses. The package knows nothing about what a frame contains — rdb
// owns the logical record encoding — which keeps the dependency
// one-way (rdb imports wal, never the reverse) and makes the log
// independently testable.
//
// Frame format (little endian):
//
//	uint32 payload length | uint32 CRC-32C of the payload | payload
//
// Segments are named wal-%016x.log and numbered monotonically. A
// crash can tear the final frame of the newest segment (a partial
// write that never fsynced); Replay tolerates exactly that — the torn
// tail is truncated away and replay stops — while a short or
// corrupted frame in any sealed (non-final) segment is reported as an
// error, because sealed segments were fsynced before the next one was
// opened.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

const (
	frameHeaderSize = 8
	segPrefix       = "wal-"
	segSuffix       = ".log"
	// maxFrameSize bounds a single payload; a larger length prefix is
	// treated as corruption (or a torn header) rather than allocated.
	maxFrameSize = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	// Bytes is the total size of all live segment files; Segments the
	// number of live segment files.
	Bytes    int64
	Segments uint64
	// Records counts frames appended through this Log instance;
	// Fsyncs counts Sync calls that reached the disk.
	Records uint64
	Fsyncs  uint64
}

// Log is an append-only segmented frame log rooted at one directory.
// All methods are safe for concurrent use.
type Log struct {
	dir string

	mu       sync.Mutex
	f        *os.File // current segment, nil until first write
	segIndex uint64   // index of the current (newest) segment
	segs     []uint64 // live segment indexes, ascending
	segSize  int64    // bytes in the current segment
	bytes    int64    // bytes across all live segments
	records  uint64
	fsyncs   uint64
	replayed bool
}

func segName(index uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, index, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	idx, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 16, 64)
	if err != nil {
		return 0, false
	}
	return idx, true
}

// Open prepares a log rooted at dir, creating the directory when
// missing. When the directory may hold segments from a prior run,
// Replay must be called before the first Append: replay validates the
// existing frames and truncates a torn tail so new frames are never
// appended after garbage.
func Open(dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	l := &Log{dir: dir, segIndex: 1}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", dir, err)
	}
	for _, e := range entries {
		idx, ok := parseSegName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		l.segs = append(l.segs, idx)
		l.bytes += info.Size()
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i] < l.segs[j] })
	if n := len(l.segs); n > 0 {
		l.segIndex = l.segs[n-1]
		info, err := os.Stat(filepath.Join(dir, segName(l.segIndex)))
		if err != nil {
			return nil, err
		}
		l.segSize = info.Size()
	} else {
		l.segs = []uint64{1}
		l.replayed = true // a fresh directory has nothing to validate
	}
	return l, nil
}

// Dir returns the log's root directory.
func (l *Log) Dir() string { return l.dir }

// Replay streams every valid frame payload, in segment order then
// file order, through fn; fn returning an error aborts the replay. A
// torn final frame in the newest segment is truncated away and
// reported through torn; a short or corrupt frame anywhere else is an
// error. After a successful replay the log is ready for Append.
func (l *Log) Replay(fn func(payload []byte) error) (torn bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		return false, fmt.Errorf("wal: Replay after Append")
	}
	return l.replayLocked(fn)
}

// ReplayParallel is Replay with segment-level parallelism: sealed
// segments are read and CRC-verified concurrently (bounded by
// GOMAXPROCS workers), while fn still observes every payload in exact
// Replay order — segment order then file order — because application
// waits on the per-segment results in sequence. Torn-tail handling,
// the mid-log truncation error, and the returned flags are identical
// to Replay; with one segment it degrades to the sequential path.
// Memory is bounded by the in-flight window of decoded segments
// (worker count × segment size), released as each segment applies.
func (l *Log) ReplayParallel(fn func(payload []byte) error) (torn bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		return false, fmt.Errorf("wal: Replay after Append")
	}
	if len(l.segs) <= 1 || runtime.GOMAXPROCS(0) == 1 {
		// Nothing to overlap — one segment, or one CPU (where the
		// collect-then-apply buffering is pure overhead). Reuse the
		// sequential logic without re-entering the lock.
		return l.replayLocked(fn)
	}

	type segResult struct {
		payloads [][]byte
		valid    int64
		torn     bool
		err      error
	}
	results := make([]chan segResult, len(l.segs))
	for i := range results {
		results[i] = make(chan segResult, 1)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(l.segs) {
		workers = len(l.segs)
	}
	sem := make(chan struct{}, workers)
	for i, idx := range l.segs {
		i, idx := i, idx
		sem <- struct{}{}
		go func() {
			defer func() { <-sem }()
			var r segResult
			r.valid, r.torn, r.err = replaySegment(
				filepath.Join(l.dir, segName(idx)),
				func(payload []byte) error {
					// replaySegment hands out slices of its own read
					// buffer, so collecting without copying is safe.
					r.payloads = append(r.payloads, payload)
					return nil
				})
			results[i] <- r
		}()
	}

	for i, idx := range l.segs {
		last := i == len(l.segs)-1
		r := <-results[i]
		results[i] = nil // free the decoded segment once applied
		if r.err != nil {
			err = r.err
		}
		if err != nil {
			continue // drain remaining workers, report the first error
		}
		if r.torn && !last {
			err = fmt.Errorf("wal: segment %s is truncated mid-log", segName(idx))
			continue
		}
		for _, payload := range r.payloads {
			if ferr := fn(payload); ferr != nil {
				err = ferr
				break
			}
		}
		if err != nil {
			continue
		}
		if r.torn {
			path := filepath.Join(l.dir, segName(idx))
			info, statErr := os.Stat(path)
			if statErr != nil {
				err = statErr
				continue
			}
			if terr := os.Truncate(path, r.valid); terr != nil {
				err = fmt.Errorf("wal: truncating torn tail of %s: %w", segName(idx), terr)
				continue
			}
			l.bytes -= info.Size() - r.valid
			l.segSize = r.valid
			torn = true
		}
	}
	if err != nil {
		return false, err
	}
	l.replayed = true
	return torn, nil
}

// replayLocked is Replay's body, shared with ReplayParallel's
// single-segment fallback. Caller holds l.mu.
func (l *Log) replayLocked(fn func(payload []byte) error) (torn bool, err error) {
	for i, idx := range l.segs {
		last := i == len(l.segs)-1
		path := filepath.Join(l.dir, segName(idx))
		valid, segTorn, serr := replaySegment(path, fn)
		if serr != nil {
			return false, serr
		}
		if segTorn {
			if !last {
				return false, fmt.Errorf("wal: segment %s is truncated mid-log", segName(idx))
			}
			info, statErr := os.Stat(path)
			if statErr != nil {
				return false, statErr
			}
			if err := os.Truncate(path, valid); err != nil {
				return false, fmt.Errorf("wal: truncating torn tail of %s: %w", segName(idx), err)
			}
			l.bytes -= info.Size() - valid
			l.segSize = valid
			torn = true
		}
	}
	l.replayed = true
	return torn, nil
}

// replaySegment reads one segment file, returning the offset of the
// last valid frame end and whether the tail beyond it is torn. A
// missing segment file plays as empty (Rotate creates segments
// lazily).
func replaySegment(path string, fn func(payload []byte) error) (valid int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, err
	}
	off := int64(0)
	for int64(len(data))-off >= frameHeaderSize {
		length := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if length > maxFrameSize || int64(length) > int64(len(data))-off-frameHeaderSize {
			return off, true, nil
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+int64(length)]
		if crc32.Checksum(payload, castagnoli) != sum {
			return off, true, nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return off, false, err
			}
		}
		off += frameHeaderSize + int64(length)
	}
	return off, off < int64(len(data)), nil
}

// ensureSegment opens the current segment for appending.
func (l *Log) ensureSegment() error {
	if l.f != nil {
		return nil
	}
	if !l.replayed {
		return fmt.Errorf("wal: Append before Replay on a non-empty directory")
	}
	f, err := os.OpenFile(filepath.Join(l.dir, segName(l.segIndex)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	return syncDir(l.dir)
}

// Append writes one frame. The frame is buffered by the OS until the
// next Sync; callers must Sync before acknowledging the payload as
// durable.
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.ensureSegment(); err != nil {
		return err
	}
	frame := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeaderSize:], payload)
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("wal: appending frame: %w", err)
	}
	l.segSize += int64(len(frame))
	l.bytes += int64(len(frame))
	l.records++
	return nil
}

// Sync flushes appended frames to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.fsyncs++
	return nil
}

// Rotate seals the current segment (fsync + close) and directs future
// appends to a fresh one, returning the new segment's index. The
// checkpoint protocol rotates first so every record after the
// checkpointed state lives in segments >= the returned index.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return 0, err
		}
		l.fsyncs++
		if err := l.f.Close(); err != nil {
			return 0, err
		}
		l.f = nil
	}
	l.segIndex++
	l.segs = append(l.segs, l.segIndex)
	l.segSize = 0
	l.replayed = true
	return l.segIndex, nil
}

// RemoveBefore deletes every sealed segment with an index below keep —
// safe once a checkpoint covering their records is durable.
func (l *Log) RemoveBefore(keep uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var kept []uint64
	for _, idx := range l.segs {
		if idx >= keep {
			kept = append(kept, idx)
			continue
		}
		path := filepath.Join(l.dir, segName(idx))
		info, err := os.Stat(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return err
		}
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("wal: removing %s: %w", segName(idx), err)
		}
		l.bytes -= info.Size()
	}
	if kept == nil {
		kept = []uint64{l.segIndex}
	}
	l.segs = kept
	return syncDir(l.dir)
}

// Close fsyncs and closes the current segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.fsyncs++
	err := l.f.Close()
	l.f = nil
	return err
}

// Stats returns the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Bytes:    l.bytes,
		Segments: uint64(len(l.segs)),
		Records:  l.records,
		Fsyncs:   l.fsyncs,
	}
}

// ErrDirSync marks a failed atomic write whose rename already landed:
// the new file is in place, but the directory fsync that makes its
// name durable failed.
var ErrDirSync = errors.New("wal: directory fsync after rename")

// WriteFileAtomic durably replaces path with data; see
// WriteFileAtomicFunc.
func WriteFileAtomic(path string, data []byte) error {
	return WriteFileAtomicFunc(path, func(w io.Writer) error { _, err := w.Write(data); return err })
}

// WriteFileAtomicFunc durably replaces path with what write writes:
// write streams into a temporary file in the same directory, which is
// fsynced and renamed over the target before the directory is fsynced.
// A crash leaves either the old complete file or the new complete
// file, never a mixture. An error from write or from any step up to
// the rename removes the temporary file and leaves the old file
// untouched; only a failed directory fsync, reported as ErrDirSync,
// comes after the new file has replaced it.
func WriteFileAtomicFunc(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if err := write(tmp); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("%w: %w", ErrDirSync, err)
	}
	return nil
}

// syncDir fsyncs a directory so entry creations/renames are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errorsIsInval(err) {
		return err
	}
	return nil
}

// errorsIsInval reports the EINVAL some filesystems return for
// directory fsync (notably certain overlay/network mounts); treating
// it as success matches what other WAL implementations do.
func errorsIsInval(err error) bool {
	return strings.Contains(err.Error(), "invalid argument")
}
