package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// collect replays the log at dir into a slice of payload copies.
func collect(t *testing.T, dir string) (payloads [][]byte, torn bool) {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	torn, err = l.Replay(func(p []byte) error {
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return payloads, torn
}

func TestAppendSyncReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("alpha"), []byte(""), []byte("gamma with a longer payload")}
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Records != 3 || st.Fsyncs != 1 || st.Segments != 1 {
		t.Fatalf("stats = %+v, want 3 records / 1 fsync / 1 segment", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, torn := collect(t, dir)
	if torn {
		t.Fatal("clean log reported torn")
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("frame %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestTornFinalFrameTruncated(t *testing.T) {
	for _, cut := range []int{1, 3, 7, 9} { // inside payload and inside header
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append([]byte("first")); err != nil {
				t.Fatal(err)
			}
			if err := l.Append([]byte("second-longer")); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, segName(1))
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()-int64(cut)); err != nil {
				t.Fatal(err)
			}

			got, torn := collect(t, dir)
			if !torn {
				t.Fatal("truncated tail not reported as torn")
			}
			if len(got) != 1 || string(got[0]) != "first" {
				t.Fatalf("replay after tear = %q, want just [first]", got)
			}
			// The torn bytes must be gone: a second replay is clean and an
			// append continues the log seamlessly.
			l2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if torn2, err := l2.Replay(nil); err != nil || torn2 {
				t.Fatalf("second replay torn=%v err=%v, want clean", torn2, err)
			}
			if err := l2.Append([]byte("third")); err != nil {
				t.Fatal(err)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			got, torn = collect(t, dir)
			if torn || len(got) != 2 || string(got[1]) != "third" {
				t.Fatalf("replay after repair+append = %q torn=%v", got, torn)
			}
		})
	}
}

func TestCorruptPayloadTreatedAsTorn(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("keep")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("corrupt-me")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // flip a bit in the final payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, torn := collect(t, dir)
	if !torn || len(got) != 1 || string(got[0]) != "keep" {
		t.Fatalf("replay of corrupted tail = %q torn=%v, want [keep] torn", got, torn)
	}
}

func TestTornSealedSegmentIsHardError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the sealed first segment: that is corruption, not a crash
	// artifact, and replay must refuse rather than silently drop data.
	path := filepath.Join(dir, segName(1))
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-2); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := l2.Replay(nil); err == nil {
		t.Fatal("replay of a torn sealed segment succeeded, want error")
	}
}

func TestRotateAndRemoveBefore(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("old-1")); err != nil {
		t.Fatal(err)
	}
	seg, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if seg != 2 {
		t.Fatalf("Rotate returned %d, want 2", seg)
	}
	if err := l.Append([]byte("new-1")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments != 2 {
		t.Fatalf("segments = %d, want 2", st.Segments)
	}
	if err := l.RemoveBefore(seg); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments != 1 {
		t.Fatalf("segments after RemoveBefore = %d, want 1", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, torn := collect(t, dir)
	if torn || len(got) != 1 || string(got[0]) != "new-1" {
		t.Fatalf("replay after truncation = %q torn=%v, want [new-1]", got, torn)
	}
}

func TestReplayRequiredBeforeAppendOnExistingLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("seed")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.Append([]byte("blind")); err == nil {
		t.Fatal("Append on an unvalidated non-empty log succeeded, want error")
	}
	if _, err := l2.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if err := l2.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
}

func TestReplayAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for s := 0; s < 3; s++ {
		for i := 0; i < 4; i++ {
			p := fmt.Sprintf("seg%d-rec%d", s, i)
			want = append(want, p)
			if err := l.Append([]byte(p)); err != nil {
				t.Fatal(err)
			}
		}
		if s < 2 {
			if _, err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, torn := collect(t, dir)
	if torn {
		t.Fatal("multi-segment replay reported torn")
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("frame %d = %q, want %q (segment ordering broken)", i, got[i], want[i])
		}
	}
}

func TestReplayCallbackErrorAborts(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	calls := 0
	if _, err := l2.Replay(func(p []byte) error {
		calls++
		if calls == 2 {
			return fmt.Errorf("boom")
		}
		return nil
	}); err == nil {
		t.Fatal("replay swallowed the callback error")
	}
	if calls != 2 {
		t.Fatalf("callback ran %d times after error, want 2", calls)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.db")
	if err := WriteFileAtomic(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2-longer")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "v2-longer" {
		t.Fatalf("content = %q, want v2-longer", data)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries after atomic writes, want 1", len(entries))
	}
}

// TestWALAtomicWriteFailureKeepsOldFile fails the writer callback
// after K bytes have reached the temporary file: the error comes back,
// the old file keeps its bytes, and no temporary file is left.
func TestWALAtomicWriteFailureKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt-t-1.tbl")
	if err := WriteFileAtomic(path, []byte("old image")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	for _, k := range []int{0, 1, 4096, 100_000} {
		err := WriteFileAtomicFunc(path, func(w io.Writer) error {
			if _, err := w.Write(bytes.Repeat([]byte{'x'}, k)); err != nil {
				return err
			}
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("K=%d: error %v, want %v", k, err, boom)
		}
		if data, err := os.ReadFile(path); err != nil || string(data) != "old image" {
			t.Fatalf("K=%d: old file now %q (%v)", k, data, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("K=%d: %d directory entries after a failed write, want 1", k, len(entries))
		}
	}
	// A streamed write that succeeds replaces the file whole.
	if err := WriteFileAtomicFunc(path, func(w io.Writer) error {
		for _, chunk := range []string{"new ", "image"} {
			if _, err := io.WriteString(w, chunk); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "new image" {
		t.Fatalf("after a streamed write: %q (%v)", data, err)
	}
}

func TestOpenIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.db"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("y"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if st := l.Stats(); st.Bytes != 0 || st.Segments != 1 {
		t.Fatalf("stats over foreign files = %+v, want empty log", st)
	}
}

func TestOversizedLengthPrefixIsTorn(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Append a frame header claiming a payload far beyond the cap.
	f, err := os.OpenFile(filepath.Join(dir, segName(1)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, torn := collect(t, dir)
	if !torn || len(got) != 1 || string(got[0]) != "good" {
		t.Fatalf("replay = %q torn=%v, want [good] torn", got, torn)
	}
}
