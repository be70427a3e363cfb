package persist

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func appendSubs(t *testing.T, s *Store, ids ...uint64) {
	t.Helper()
	for _, id := range ids {
		if _, err := s.Append(Record{Op: OpSubscribe, ID: id, Expr: "/x"}); err != nil {
			t.Fatal(err)
		}
	}
}

// logSize is the size of a log holding appendSubs's records ids.
func logSize(t *testing.T, ids ...uint64) int64 {
	t.Helper()
	var f memFile
	for _, id := range ids {
		if _, err := appendWAL(&f, id, Record{Op: OpSubscribe, ID: id, Expr: "/x"}); err != nil {
			t.Fatal(err)
		}
	}
	return int64(len(f.data))
}

// walSize is the size of dir's wal.log.
func walSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func replayedIDs(t *testing.T, s *Store) []uint64 {
	t.Helper()
	var ids []uint64
	for _, r := range replayAll(t, s) {
		if r.LSN != r.ID {
			t.Fatalf("record %d replayed at LSN %d", r.ID, r.LSN)
		}
		ids = append(ids, r.ID)
	}
	return ids
}

// TestPartialSnapshotCompactsWAL: records appended while a snapshot
// streams (its cut at LSN 3) land above its watermark. Publishing it
// rewrites the log to hold exactly those and the ones appended before the
// write began, and the store appends on behind them.
func TestPartialSnapshotCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	appendSubs(t, s, 1, 2, 3, 4, 5)
	if err := s.WriteSnapshot(3, func(w io.Writer) error {
		appendSubs(t, s, 6, 7) // appends do not wait for the snapshot
		_, err := w.Write([]byte("covers-1-3"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.Pending(); got != 4 {
		t.Fatalf("Pending = %d, want 4", got)
	}
	if got, want := walSize(t, dir), logSize(t, 4, 5, 6, 7); got != want {
		t.Fatalf("wal.log holds %d bytes, want the 4 uncovered records, %d", got, want)
	}
	appendSubs(t, s, 8)
	s.Close()

	s2 := openT(t, dir)
	defer s2.Close()
	if got, want := replayedIDs(t, s2), []uint64{4, 5, 6, 7, 8}; !slices.Equal(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	if got, ok, err := loadPayload(s2); err != nil || !ok || string(got) != "covers-1-3" {
		t.Fatalf("LoadSnapshot = %q ok=%v err=%v", got, ok, err)
	}
	// After a reopen, a partial snapshot cuts the rewritten log again (a
	// recovered engine's cuts start at the tail it reopened at).
	appendSubs(t, s2, 9, 10)
	if err := s2.WriteSnapshot(9, payloadOf([]byte("covers-1-9"))); err != nil {
		t.Fatal(err)
	}
	if got, want := walSize(t, dir), logSize(t, 10); got != want {
		t.Fatalf("wal.log holds %d bytes, want record 10, %d", got, want)
	}
	s2.Close()
	s3 := openT(t, dir)
	defer s3.Close()
	if got, want := replayedIDs(t, s3), []uint64{10}; !slices.Equal(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
}

// TestOlderCutIsDropped: of two snapshots racing, the one whose cut is
// older than the published watermark is discarded, not renamed over it.
func TestOlderCutIsDropped(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	appendSubs(t, s, 1, 2, 3)
	if err := s.WriteSnapshot(1, func(w io.Writer) error {
		if err := s.WriteSnapshot(3, payloadOf([]byte("covers-3"))); err != nil {
			return err
		}
		_, err := w.Write([]byte("covers-1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openT(t, dir)
	defer s2.Close()
	if got, ok, err := loadPayload(s2); err != nil || !ok || string(got) != "covers-3" {
		t.Fatalf("LoadSnapshot = %q ok=%v err=%v, want covers-3", got, ok, err)
	}
	if ids := replayedIDs(t, s2); len(ids) != 0 {
		t.Fatalf("replayed %v, want none", ids)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != snapshotName && e.Name() != walName {
			t.Errorf("unexpected file in data dir: %s", e.Name())
		}
	}
}

// blockFS stalls the Sync of a snapshot's temp file until release is
// closed, telling synced when it has started.
type blockFS struct {
	OSFS
	synced, release chan struct{}
}

type blockFile struct {
	File
	fs *blockFS
}

func (f blockFS) CreateTemp(dir, pattern string) (File, error) {
	file, err := f.OSFS.CreateTemp(dir, pattern)
	if err != nil || !strings.HasPrefix(pattern, ".snapshot") {
		return file, err
	}
	return blockFile{file, &f}, nil
}

func (f blockFile) Sync() error {
	f.fs.synced <- struct{}{}
	<-f.fs.release
	return f.File.Sync()
}

// TestAppendDuringSnapshotSync: the store's lock is not held while the
// snapshot file is written and fsynced, so an append issued while its
// fsync stalls completes.
func TestAppendDuringSnapshotSync(t *testing.T) {
	fsys := blockFS{synced: make(chan struct{}), release: make(chan struct{})}
	s, err := Open(t.TempDir(), Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendSubs(t, s, 1)
	done := make(chan error)
	go func() { done <- s.WriteSnapshot(1, payloadOf([]byte("covers-1"))) }()
	<-fsys.synced
	appended := make(chan error)
	go func() {
		_, err := s.Append(Record{Op: OpSubscribe, ID: 2, Expr: "/x"})
		appended <- err
	}()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Append waited on the snapshot's fsync")
	}
	close(fsys.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
}

// TestCorruptSnapshotFailsLoad: a torn or bit-flipped snapshot file
// fails Open and LoadSnapshot, and no byte of it reaches the reader.
func TestCorruptSnapshotFailsLoad(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	appendSubs(t, s, 1, 2)
	payload := []byte("a payload long enough to cut in a few places")
	if err := s.WriteSnapshot(2, payloadOf(payload)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, snapshotName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := 16 + len(payload) + 12; len(good) != want {
		t.Fatalf("snapshot file is %d bytes, want %d", len(good), want)
	}
	var bad [][]byte
	for _, cut := range []int{0, 7, 15, 16, 30, len(good) - 12, len(good) - 1} {
		bad = append(bad, good[:cut])
	}
	for _, at := range []int{0, 7, 8, 15, 16, 40, len(good) - 12, len(good) - 1} {
		flipped := append([]byte(nil), good...)
		flipped[at] ^= 0x10
		bad = append(bad, flipped)
	}
	for i, data := range bad {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(dir, Options{}); err == nil {
			s.Close()
			t.Errorf("case %d: Open accepted a corrupt snapshot", i)
		}
		_, _, err := readSnapshot(OSFS{}, path, func(io.Reader, int) error {
			t.Errorf("case %d: a corrupt snapshot reached the reader", i)
			return nil
		})
		if err == nil {
			t.Errorf("case %d: LoadSnapshot accepted a corrupt snapshot", i)
		}
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	if got, ok, err := loadPayload(s2); err != nil || !ok || string(got) != string(payload) {
		t.Fatalf("LoadSnapshot = %q ok=%v err=%v", got, ok, err)
	}
}
