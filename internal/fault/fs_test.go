package fault_test

import (
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	"treesim/internal/fault"
	"treesim/internal/persist"
)

func openStore(t *testing.T, dir string, fsys persist.FS, sync bool) *persist.Store {
	t.Helper()
	s, err := persist.Open(dir, persist.Options{FS: fsys, SyncEveryAppend: sync})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func appendN(t *testing.T, s *persist.Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.Append(persist.Record{Op: persist.OpSubscribe, ID: uint64(i + 1), Expr: "/a/b"}); err != nil {
			t.Fatalf("Append %d: %v", i+1, err)
		}
	}
}

// payloadOf is a snapshot writer of a fixed payload.
func payloadOf(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

// loadPayload reads the latest snapshot's payload whole.
func loadPayload(s *persist.Store) (payload []byte, ok bool, err error) {
	ok, err = s.LoadSnapshot(func(r io.Reader, _ int) error {
		payload, err = io.ReadAll(r)
		return err
	})
	return payload, ok, err
}

// replayIDs reopens dir with a clean FS and returns the IDs of every
// record the recovered store replays.
func replayIDs(t *testing.T, dir string) []uint64 {
	t.Helper()
	s, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	var ids []uint64
	if err := s.Replay(func(r persist.Record) error {
		ids = append(ids, r.ID)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return ids
}

// TestFailStopShortWrite is the fail-stop regression: a short write
// tears the log mid-frame; the store must latch ErrStoreFailed — a
// later "successful" append would land behind the tear and be silently
// unrecoverable — and everything committed before the fault must
// survive reopen. Cut points walk the frame: 1 byte, mid-header,
// just past the header, and deep into the body.
func TestFailStopShortWrite(t *testing.T) {
	for _, cut := range []int{1, 4, 9, 20} {
		t.Run("cut", func(t *testing.T) {
			dir := t.TempDir()
			inj := fault.NewInjector()
			s := openStore(t, dir, fault.NewFS(inj), false)
			appendN(t, s, 3)

			inj.Arm(fault.PointWALWrite, fault.Rule{Mode: fault.Short, Bytes: cut})
			_, err := s.Append(persist.Record{Op: persist.OpSubscribe, ID: 99, Expr: "/x"})
			if !errors.Is(err, persist.ErrStoreFailed) || !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("faulted append err = %v, want ErrStoreFailed wrapping ErrInjected", err)
			}
			if !s.Failed() {
				t.Fatal("store not latched failed after short write")
			}
			// Every subsequent mutation is refused outright — nothing may
			// land behind the torn frame.
			if _, err := s.Append(persist.Record{Op: persist.OpSubscribe, ID: 100}); !errors.Is(err, persist.ErrStoreFailed) {
				t.Fatalf("append after fault err = %v, want ErrStoreFailed", err)
			}
			if err := s.WriteSnapshot(3, payloadOf([]byte("x"))); !errors.Is(err, persist.ErrStoreFailed) {
				t.Fatalf("snapshot after fault err = %v, want ErrStoreFailed", err)
			}
			s.Close()

			if ids := replayIDs(t, dir); len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
				t.Fatalf("recovered %v, want the 3 pre-fault records", ids)
			}
		})
	}
}

// TestFailStopFsync: with SyncEveryAppend, a failed fsync fails the
// append and latches the store. The acknowledged prefix — appends that
// returned nil — must survive reopen exactly.
func TestFailStopFsync(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector()
	s := openStore(t, dir, fault.NewFS(inj), true)
	appendN(t, s, 2)

	inj.Arm(fault.PointWALSync, fault.Rule{Mode: fault.Fail})
	if _, err := s.Append(persist.Record{Op: persist.OpSubscribe, ID: 50}); !errors.Is(err, persist.ErrStoreFailed) {
		t.Fatalf("append with failed fsync err = %v, want ErrStoreFailed", err)
	}
	if _, err := s.Append(persist.Record{Op: persist.OpSubscribe, ID: 51}); !errors.Is(err, persist.ErrStoreFailed) {
		t.Fatalf("append after fault err = %v, want ErrStoreFailed", err)
	}
	s.Close()

	ids := replayIDs(t, dir)
	if len(ids) < 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("recovered %v, want at least the 2 acknowledged records first", ids)
	}
	// The unacknowledged record may or may not have reached the page
	// cache, but nothing beyond it can exist.
	if len(ids) > 3 || (len(ids) == 3 && ids[2] != 50) {
		t.Fatalf("recovered %v: phantom records after the fault", ids)
	}
}

// TestENOSPCMidSnapshot: a snapshot that hits ENOSPC writing its temp
// file fails the store, but the previous snapshot and the full WAL are
// untouched — recovery sees exactly the pre-fault state.
func TestENOSPCMidSnapshot(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector()
	s := openStore(t, dir, fault.NewFS(inj), false)
	appendN(t, s, 3)

	inj.Arm(fault.PointSnapWrite, fault.Rule{Mode: fault.NoSpace})
	err := s.WriteSnapshot(3, payloadOf([]byte("state")))
	if !errors.Is(err, persist.ErrStoreFailed) || !errors.Is(err, fault.ErrNoSpace) {
		t.Fatalf("snapshot err = %v, want ErrStoreFailed wrapping ErrNoSpace", err)
	}
	if _, err := s.Append(persist.Record{Op: persist.OpSubscribe, ID: 9}); !errors.Is(err, persist.ErrStoreFailed) {
		t.Fatalf("append after snapshot fault err = %v, want ErrStoreFailed", err)
	}
	s.Close()

	s2, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if _, ok, err := loadPayload(s2); err != nil || ok {
		t.Fatalf("LoadSnapshot after failed publish: ok=%v err=%v, want no snapshot", ok, err)
	}
	if ids := replayIDs(t, dir); len(ids) != 3 {
		t.Fatalf("recovered %v, want all 3 WAL records", ids)
	}
}

// TestSnapshotRenameFailure: the rename is the snapshot commit point; a
// failed rename keeps the old state whole and fails the store.
func TestSnapshotRenameFailure(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector()
	s := openStore(t, dir, fault.NewFS(inj), false)
	appendN(t, s, 2)
	if err := s.WriteSnapshot(2, payloadOf([]byte("v1"))); err != nil {
		t.Fatalf("first snapshot: %v", err)
	}
	appendN2 := func(id uint64) {
		if _, err := s.Append(persist.Record{Op: persist.OpSubscribe, ID: id, Expr: "/y"}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	appendN2(7)

	inj.Arm(fault.PointSnapRename, fault.Rule{Mode: fault.Fail})
	if err := s.WriteSnapshot(3, payloadOf([]byte("v2"))); !errors.Is(err, persist.ErrStoreFailed) {
		t.Fatalf("snapshot err = %v, want ErrStoreFailed", err)
	}
	s.Close()

	s2, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	payload, ok, err := loadPayload(s2)
	if err != nil || !ok || string(payload) != "v1" {
		t.Fatalf("LoadSnapshot = %q ok=%v err=%v, want the v1 snapshot", payload, ok, err)
	}
	var ids []uint64
	if err := s2.Replay(func(r persist.Record) error { ids = append(ids, r.ID); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 7 {
		t.Fatalf("replayed %v over v1, want just record 7", ids)
	}
	// The aborted temp file must not have leaked into the data dir
	// under the snapshot's name.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".snapshot-") {
			continue // debris from the failed publish is fine; it is never read
		}
		if e.Name() != "snapshot.snap" && e.Name() != "wal.log" {
			t.Errorf("unexpected file %s", e.Name())
		}
	}
}

// TestWALRewriteFaults: a partial snapshot — its cut at record 3 of 5 —
// publishes, then rewrites the log to hold records 4 and 5 alone. A
// fault at each filesystem step of that rewrite (the temp file's write,
// its fsync, the rename over wal.log) fails the store after the
// snapshot's rename, the crash the LSN watermark covers: the directory
// recovers to the snapshot and exactly records 4 and 5, as it does
// without a fault.
func TestWALRewriteFaults(t *testing.T) {
	for _, c := range []struct {
		point string
		mode  fault.Mode
	}{{"none", fault.Fail}, {fault.PointWALRewriteWrite, fault.Short}, {fault.PointWALRewriteWrite, fault.NoSpace},
		{fault.PointWALRewriteSync, fault.Fail}, {fault.PointWALRewriteRename, fault.Fail}} {
		t.Run(c.point+":"+c.mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			inj := fault.NewInjector()
			s := openStore(t, dir, fault.NewFS(inj), false)
			appendN(t, s, 5)
			inj.Arm(c.point, fault.Rule{Mode: c.mode})
			err := s.WriteSnapshot(3, payloadOf([]byte("covers-3")))
			if fired := !inj.Armed(); fired != (err != nil) || fired && !errors.Is(err, persist.ErrStoreFailed) {
				t.Fatalf("snapshot err = %v with the fault fired %v, want ErrStoreFailed exactly when it fired", err, fired)
			}
			if c.point != "none" && inj.Armed() {
				t.Fatalf("%s never fired", c.point)
			}
			s.Close()

			s2, err := persist.Open(dir, persist.Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			payload, ok, err := loadPayload(s2)
			s2.Close()
			if err != nil || !ok || string(payload) != "covers-3" {
				t.Fatalf("LoadSnapshot = %q ok=%v err=%v, want covers-3", payload, ok, err)
			}
			if ids := replayIDs(t, dir); len(ids) != 2 || ids[0] != 4 || ids[1] != 5 {
				t.Fatalf("replayed %v over the snapshot, want [4 5]", ids)
			}
		})
	}
}

// TestWALTruncateFailure: a snapshot that publishes but cannot truncate
// the covered WAL prefix latches the store; the stale records are
// skipped by the watermark on replay, so the state is still exact.
func TestWALTruncateFailure(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector()
	s := openStore(t, dir, fault.NewFS(inj), false)
	appendN(t, s, 3)

	inj.Arm(fault.PointWALTruncate, fault.Rule{Mode: fault.Fail})
	if err := s.WriteSnapshot(3, payloadOf([]byte("covers-3"))); !errors.Is(err, persist.ErrStoreFailed) {
		t.Fatalf("snapshot err = %v, want ErrStoreFailed", err)
	}
	s.Close()

	s2, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	payload, ok, err := loadPayload(s2)
	if err != nil || !ok || string(payload) != "covers-3" {
		t.Fatalf("LoadSnapshot = %q ok=%v err=%v", payload, ok, err)
	}
	var ids []uint64
	if err := s2.Replay(func(r persist.Record) error { ids = append(ids, r.ID); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("replayed %v, want none (snapshot covers the whole log)", ids)
	}
}

// trackFS wraps a persist.FS and records whether the WAL file was
// closed — the observability hook for the Close error-path test.
type trackFS struct {
	persist.FS
	walClosed *bool
}

func (f trackFS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(name, "wal.log") {
		return trackFile{File: file, closed: f.walClosed}, nil
	}
	return file, nil
}

type trackFile struct {
	persist.File
	closed *bool
}

func (f trackFile) Close() error {
	*f.closed = true
	return f.File.Close()
}

// TestCloseAfterSyncFailure pins the Close contract: when the final
// fsync fails, the file is still closed and the sync error is reported
// unmasked.
func TestCloseAfterSyncFailure(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector()
	var walClosed bool
	fsys := trackFS{FS: fault.NewFS(inj), walClosed: &walClosed}
	s := openStore(t, dir, fsys, false)
	appendN(t, s, 1)

	inj.Arm(fault.PointWALSync, fault.Rule{Mode: fault.Fail})
	err := s.Close()
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Close err = %v, want the injected sync error", err)
	}
	if !walClosed {
		t.Fatal("Close returned the sync error but left the file open")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

// TestCloseSkipsSyncWhenFailed: once the store has latched fail-stop,
// Close must not retry fsync (the retry would falsely report the lost
// pages as flushed) — it just closes the file.
func TestCloseSkipsSyncWhenFailed(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector()
	var walClosed bool
	fsys := trackFS{FS: fault.NewFS(inj), walClosed: &walClosed}
	s := openStore(t, dir, fsys, true)
	appendN(t, s, 1)

	inj.Arm(fault.PointWALSync, fault.Rule{Mode: fault.Fail})
	if _, err := s.Append(persist.Record{Op: persist.OpSubscribe, ID: 5}); !errors.Is(err, persist.ErrStoreFailed) {
		t.Fatalf("append err = %v, want ErrStoreFailed", err)
	}
	// Re-arm: if Close retried the sync, this rule would fire and the
	// injector would show a second firing.
	inj.Arm(fault.PointWALSync, fault.Rule{Mode: fault.Fail})
	if err := s.Close(); err != nil {
		t.Fatalf("Close on failed store = %v, want nil (no sync retry, clean close)", err)
	}
	if !walClosed {
		t.Fatal("file not closed")
	}
	if !inj.Armed() {
		t.Fatal("Close retried fsync on a failed store (fsyncgate)")
	}
}

// TestParseSpec round-trips the -fault-disk grammar.
func TestParseSpec(t *testing.T) {
	in, err := fault.ParseSpec("wal.sync:fail@2, snapshot.rename:enospc")
	if err != nil {
		t.Fatal(err)
	}
	if !in.Armed() {
		t.Fatal("nothing armed")
	}
	for _, bad := range []string{"wal.sync", "wal.sync:explode", "wal.sync:fail@0", ":fail"} {
		if _, err := fault.ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}
