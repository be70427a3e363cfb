package persist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"treesim/internal/telemetry"
)

// ErrStoreFailed is latched after the first WAL or snapshot I/O error.
// The store is fail-stop: a torn mid-log frame followed by "successful"
// later appends would make every subsequent committed record
// unrecoverable (scanWAL truncates at the first bad frame), and
// retrying fsync after a failure silently drops the dirty pages the
// kernel already gave up on. So after any I/O error the store refuses
// further appends and snapshots; everything committed before the fault
// survives reopen, and the caller degrades to serving what it has.
var ErrStoreFailed = errors.New("persist: store failed (fail-stop after I/O error)")

// File names inside a Store's data directory.
const (
	snapshotName = "snapshot.snap"
	walName      = "wal.log"
)

// Options configures a Store.
type Options struct {
	// SyncEveryAppend fsyncs the WAL after each record. Off, a record
	// survives process death (SIGKILL) the moment Append returns — the
	// page cache holds it — but can be lost to a machine crash until the
	// next snapshot or sync. On, every committed churn operation also
	// survives power loss, at the cost of one fsync per operation on the
	// subscribe path.
	SyncEveryAppend bool
	// Telemetry is the metrics registry the store reports WAL and
	// snapshot activity into (nil: a private registry — counters still
	// work, nobody scrapes them).
	Telemetry *telemetry.Registry
	// FS is the filesystem the store persists through (nil: the real
	// one). Tests inject fault-injecting implementations here.
	FS FS
}

// storeMetrics are the store's registry handles. Names are part of the
// stable observability surface (README "Observability"); CI's
// chaos-smoke asserts on treesim_wal_replayed_records_total.
type storeMetrics struct {
	appends     *telemetry.Counter
	appendBytes *telemetry.Counter
	fsyncNS     *telemetry.Histogram
	replayed    *telemetry.Counter
	snapWrites  *telemetry.Counter
	snapBytes   *telemetry.Counter
	snapNS      *telemetry.Histogram
	snapLoads   *telemetry.Counter
}

func newStoreMetrics(reg *telemetry.Registry) storeMetrics {
	lb := telemetry.DefaultLatencyBuckets()
	return storeMetrics{
		appends:     reg.Counter("treesim_wal_appends_total", "WAL records appended."),
		appendBytes: reg.Counter("treesim_wal_append_bytes_total", "Bytes appended to the WAL (frame headers included)."),
		fsyncNS:     reg.Histogram("treesim_wal_fsync_ns", "WAL fsync latency, nanoseconds.", lb),
		replayed:    reg.Counter("treesim_wal_replayed_records_total", "WAL records replayed into the engine during recovery."),
		snapWrites:  reg.Counter("treesim_snapshot_writes_total", "Snapshots published."),
		snapBytes:   reg.Counter("treesim_snapshot_bytes_total", "Snapshot file bytes written."),
		snapNS:      reg.Histogram("treesim_snapshot_write_ns", "Snapshot write latency (encode + write + sync + rename), nanoseconds.", lb),
		snapLoads:   reg.Counter("treesim_snapshot_loads_total", "Snapshot payloads loaded at recovery."),
	}
}

// Store is one broker's durable state: the snapshot/WAL pair in a data
// directory. Open → LoadSnapshot → Replay → (serve, Append / periodic
// WriteSnapshot) → Close. Methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options
	fs   FS

	met storeMetrics

	mu      sync.Mutex
	wal     File
	nextLSN uint64
	lastLSN uint64 // highest LSN appended or recovered
	snapLSN uint64 // watermark of the loaded/last-written snapshot
	pending int    // records appended since the last snapshot
	closed  bool
	failed  bool // fail-stop latch; see ErrStoreFailed

	// Offsets in the log as appended since Open: walEnd is past the last
	// record, walBase where the file now starts, and ends[lsn%len] past
	// each of the last len records (0 before Open), where a cut falls.
	walEnd, walBase int64
	ends            [4096]int64
}

// Open opens (creating if needed) the data directory and its WAL. A
// torn WAL tail from a previous crash is truncated away here, so the
// file is append-clean before any new record lands.
func Open(dir string, opts Options) (*Store, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: create data dir: %w", err)
	}
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Store{dir: dir, opts: opts, fs: fsys, met: newStoreMetrics(reg)}
	reg.GaugeFunc("treesim_wal_pending_records", "WAL records not yet covered by a snapshot.", func() float64 {
		return float64(s.Pending())
	})
	reg.GaugeFunc("treesim_store_failed", "1 when the store has latched fail-stop after an I/O error, 0 while healthy.", func() float64 {
		if s.Failed() {
			return 1
		}
		return 0
	})
	snapLSN, ok, err := readSnapshot(fsys, s.snapshotPath(), nil)
	if err != nil {
		return nil, err
	}
	if ok {
		s.snapLSN = snapLSN
	}
	f, err := fsys.OpenFile(s.walPath(), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: open wal: %w", err)
	}
	goodEnd, lastLSN, err := scanWAL(f, nil)
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > goodEnd {
		if err := f.Truncate(goodEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("persist: trim torn wal tail: %w", err)
		}
	}
	if _, err := f.Seek(goodEnd, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: seek wal: %w", err)
	}
	s.wal = f
	s.lastLSN = max(lastLSN, s.snapLSN)
	s.nextLSN = s.lastLSN + 1
	s.walEnd = goodEnd
	s.ends[s.lastLSN%uint64(len(s.ends))] = goodEnd
	return s, nil
}

// Dir returns the data directory path.
func (s *Store) Dir() string { return s.dir }

// LoadSnapshot streams the latest snapshot's payload through read with
// its file's format, once the whole file has passed its length and CRC
// checks; ok=false when none has been written yet.
func (s *Store) LoadSnapshot(read func(payload io.Reader, format int) error) (ok bool, err error) {
	_, ok, err = readSnapshot(s.fs, s.snapshotPath(), read)
	if err == nil && ok {
		s.met.snapLoads.Inc()
	}
	return ok, err
}

// Replay streams the WAL records not covered by the snapshot (LSN above
// the snapshot watermark) through fn in log order. Records at or below
// the watermark — stale debris from a crash between snapshot publish
// and WAL truncation — are skipped, which is what makes re-running
// recovery idempotent. Call before the first Append.
func (s *Store) Replay(fn func(Record) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("persist: store closed")
	}
	_, _, err := scanWAL(s.wal, func(rec Record) error {
		if rec.LSN <= s.snapLSN {
			return nil
		}
		if err := fn(rec); err != nil {
			return err
		}
		s.met.replayed.Inc()
		return nil
	})
	if err != nil {
		return err
	}
	// scanWAL moved the file cursor; park it back at the append point.
	if _, err := s.wal.Seek(0, 2); err != nil {
		return fmt.Errorf("persist: seek wal: %w", err)
	}
	return nil
}

// Append assigns the record the next LSN, writes it to the WAL, and
// returns the assigned LSN. When Append returns, the record is in the
// kernel page cache (process-death durable); with
// Options.SyncEveryAppend it is also on stable storage. The returned
// LSN is the record's position in the log — callers snapshotting
// concurrently with appends pass the last LSN covered by their state
// cut to WriteSnapshot.
func (s *Store) Append(rec Record) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return 0, err
	}
	lsn := s.nextLSN
	n, err := appendWAL(s.wal, lsn, rec)
	if err != nil {
		return 0, s.failLocked(err)
	}
	s.met.appends.Inc()
	s.met.appendBytes.Add(uint64(n))
	if s.opts.SyncEveryAppend {
		if err := s.syncWALTimed(); err != nil {
			return 0, s.failLocked(err)
		}
	}
	s.nextLSN++
	s.lastLSN = lsn
	s.pending++
	s.walEnd += int64(n)
	s.ends[lsn%uint64(len(s.ends))] = s.walEnd
	return lsn, nil
}

// LastLSN returns the highest LSN appended or recovered so far — the
// watermark a snapshot of a quiescent store covers.
func (s *Store) LastLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastLSN
}

// Pending returns the number of records appended since the last
// snapshot — the input to a snapshot-when-the-log-grows policy.
func (s *Store) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// WriteSnapshot atomically publishes a snapshot covering every record
// up to and including LSN upto, its payload streamed by write, then cuts
// the covered records from the WAL. The caller must pass the watermark
// its payload actually reflects — the LSN of the last journaled record
// included in the state cut — NOT the store's current tail: records
// appended between the cut and this call are newer than the payload, and
// stamping them as covered would silently drop committed churn on
// replay. The file is written and fsynced without the store's lock, so
// appends go on meanwhile; a snapshot whose watermark fell below one
// published meanwhile is dropped.
//
// The snapshot rename is the commit point: a crash before it keeps the
// old snapshot + full WAL, a crash after it but before the WAL is cut
// leaves stale WAL records that the LSN watermark skips on replay.
func (s *Store) WriteSnapshot(upto uint64, write func(io.Writer) error) error {
	s.mu.Lock()
	err := s.usableLocked()
	upto = min(upto, s.lastLSN) // never claim records not yet written
	s.mu.Unlock()
	if err != nil {
		return err
	}
	snapStart := time.Now()
	tmp, size, err := writeSnapshotTemp(s.fs, s.dir, upto, write)
	defer s.fs.Remove(tmp) // no-op after a successful rename
	s.mu.Lock()
	defer s.mu.Unlock()
	if uerr := s.usableLocked(); uerr != nil {
		return uerr
	}
	if err != nil {
		return s.failLocked(fmt.Errorf("persist: write snapshot: %w", err))
	}
	if upto < s.snapLSN {
		return nil // a later cut was published meanwhile
	}
	if err := s.syncWALTimed(); err != nil {
		return s.failLocked(err)
	}
	if err := s.publish(tmp, s.snapshotPath()); err != nil {
		return s.failLocked(err)
	}
	s.met.snapWrites.Inc()
	s.met.snapBytes.Add(uint64(size))
	s.met.snapNS.ObserveDuration(time.Since(snapStart).Nanoseconds())
	s.snapLSN = upto
	s.pending = int(s.lastLSN - upto)
	if err := s.cutWALLocked(upto); err != nil {
		return s.failLocked(err)
	}
	return nil
}

// cutWALLocked drops the records up to upto from the log: it truncates
// the file when that is all of them and otherwise, for a recent upto,
// rewrites it to hold the records above (copy, fsync, rename, reopen).
// An older upto keeps the log, whose covered records the watermark skips
// on replay until a later snapshot cuts them. Caller holds s.mu.
func (s *Store) cutWALLocked(upto uint64) error {
	if upto == s.lastLSN {
		s.walBase = s.walEnd
		if err := s.wal.Truncate(0); err != nil {
			return fmt.Errorf("persist: truncate wal: %w", err)
		}
		_, err := s.wal.Seek(0, io.SeekStart)
		return err
	}
	cut := s.ends[upto%uint64(len(s.ends))]
	if s.lastLSN-upto >= uint64(len(s.ends)) || cut <= s.walBase {
		return nil
	}
	tmp, err := s.fs.CreateTemp(s.dir, ".wal-*")
	if err != nil {
		return fmt.Errorf("persist: rewrite wal: %w", err)
	}
	defer s.fs.Remove(tmp.Name()) // no-op after a successful rename
	defer tmp.Close()             // a second Close, after a good one, errs unread
	var f File
	if _, err = s.wal.Seek(cut-s.walBase, io.SeekStart); err == nil {
		_, err = io.Copy(tmp, s.wal)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = tmp.Close()
	}
	if err == nil {
		err = s.publish(tmp.Name(), s.walPath())
	}
	if err == nil {
		f, err = s.fs.OpenFile(s.walPath(), os.O_RDWR|os.O_APPEND, 0o644)
	}
	if err != nil {
		return fmt.Errorf("persist: rewrite wal: %w", err)
	}
	s.wal.Close()
	s.wal, s.walBase = f, cut
	return nil
}

// publish renames tmp over path and fsyncs the directory.
func (s *Store) publish(tmp, path string) error {
	if err := s.fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("persist: publish %s: %w", filepath.Base(path), err)
	}
	return syncDir(s.fs, s.dir)
}

// usableLocked is the error of a closed or failed store. Caller holds
// s.mu.
func (s *Store) usableLocked() error {
	if s.closed {
		return fmt.Errorf("persist: store closed")
	}
	if s.failed {
		return ErrStoreFailed
	}
	return nil
}

// Failed reports whether the store has latched fail-stop. Once true it
// never resets: the process must restart (and re-scan the log) to
// persist again.
func (s *Store) Failed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// failLocked latches the fail-stop flag and wraps err so callers can
// match either the sentinel or the root cause. Caller holds s.mu.
func (s *Store) failLocked(err error) error {
	s.failed = true
	return fmt.Errorf("%w: %w", ErrStoreFailed, err)
}

// Close closes the WAL file, syncing it first when the store is still
// healthy (a post-failure fsync retry would falsely report the lost
// pages as flushed). The file is always closed, even when the sync
// fails, and neither error masks the other.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var syncErr error
	if !s.failed {
		if err := s.wal.Sync(); err != nil {
			syncErr = fmt.Errorf("persist: sync wal: %w", err)
		}
	}
	var closeErr error
	if err := s.wal.Close(); err != nil {
		closeErr = fmt.Errorf("persist: close wal: %w", err)
	}
	return errors.Join(syncErr, closeErr)
}

// syncWALTimed fsyncs the WAL under the fsync-latency histogram.
// Caller holds s.mu.
func (s *Store) syncWALTimed() error {
	t0 := time.Now()
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("persist: sync wal: %w", err)
	}
	s.met.fsyncNS.ObserveDuration(time.Since(t0).Nanoseconds())
	return nil
}

func (s *Store) snapshotPath() string { return filepath.Join(s.dir, snapshotName) }
func (s *Store) walPath() string      { return filepath.Join(s.dir, walName) }
