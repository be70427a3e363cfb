package fault

import (
	"os"
	"strings"

	"treesim/internal/persist"
)

// Failpoint names fired by FS. The WAL points fire on the store's log
// file, the snapshot points on the temp file a snapshot is staged in
// and the rename that publishes it, and the wal.rewrite points on the
// temp file a partial snapshot's rewrite of the log is staged in and the
// rename that puts it in the log's place.
const (
	PointWALWrite         = "wal.write"
	PointWALSync          = "wal.sync"
	PointWALTruncate      = "wal.truncate"
	PointSnapWrite        = "snapshot.write"
	PointSnapSync         = "snapshot.sync"
	PointSnapRename       = "snapshot.rename"
	PointWALRewriteWrite  = "wal.rewrite.write"
	PointWALRewriteSync   = "wal.rewrite.sync"
	PointWALRewriteRename = "wal.rewrite.rename"
)

// FS is a persist.FS that consults an Injector before touching the real
// filesystem. Files are classified by name — the store's WAL by its
// fixed basename, staging files by their temp pattern — so a rule armed
// on a wal.* point never trips a snapshot write.
type FS struct {
	inner persist.FS
	inj   *Injector
}

// NewFS wraps the real filesystem with inj's failpoints.
func NewFS(inj *Injector) *FS { return &FS{inner: persist.OSFS{}, inj: inj} }

func (f *FS) MkdirAll(path string, perm os.FileMode) error { return f.inner.MkdirAll(path, perm) }

func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(name, "wal.log") {
		return &faultFile{File: file, inj: f.inj, kind: "wal"}, nil
	}
	return file, nil
}

func (f *FS) Open(name string) (persist.File, error) { return f.inner.Open(name) }

func (f *FS) CreateTemp(dir, pattern string) (persist.File, error) {
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(pattern, ".wal") {
		return &faultFile{File: file, inj: f.inj, kind: "wal.rewrite"}, nil
	}
	return &faultFile{File: file, inj: f.inj, kind: "snapshot"}, nil
}

func (f *FS) Rename(oldpath, newpath string) error {
	point := PointSnapRename
	if strings.HasSuffix(newpath, "wal.log") {
		point = PointWALRewriteRename
	}
	if _, ok := f.inj.fire(point); ok {
		return ErrInjected
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FS) Remove(name string) error { return f.inner.Remove(name) }

// faultFile intercepts Write/Sync/Truncate on a classified file.
type faultFile struct {
	persist.File
	inj  *Injector
	kind string // "wal", "snapshot" or "wal.rewrite"
}

func (f *faultFile) Write(p []byte) (int, error) {
	r, ok := f.inj.fire(f.kind + ".write")
	if !ok {
		return f.File.Write(p)
	}
	switch r.Mode {
	case Short:
		// Persist a strict prefix for real — the torn frame must be on
		// disk for recovery to trip over — then report the failure.
		cut := r.Bytes
		if cut <= 0 || cut >= len(p) {
			cut = len(p) / 2
		}
		n, err := f.File.Write(p[:cut])
		if err != nil {
			return n, err
		}
		return n, ErrInjected
	case NoSpace:
		return 0, ErrNoSpace
	default:
		return 0, ErrInjected
	}
}

func (f *faultFile) Sync() error {
	if r, ok := f.inj.fire(f.kind + ".sync"); ok {
		if r.Mode == NoSpace {
			return ErrNoSpace
		}
		return ErrInjected
	}
	return f.File.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if f.kind == "wal" {
		if r, ok := f.inj.fire(PointWALTruncate); ok {
			if r.Mode == NoSpace {
				return ErrNoSpace
			}
			return ErrInjected
		}
	}
	return f.File.Truncate(size)
}
