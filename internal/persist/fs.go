package persist

import (
	"io"
	"os"
)

// File is the slice of *os.File the store needs. Production code uses
// real files; fault-injection tests substitute implementations that
// fail on command (see internal/fault).
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Truncate changes the file size without moving the offset.
	Truncate(size int64) error
	// Stat returns file metadata.
	Stat() (os.FileInfo, error)
	// Name returns the name the file was opened with.
	Name() string
}

// FS is the filesystem surface the store touches. Every byte the store
// persists flows through one of these calls, which is what makes
// deterministic disk-fault injection possible: wrap the FS, not the
// store.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens for reading only; also used to fsync directories.
	Open(name string) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

// OSFS is the real filesystem. The zero value is ready to use.
type OSFS struct{}

func (OSFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (OSFS) Open(name string) (File, error) { return os.Open(name) }

func (OSFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OSFS) Remove(name string) error { return os.Remove(name) }
