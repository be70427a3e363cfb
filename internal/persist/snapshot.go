package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// A snapshot file (format 2) is written in one pass, the payload
// streamed by its writer:
//
//	[8] snapMagic: "\x89TSSNAP" and the format byte, 2
//	[8] LastLSN, the WAL watermark the payload covers (little-endian)
//	[N] payload
//	[8] N, then [4] the CRC32 (IEEE) of LastLSN and the payload
//
// A reader checks the length and the CRC over the whole file before it
// hands out a byte of the payload. 0x89 never opens a gob stream, which
// tells a format-1 file apart: a gob snapFile holding the payload as one
// []byte, read and never written.
const snapshotFormat = 2

var snapMagic = [8]byte{0x89, 'T', 'S', 'S', 'N', 'A', 'P', snapshotFormat}

// snapFile is a format-1 snapshot: an opaque payload plus the WAL
// watermark it covers, CRC-protected.
type snapFile struct {
	Format  int
	LastLSN uint64
	CRC     uint32 // crc32.ChecksumIEEE over Payload
	Payload []byte
}

// writeSnapshotTemp streams a snapshot covering records up to lastLSN
// into a fresh, fsynced temp file in dir, for the caller to rename over
// the snapshot or remove.
func writeSnapshotTemp(fsys FS, dir string, lastLSN uint64, write func(io.Writer) error) (name string, size int64, err error) {
	tmp, err := fsys.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return "", 0, err
	}
	defer tmp.Close() // a second Close, after a good one, errs unread
	bw, crc := bufio.NewWriterSize(tmp, 64<<10), crc32.NewIEEE()
	bw.Write(snapMagic[:]) // bufio keeps a write's error for Flush
	w := io.MultiWriter(bw, crc)
	binary.Write(w, binary.LittleEndian, lastLSN)
	if err = write(w); err == nil {
		err = bw.Flush()
	}
	if err == nil {
		size, err = tmp.Seek(0, io.SeekCurrent)
	}
	if err == nil {
		binary.Write(bw, binary.LittleEndian, struct {
			N   uint64
			CRC uint32
		}{uint64(size) - 16, crc.Sum32()})
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = tmp.Close()
	}
	return tmp.Name(), size + 12, err
}

// readSnapshot verifies the snapshot at path and, when read is not nil,
// streams its payload through read with the file's format. A missing
// file returns ok=false with no error.
func readSnapshot(fsys FS, path string, read func(payload io.Reader, format int) error) (lastLSN uint64, ok bool, err error) {
	f, err := fsys.Open(path)
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("persist: read snapshot: %w", err)
	}
	defer f.Close()
	var hdr [16]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil || !bytes.Equal(hdr[:7], snapMagic[:7]) {
		return readSnapshotV1(f, read)
	}
	crc, n := crc32.NewIEEE(), int64(-1)
	crc.Write(hdr[8:])
	var tr [12]byte
	fi, err := f.Stat()
	if err == nil {
		n = fi.Size() - 16 - 12
		_, err = io.CopyN(crc, f, n)
	}
	if err == nil {
		_, err = io.ReadFull(f, tr[:])
	}
	switch {
	case hdr[7] != snapshotFormat:
		return 0, false, fmt.Errorf("persist: snapshot format %d, want %d", hdr[7], snapshotFormat)
	case err != nil:
		return 0, false, fmt.Errorf("persist: read snapshot: %w", err)
	case n < 0:
		return 0, false, errors.New("persist: snapshot truncated")
	case int64(binary.LittleEndian.Uint64(tr[:8])) != n || binary.LittleEndian.Uint32(tr[8:]) != crc.Sum32():
		return 0, false, errors.New("persist: snapshot length or checksum mismatch")
	}
	lastLSN = binary.LittleEndian.Uint64(hdr[8:])
	if read == nil {
		return lastLSN, true, nil
	}
	if _, err := f.Seek(16, io.SeekStart); err != nil {
		return 0, false, fmt.Errorf("persist: read snapshot: %w", err)
	}
	return lastLSN, true, read(bufio.NewReaderSize(io.LimitReader(f, n), 64<<10), snapshotFormat)
}

// readSnapshotV1 is readSnapshot for a format-1 file.
func readSnapshotV1(f File, read func(io.Reader, int) error) (uint64, bool, error) {
	var sf snapFile
	_, err := f.Seek(0, io.SeekStart)
	if err == nil {
		err = gob.NewDecoder(f).Decode(&sf)
	}
	switch {
	case err != nil:
		return 0, false, fmt.Errorf("persist: decode snapshot: %w", err)
	case sf.Format != 1 || crc32.ChecksumIEEE(sf.Payload) != sf.CRC:
		return 0, false, fmt.Errorf("persist: snapshot format %d or checksum mismatch", sf.Format)
	case read == nil:
		return sf.LastLSN, true, nil
	}
	return sf.LastLSN, true, read(bytes.NewReader(sf.Payload), 1)
}

func syncDir(fsys FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("persist: sync dir: %w", err)
	}
	return nil
}
