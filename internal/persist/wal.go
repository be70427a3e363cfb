package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// WAL frame layout: a fixed header followed by the record body.
//
//	[4] body length N (little-endian uint32)
//	[4] CRC32 (IEEE) over the body
//	[N] body = [8] LSN (little-endian uint64) ++ record
//
// A record is the JSON encoding of Record, except an OpDeliver that
// carries its document packed (Record.Doc), which is binary:
//
//	[1] deliverTag  uvarint(Seq)  uvarint(n)
//	n × { uvarint(sub) uvarint(cursor) uvarint(comm) }
//	the rest: Doc (xmltree.Pack bytes, possibly none)
//
// The CRC covers the body only; a corrupt length field surfaces as an
// impossible size or a body short-read, both treated as a torn tail.
const walHeaderLen = 8

// deliverTag opens a binary OpDeliver record; JSON opens with '{'.
const deliverTag = 0x01

// maxWALRecord bounds one record body. Far above any real churn record
// (the largest is a rebuild partition); its job, with the file's own
// size, is to keep a corrupted length prefix from provoking a giant
// allocation.
const maxWALRecord = 64 << 20

// scanWAL walks the log from the start, calling fn for each intact
// record, and returns the byte offset just past the last intact record
// along with the highest LSN seen. A torn or corrupt tail — short
// header, short body, CRC mismatch, impossible length, or undecodable
// record — ends the scan without error: everything before it is good,
// everything from it on is the debris of a mid-append crash.
func scanWAL(f File, fn func(Record) error) (goodEnd int64, lastLSN uint64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, err
	}
	size := int64(math.MaxInt64)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	var hdr [walHeaderLen]byte
	var body []byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return goodEnd, lastLSN, nil // clean EOF or torn header
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n < 8 || n > maxWALRecord || int64(n) > size-goodEnd-walHeaderLen {
			return goodEnd, lastLSN, nil // corrupt length prefix, or more than the file holds
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(f, body); err != nil {
			return goodEnd, lastLSN, nil // torn body
		}
		if crc32.ChecksumIEEE(body) != sum {
			return goodEnd, lastLSN, nil // bit rot or torn rewrite
		}
		lsn := binary.LittleEndian.Uint64(body[:8])
		var rec Record
		if len(body) > 8 && body[8] == deliverTag {
			if !decodeDeliver(body[9:], &rec) {
				return goodEnd, lastLSN, nil
			}
		} else if err := json.Unmarshal(body[8:], &rec); err != nil {
			return goodEnd, lastLSN, nil
		}
		rec.LSN = lsn
		if fn != nil {
			if err := fn(rec); err != nil {
				return goodEnd, lastLSN, err
			}
		}
		goodEnd += int64(walHeaderLen) + int64(n)
		if lsn > lastLSN {
			lastLSN = lsn
		}
	}
}

// decodeDeliver reads a binary OpDeliver record (after its tag) into
// rec. A varint that does not end, or a count the bytes cannot back (a
// delivery takes at least three), reports false. Doc is copied out: b
// is the scan's buffer.
func decodeDeliver(b []byte, rec *Record) bool {
	ok := true
	next := func() uint64 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			ok, n = false, len(b)
		}
		b = b[n:]
		return x
	}
	seq, n := next(), next()
	if !ok || n > uint64(len(b))/3 {
		return false
	}
	*rec = Record{Op: OpDeliver, Seq: seq, Subs: make([]uint64, n), Cursors: make([]uint64, n), Comms: make([]int, n)}
	for i := range rec.Subs {
		rec.Subs[i], rec.Cursors[i], rec.Comms[i] = next(), next(), int(next())
	}
	if len(b) > 0 {
		rec.Doc = bytes.Clone(b)
	}
	return ok
}

// newFrame starts a frame: the header, still blank, and the LSN, with
// room for a record of n bytes.
func newFrame(lsn uint64, n int) []byte {
	return binary.LittleEndian.AppendUint64(make([]byte, walHeaderLen, walHeaderLen+8+n), lsn)
}

// appendWAL frames and writes one record at the file's current end.
func appendWAL(f File, lsn uint64, rec Record) (int, error) {
	var frame []byte
	if rec.Op == OpDeliver && rec.XML == "" {
		if len(rec.Cursors) != len(rec.Subs) || len(rec.Comms) != len(rec.Subs) {
			return 0, fmt.Errorf("persist: encode wal record: deliver arrays of %d, %d and %d", len(rec.Subs), len(rec.Cursors), len(rec.Comms))
		}
		frame = append(newFrame(lsn, 24+12*len(rec.Subs)+len(rec.Doc)), deliverTag)
		frame = binary.AppendUvarint(binary.AppendUvarint(frame, rec.Seq), uint64(len(rec.Subs)))
		for i, sub := range rec.Subs {
			frame = binary.AppendUvarint(binary.AppendUvarint(frame, sub), rec.Cursors[i])
			frame = binary.AppendUvarint(frame, uint64(rec.Comms[i]))
		}
		frame = append(frame, rec.Doc...)
	} else {
		rec.LSN = 0 // the LSN travels in the frame, not the JSON
		payload, err := json.Marshal(rec)
		if err != nil {
			return 0, fmt.Errorf("persist: encode wal record: %w", err)
		}
		frame = append(newFrame(lsn, len(payload)), payload...)
	}
	body := frame[walHeaderLen:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(body))
	// One write per record: the frame either lands whole or tears at the
	// tail, never interleaves with a neighbor.
	if _, err := f.Write(frame); err != nil {
		return 0, fmt.Errorf("persist: append wal: %w", err)
	}
	return len(frame), nil
}
