package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func replayAll(t *testing.T, s *Store) []Record {
	t.Helper()
	var recs []Record
	if err := s.Replay(func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	want := []Record{
		{Op: OpSubscribe, ID: 1, Expr: "/a/b", Group: 0},
		{Op: OpSubscribe, ID: 2, Expr: "/a//c", Group: 1},
		{Op: OpUnsubscribe, ID: 1},
		{Op: OpRebuild, Groups: [][]uint64{{2}}, Reps: []uint64{2}},
	}
	for _, r := range want {
		if _, err := s.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if got := s.Pending(); got != len(want) {
		t.Fatalf("Pending = %d, want %d", got, len(want))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openT(t, dir)
	defer s2.Close()
	got := replayAll(t, s2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.LSN != uint64(i+1) {
			t.Errorf("record %d: LSN = %d, want %d", i, r.LSN, i+1)
		}
		w := want[i]
		if r.Op != w.Op || r.ID != w.ID || r.Expr != w.Expr || r.Group != w.Group {
			t.Errorf("record %d: got %+v, want %+v", i, r, w)
		}
	}
	// Appends after replay continue the LSN sequence.
	if _, err := s2.Append(Record{Op: OpUnsubscribe, ID: 2}); err != nil {
		t.Fatalf("Append after replay: %v", err)
	}
	if s2.lastLSN != uint64(len(want)+1) {
		t.Fatalf("lastLSN after post-replay append = %d, want %d", s2.lastLSN, len(want)+1)
	}
}

// deliverRecord is an OpDeliver as the broker journals it: the document
// packed, three deliveries.
func deliverRecord(seq uint64) Record {
	return Record{Op: OpDeliver, Seq: seq, Doc: []byte("\x03\x03\x05media\x02CD\x05title\x00\x01\x01\x01\x02\x00"),
		Subs: []uint64{1, 11, 300}, Cursors: []uint64{seq, seq + 1<<40, 7}, Comms: []int{0, 3, 129}}
}

// TestWALDeliverForms: an OpDeliver carrying packed bytes is a binary
// record a sixth the size of the text one, both forms append and read
// back whole in one log, and a record whose arrays disagree is an
// encode error with nothing written (fail-stop, as any encode error).
func TestWALDeliverForms(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	packed, text := deliverRecord(5), deliverRecord(6)
	text.Doc, text.XML = nil, "<media><CD><title/></CD></media>"
	empty := Record{Op: OpDeliver, Seq: 7, Subs: []uint64{}, Cursors: []uint64{}, Comms: []int{}}
	for _, r := range []Record{packed, text, empty} {
		if _, err := s.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	bad := deliverRecord(8)
	bad.Comms = bad.Comms[:2]
	if _, err := s.Append(bad); err == nil {
		t.Fatal("Append of mismatched arrays succeeded")
	}
	s.Close()
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if first := walHeaderLen + int(binary.LittleEndian.Uint32(data)); first != walHeaderLen+8+1+1+1+(1+1+1)+(1+6+1)+(2+1+2)+len(packed.Doc) {
		t.Errorf("the binary record is %d bytes", first)
	}
	if bytes.Contains(data, []byte(`"doc"`)) || !bytes.Contains(data, []byte(`"xml":"\u003cmedia`)) {
		t.Error("the text record is not the JSON it used to be")
	}
	s2 := openT(t, dir)
	defer s2.Close()
	got := replayAll(t, s2)
	for i := range got {
		got[i].LSN = 0
	}
	if want := []Record{packed, text, empty}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed\n%+v\nwant\n%+v", got, want)
	}
}

func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 1; i <= 2; i++ {
		if _, err := s.Append(Record{Op: OpSubscribe, ID: uint64(i), Expr: "/x"}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	before := s.met.appendBytes.Load()
	if _, err := s.Append(deliverRecord(1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	last := int(s.met.appendBytes.Load() - before)
	s.Close()

	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the final frame, a binary OpDeliver, at every byte: mid-document,
	// mid-delivery, mid-varint, mid-header, and down to nothing of it.
	for cut := 1; cut <= last; cut++ {
		if err := os.WriteFile(walPath, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := openT(t, dir)
		recs := replayAll(t, s2)
		if len(recs) != 2 {
			t.Fatalf("cut %d: replayed %d records, want 2 (torn third dropped)", cut, len(recs))
		}
		// The torn tail must be physically gone: a fresh append then a
		// re-open must see exactly 3 intact records.
		if _, err := s2.Append(Record{Op: OpUnsubscribe, ID: 9}); err != nil {
			t.Fatalf("Append after trim: %v", err)
		}
		s2.Close()
		s3 := openT(t, dir)
		recs = replayAll(t, s3)
		if len(recs) != 3 || recs[2].ID != 9 {
			t.Fatalf("cut %d: after repair+append got %d records (last %+v)", cut, len(recs), recs[len(recs)-1])
		}
		s3.Close()
	}
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s4 := openT(t, dir)
	defer s4.Close()
	if recs := replayAll(t, s4); len(recs) != 3 || !bytes.Equal(recs[2].Doc, deliverRecord(1).Doc) {
		t.Fatalf("the whole log replayed %d records", len(recs))
	}
}

// memFile is a WAL held in memory: what scanWAL and appendWAL use of a
// File, the rest stubbed.
type memFile struct {
	data []byte
	off  int64
}

func (f *memFile) Read(p []byte) (int, error) {
	if f.off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[f.off:])
	f.off += int64(n)
	return n, nil
}
func (f *memFile) Write(p []byte) (int, error) { f.data = append(f.data, p...); return len(p), nil }
func (f *memFile) Seek(off int64, whence int) (int64, error) {
	if whence != io.SeekStart {
		return 0, fmt.Errorf("memFile: whence %d", whence)
	}
	f.off = off
	return off, nil
}
func (f *memFile) Close() error               { return nil }
func (f *memFile) Sync() error                { return nil }
func (f *memFile) Truncate(int64) error       { return fmt.Errorf("memFile: truncate") }
func (f *memFile) Stat() (os.FileInfo, error) { return memInfo{int64(len(f.data))}, nil }
func (f *memFile) Name() string               { return "mem.wal" }

type memInfo struct{ size int64 }

func (i memInfo) Name() string       { return "mem.wal" }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) Mode() os.FileMode  { return 0o644 }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() any           { return nil }

// FuzzScanWAL puts arbitrary bytes behind a good log — raw, as a crash
// or a bad disk leaves them, or framed as one more record with a true
// length and CRC, so the record decoders see them too. The scan must not
// panic or fail, must report every record of the good log, must not
// allocate beyond a multiple of what it was given (a length or a count
// the bytes cannot back is a torn tail, not a request), and a binary
// OpDeliver it accepts must survive being appended again.
func FuzzScanWAL(f *testing.F) {
	text := deliverRecord(2)
	text.Doc, text.XML = nil, "<x><y/></x>"
	good := []Record{{Op: OpSubscribe, ID: 1, Expr: "/x", Mode: 1}, deliverRecord(1), text}
	var log memFile
	for i, r := range good {
		if _, err := appendWAL(&log, uint64(i+1), r); err != nil {
			f.Fatal(err)
		}
	}
	prefix := bytes.Clone(log.data)
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // uvarint 2^49-1
	f.Add(prefix[walHeaderLen+8:walHeaderLen+8+40], false)
	f.Add([]byte{0xff, 0xff, 0xff, 0x03, 0, 0, 0, 0, 1, 2, 3}, false) // a length the file cannot back
	f.Add([]byte{deliverTag, 9, 1, 4, 5, 6, 1, 1, 1, 'a', 0, 0}, true)
	f.Add([]byte{deliverTag, 9, 0}, true)
	f.Add(append([]byte{deliverTag, 9}, huge...), true)                     // a count the body cannot back
	f.Add(append(append([]byte{deliverTag}, huge...), 2, 1, 1, 1, 2), true) // second delivery cut short
	f.Add([]byte{deliverTag, 0x80}, true)
	f.Add([]byte(`{"op":"deliver","seq":3,"xml":"<a/>","subs":[1],"cursors":[2],"comms":[0]}`), true)
	f.Add([]byte(`{"op":"rebuild","groups":[[1],[2]],"reps":[1,2]}`), true)
	f.Add([]byte(`{"op":`), true)
	f.Fuzz(func(t *testing.T, tail []byte, framed bool) {
		file := &memFile{data: bytes.Clone(prefix)}
		if framed {
			frame := append(newFrame(uint64(len(good)+1), len(tail)), tail...)
			binary.LittleEndian.PutUint32(frame[0:4], uint32(len(frame)-walHeaderLen))
			binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[walHeaderLen:]))
			tail = frame
		}
		file.data = append(file.data, tail...)
		var recs []Record
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		goodEnd, lastLSN, err := scanWAL(file, func(r Record) error { recs = append(recs, r); return nil })
		runtime.ReadMemStats(&after)
		if err != nil || goodEnd < int64(len(prefix)) || goodEnd > int64(len(file.data)) || lastLSN < uint64(len(good)) {
			t.Fatalf("scan: good end %d of %d (prefix %d), last LSN %d, err %v", goodEnd, len(file.data), len(prefix), lastLSN, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16+64*uint64(len(file.data)) {
			t.Fatalf("scanning %d bytes allocated %d", len(file.data), grew)
		}
		if len(recs) < len(good) {
			t.Fatalf("scan reported %d of the %d good records", len(recs), len(good))
		}
		for i, want := range good {
			if recs[i].LSN = 0; !reflect.DeepEqual(recs[i], want) {
				t.Fatalf("good record %d read back as %+v", i, recs[i])
			}
		}
		if len(recs) == len(good) && goodEnd != int64(len(prefix)) {
			t.Fatalf("good end %d moved past the good log (%d) without a record", goodEnd, len(prefix))
		}
		if framed && len(recs) > len(good) && tail[walHeaderLen+8] == deliverTag {
			var again memFile
			if _, err := appendWAL(&again, 1, recs[len(good)]); err != nil {
				t.Fatalf("an accepted binary record does not append: %v", err)
			}
			var back []Record
			scanWAL(&again, func(r Record) error { back = append(back, r); return nil })
			if recs[len(good)].LSN = 1; len(back) != 1 || !reflect.DeepEqual(back[0], recs[len(good)]) {
				t.Fatalf("an accepted binary record re-read as %+v, was %+v", back, recs[len(good)])
			}
		}
	})
}

func TestWALCorruptCRC(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 1; i <= 3; i++ {
		if _, err := s.Append(Record{Op: OpSubscribe, ID: uint64(i), Expr: "/x"}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	s.Close()

	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the second record's body: replay keeps record 1 and
	// treats everything from the corruption on as a torn tail.
	frame1 := walHeaderLen + int(binary.LittleEndian.Uint32(data[0:4]))
	data[frame1+walHeaderLen+9] ^= 0xff
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	recs := replayAll(t, s2)
	if len(recs) != 1 || recs[0].ID != 1 {
		t.Fatalf("replayed %v, want just record 1", recs)
	}
}

func TestWALCorruptLength(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if _, err := s.Append(Record{Op: OpSubscribe, ID: 1, Expr: "/x"}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// A giant length prefix must not provoke a giant allocation or an
	// error — just a torn tail.
	binary.LittleEndian.PutUint32(data[0:4], maxWALRecord+1)
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	if recs := replayAll(t, s2); len(recs) != 0 {
		t.Fatalf("replayed %v, want none", recs)
	}
}

func TestSnapshotRoundTripAndWatermark(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 1; i <= 2; i++ {
		if _, err := s.Append(Record{Op: OpSubscribe, ID: uint64(i), Expr: "/x"}); err != nil {
			t.Fatal(err)
		}
	}
	payload := []byte("state-at-lsn-2")
	if err := s.WriteSnapshot(payload, s.LastLSN()); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending after snapshot = %d, want 0", s.Pending())
	}
	// Churn after the snapshot lands in the (now empty) WAL with
	// continuing LSNs.
	if _, err := s.Append(Record{Op: OpUnsubscribe, ID: 1}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openT(t, dir)
	defer s2.Close()
	got, ok, err := s2.LoadSnapshot()
	if err != nil || !ok {
		t.Fatalf("LoadSnapshot: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("snapshot payload = %q, want %q", got, payload)
	}
	recs := replayAll(t, s2)
	if len(recs) != 1 || recs[0].LSN != 3 || recs[0].Op != OpUnsubscribe {
		t.Fatalf("replayed %+v, want just the post-snapshot unsub at LSN 3", recs)
	}
}

func TestSnapshotPartialCoverageKeepsTail(t *testing.T) {
	// A record appended between a snapshot's state cut and its write is
	// NOT covered by the payload; WriteSnapshot stamped with the cut's
	// watermark must preserve it for replay instead of truncating it
	// away with the covered prefix.
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 1; i <= 2; i++ {
		if _, err := s.Append(Record{Op: OpSubscribe, ID: uint64(i), Expr: "/x"}); err != nil {
			t.Fatal(err)
		}
	}
	// The "state cut" happens here (covers LSNs 1-2)...
	if _, err := s.Append(Record{Op: OpSubscribe, ID: 3, Expr: "/y"}); err != nil { // ...then churn lands (LSN 3)...
		t.Fatal(err)
	}
	if err := s.WriteSnapshot([]byte("covers-1-2"), 2); err != nil { // ...and only then the snapshot writes.
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending after partial snapshot = %d, want 1 (the uncovered tail)", got)
	}
	s.Close()

	s2 := openT(t, dir)
	recs := replayAll(t, s2)
	if len(recs) != 1 || recs[0].LSN != 3 || recs[0].ID != 3 {
		t.Fatalf("replayed %+v, want just the uncovered LSN 3", recs)
	}
	// A fully covering snapshot then truncates as usual.
	if err := s2.WriteSnapshot([]byte("covers-1-2-3"), s2.LastLSN()); err != nil {
		t.Fatal(err)
	}
	if got := s2.Pending(); got != 0 {
		t.Fatalf("Pending after covering snapshot = %d, want 0", got)
	}
	s2.Close()
	s3 := openT(t, dir)
	defer s3.Close()
	if recs := replayAll(t, s3); len(recs) != 0 {
		t.Fatalf("replayed %+v after covering snapshot, want none", recs)
	}
	// Watermarks above the tail are clamped, never claiming coverage of
	// records that do not exist yet.
	if err := s3.WriteSnapshot([]byte("clamped"), 999); err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Append(Record{Op: OpSubscribe, ID: 4, Expr: "/z"}); err != nil {
		t.Fatal(err)
	}
	if got := s3.Pending(); got != 1 {
		t.Fatalf("Pending after post-clamp append = %d, want 1", got)
	}
}

func TestReplaySkipsStaleRecordsAfterSkewedCrash(t *testing.T) {
	// Simulate a crash between the snapshot rename and the WAL
	// truncation: the snapshot covers LSNs the WAL still holds. Replay
	// must skip them.
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 1; i <= 3; i++ {
		if _, err := s.Append(Record{Op: OpSubscribe, ID: uint64(i), Expr: "/x"}); err != nil {
			t.Fatal(err)
		}
	}
	walPath := filepath.Join(dir, walName)
	preTrunc, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot([]byte("covers-1-2-3"), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(Record{Op: OpUnsubscribe, ID: 2}); err != nil { // LSN 4
		t.Fatal(err)
	}
	postSnap, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Reconstruct the skewed state: stale pre-snapshot records followed by
	// the genuine post-snapshot tail.
	if err := os.WriteFile(walPath, append(append([]byte{}, preTrunc...), postSnap...), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	defer s2.Close()
	recs := replayAll(t, s2)
	if len(recs) != 1 || recs[0].LSN != 4 || recs[0].ID != 2 {
		t.Fatalf("replayed %+v, want just LSN 4", recs)
	}
	// And the next append continues past everything.
	if _, err := s2.Append(Record{Op: OpSubscribe, ID: 5, Expr: "/y"}); err != nil {
		t.Fatal(err)
	}
	if s2.lastLSN != 5 {
		t.Fatalf("lastLSN = %d, want 5", s2.lastLSN)
	}
}

func TestSnapshotAtomicOverwrite(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if err := s.WriteSnapshot([]byte("v1"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot([]byte("v2"), 0); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// No temp debris left behind, and the latest payload wins.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != snapshotName && e.Name() != walName {
			t.Errorf("unexpected file in data dir: %s", e.Name())
		}
	}
	s2 := openT(t, dir)
	defer s2.Close()
	got, ok, err := s2.LoadSnapshot()
	if err != nil || !ok || string(got) != "v2" {
		t.Fatalf("LoadSnapshot = %q ok=%v err=%v, want v2", got, ok, err)
	}
}

func TestSnapshotEnvelope(t *testing.T) {
	in := &Snapshot{Broker: []byte("engine"), AdvertVersion: 7, PubSeq: 42}
	data, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Broker, in.Broker) || out.AdvertVersion != 7 || out.PubSeq != 42 {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
}
