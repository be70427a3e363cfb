package broker

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"treesim/internal/core"
	"treesim/internal/persist"
	"treesim/internal/synopsis"
)

// snapshotPayload is the format-2 payload of a small engine holding both
// delivery modes and a pinned document, on the given representation.
func snapshotPayload(tb testing.TB, rep core.Representation) []byte {
	tb.Helper()
	e := newTestEngine(tb, Config{Estimator: core.Config{Representation: rep, HashCapacity: 4, Seed: 3}})
	for _, c := range recoveryDocs {
		if _, err := e.Publish(doc(tb, c)); err != nil {
			tb.Fatal(err)
		}
	}
	for i, p := range recoveryPatterns[:4] {
		if _, err := e.SubscribeOpts(p, SubscribeOptions{Mode: DeliveryMode(i % 2)}); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := e.Publish(doc(tb, recoveryDocs[0])); err != nil {
		tb.Fatal(err)
	}
	e.Flush()
	st, err := e.State()
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.encodeSnapshot(&buf, st, 5, 6); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadSnapshot runs arbitrary and truncated bytes through the
// snapshot readers: as a snapshot file (persist.Open verifies it whole),
// as a format-2 payload, and as a version-2 synopsis. Each must return
// an error or a value, never panic.
func FuzzReadSnapshot(f *testing.F) {
	for _, rep := range []core.Representation{core.Hashes, core.Sets, core.Counters} {
		payload := snapshotPayload(f, rep)
		for _, cut := range []int{len(payload), len(payload) - 1, len(payload) * 3 / 4, len(payload) / 2, 40, 1} {
			f.Add(payload[:cut])
		}
		st, floor, err := decodeSnapshot(bytes.NewReader(payload))
		if err != nil || floor != 6 || len(st.Subs) != 4 || len(st.Packed) == 0 {
			f.Fatalf("seed payload decodes to %+v, floor %d, %v", st, floor, err)
		}
		var syn bytes.Buffer
		if err := st.est.Save(&syn); err != nil {
			f.Fatal(err)
		}
		f.Add(syn.Bytes())
		f.Add(syn.Bytes()[:syn.Len()/2])
	}
	dir := f.TempDir() // one per fuzzing process, rewritten by each input
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, "snapshot.snap"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := persist.Open(dir, persist.Options{}); err == nil {
			s.Close()
		}
		if st, _, err := decodeSnapshot(bytes.NewReader(data)); err == nil && (st == nil || st.est == nil) {
			t.Fatal("decodeSnapshot returned no state and no error")
		}
		if s, err := synopsis.Decode(bytes.NewReader(data)); err == nil && s == nil {
			t.Fatal("synopsis.Decode returned no synopsis and no error")
		}
	})
}
