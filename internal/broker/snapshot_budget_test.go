package broker

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"testing"

	"treesim/internal/core"
	"treesim/internal/persist"
)

// TestSnapshotWriteBudget holds one periodic snapshot of a durable,
// daemon-shaped engine to an allocation budget: 1000 NITF subscriptions,
// every 10th at-least-once and drained and acked every 2000 publishes,
// Hashes of 1000, 41,000 documents. Encoded through nested in-memory gob
// buffers, with every sample expanded to a []uint64, the write allocated
// 24.4 MB for a 1.62 MB file; streamed, it allocates a fraction of what
// it writes.
func TestSnapshotWriteBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("publishes 41,000 documents through a journaled 1000-subscription engine; not under -short or -race")
	}
	docs, subs := benchWorkload(500, 1000)
	dir := t.TempDir()
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	e := New(Config{Estimator: core.Config{Representation: core.Hashes, HashCapacity: 1000, Seed: 1}})
	defer e.Close()
	e.SetJournal(store)
	var acked []uint64
	for i, p := range subs {
		mode := AtMostOnce
		if i%10 == 0 {
			mode = AtLeastOnce
		}
		id, err := e.SubscribeOpts(p.String(), SubscribeOptions{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if mode == AtLeastOnce {
			acked = append(acked, id)
		}
	}
	for i := 1; i <= 41000; i++ {
		if _, err := e.Publish(docs[i%len(docs)]); err != nil {
			t.Fatal(err)
		}
		if i%2000 != 0 {
			continue
		}
		for _, id := range acked {
			r, err := e.DrainBatch(id, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Deliveries) > 0 {
				if _, err := e.Ack(id, r.Cursor); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	e.Flush()
	runtime.GC()

	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	if err := e.WriteSnapshot(store, 0, 0); err != nil {
		t.Fatal(err)
	}
	metrics.Read(sample)
	allocated := sample[0].Value.Uint64() - before
	fi, err := os.Stat(filepath.Join(dir, "snapshot.snap"))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("WriteSnapshot allocated %.2f MB to write a %.2f MB file (%d subscriptions, %d pinned documents)",
		float64(allocated)/(1<<20), float64(fi.Size())/(1<<20), e.Live(), e.Stats().PinnedDocs)
	const budget, parentFile = 2 << 20, 1_705_538 // the file the nested encoding wrote here
	if allocated > budget {
		t.Errorf("WriteSnapshot allocated %.2f MB, budget %d MB", float64(allocated)/(1<<20), budget>>20)
	}
	if fi.Size() >= parentFile {
		t.Errorf("snapshot file is %d bytes, want under the %d the nested gob encoding wrote", fi.Size(), parentFile)
	}
}
