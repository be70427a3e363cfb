package broker

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treesim/internal/core"
	"treesim/internal/xmltree"
)

// TestConcurrentPublishChurnDrain is the matching plane's race workout:
// the engine's parallelism is concurrent publishers sharing one forest
// under the routing read lock, so four of them run beside
// subscribe/unsubscribe churn (forest edits under the write lock) and
// long-poll drains, meant for -race, asserting delivery-count
// conservation: every delivery the publish results claim is accounted
// for by the delivered counter, and everything delivered is either
// drained, still pending, or stranded in an unsubscribed queue (bounded
// by churn × capacity).
func TestConcurrentPublishChurnDrain(t *testing.T) {
	e := newTestEngine(t, Config{
		Estimator:     core.Config{Representation: core.Hashes, HashCapacity: 64, Seed: 7},
		QueueCapacity: 32,
	})
	exprs := []string{"/a/b", "/a/c", "//x", "/a[b]//x", "//c", "/a/*/x"}
	docs := []*xmltree.Tree{
		doc(t, "a(b(x),c)"), doc(t, "a(b)"), doc(t, "a(c(x))"), doc(t, "q(r)"),
	}
	// Seed the stream so similarities are meaningful, then count the
	// seed deliveries (none: no subscriptions yet).
	for _, d := range docs {
		if _, err := e.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()

	var (
		wg           sync.WaitGroup
		resDelivered atomic.Uint64 // sum of PublishResult.Deliveries
		resDropped   atomic.Uint64 // sum of PublishResult.Dropped
		unsubs       atomic.Uint64
		liveMu       sync.Mutex
		liveIDs      []uint64
	)
	for w := 0; w < 4; w++ { // publishers
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				r, err := e.Publish(docs[rng.Intn(len(docs))])
				if err != nil {
					t.Error(err)
					return
				}
				resDelivered.Add(uint64(r.Deliveries))
				resDropped.Add(uint64(r.Dropped))
			}
		}(int64(100 + w))
	}
	for w := 0; w < 2; w++ { // churners
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine []uint64
			for i := 0; i < 100; i++ {
				if len(mine) == 0 || rng.Intn(2) == 0 {
					id, err := e.Subscribe(exprs[rng.Intn(len(exprs))])
					if err != nil {
						t.Error(err)
						return
					}
					mine = append(mine, id)
					liveMu.Lock()
					liveIDs = append(liveIDs, id)
					liveMu.Unlock()
					checkForests(t, e, docs...)
				} else {
					k := rng.Intn(len(mine))
					id := mine[k]
					mine = append(mine[:k], mine[k+1:]...)
					liveMu.Lock()
					for j, v := range liveIDs {
						if v == id {
							liveIDs = append(liveIDs[:j], liveIDs[j+1:]...)
							break
						}
					}
					liveMu.Unlock()
					// Best-effort drain first; a racing publish may still
					// strand deliveries (bounded below).
					e.Drain(id, 0, 0)
					if e.Unsubscribe(id) {
						unsubs.Add(1)
					}
					checkForests(t, e, docs...)
				}
			}
		}(int64(200 + w))
	}
	for w := 0; w < 2; w++ { // drainers (long-poll path included)
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				liveMu.Lock()
				var id uint64
				if len(liveIDs) > 0 {
					id = liveIDs[rng.Intn(len(liveIDs))]
				}
				liveMu.Unlock()
				if id != 0 {
					e.Drain(id, 16, time.Millisecond)
				}
			}
		}(int64(300 + w))
	}
	wg.Wait()
	e.Flush()
	checkForests(t, e, docs...)

	st := e.Stats()
	// Publish results and the delivered counter are two independent
	// tallies of the same fan-out.
	if got := resDelivered.Load(); got != st.Deliveries {
		t.Fatalf("sum of PublishResult.Deliveries = %d, stats.Deliveries = %d", got, st.Deliveries)
	}
	if got := resDropped.Load(); got != st.Dropped {
		t.Fatalf("sum of PublishResult.Dropped = %d, stats.Dropped = %d", got, st.Dropped)
	}
	// Everything delivered is drained, pending, or stranded behind an
	// unsubscribe; stranding is bounded by churn × queue capacity.
	pending := uint64(0)
	liveMu.Lock()
	for _, id := range liveIDs {
		pending += uint64(e.Pending(id))
	}
	liveMu.Unlock()
	accounted := st.Drained + pending
	if accounted > st.Deliveries {
		t.Fatalf("drained(%d) + pending(%d) exceeds delivered(%d)", st.Drained, pending, st.Deliveries)
	}
	if stranded := st.Deliveries - accounted; stranded > unsubs.Load()*32 {
		t.Fatalf("stranded deliveries %d exceed unsubscribe bound %d", stranded, unsubs.Load()*32)
	}
	if st.DocsObserved != int(st.Published) {
		t.Fatalf("DocsObserved %d != Published %d after Flush", st.DocsObserved, st.Published)
	}
}

// TestPublishBatch covers a run of publishes, which is what the
// daemon's batched POST /publish makes of a batch: sequences are
// consecutive, deliveries follow each document, and the run feeds the
// synopsis.
func TestPublishBatch(t *testing.T) {
	e := newTestEngine(t, Config{})
	id, err := e.Subscribe("//b")
	if err != nil {
		t.Fatal(err)
	}
	batch := []*xmltree.Tree{doc(t, "a(b)"), doc(t, "zzz"), doc(t, "a(b(c))")}
	rs := make([]PublishResult, len(batch))
	for i, d := range batch {
		if rs[i], err = e.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Seq != rs[i-1].Seq+1 {
			t.Fatalf("non-consecutive batch seqs: %+v", rs)
		}
	}
	if rs[0].Deliveries != 1 || rs[1].Deliveries != 0 || rs[2].Deliveries != 1 {
		t.Fatalf("batch deliveries = %d/%d/%d, want 1/0/1", rs[0].Deliveries, rs[1].Deliveries, rs[2].Deliveries)
	}
	ds, err := e.Drain(id, 10, time.Second)
	if err != nil || len(ds) != 2 {
		t.Fatalf("Drain = %v, %v; want the 2 matching docs", ds, err)
	}
	if ds[0].Doc != rs[0].Seq || ds[1].Doc != rs[2].Seq {
		t.Fatalf("drained %v, want seqs %d and %d", ds, rs[0].Seq, rs[2].Seq)
	}
	e.Flush()
	if got := e.Stats().DocsObserved; got != 3 {
		t.Fatalf("DocsObserved = %d, want 3", got)
	}
	e.Close()
	if _, err := e.Publish(batch[0]); err != ErrClosed {
		t.Fatalf("Publish after Close: %v, want ErrClosed", err)
	}
}
