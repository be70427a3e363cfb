package broker

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treesim/internal/core"
	"treesim/internal/xmltree"
)

// TestShardedPublishChurnDrain is the sharded plane's race workout plus
// its correctness anchor, in two phases:
//
//  1. A concurrent hammer (publishers + subscribe/unsubscribe churn +
//     long-poll drains against a 4-shard engine, meant to run under
//     -race) asserting delivery-count conservation: every delivery the
//     publish results claim is accounted for by the delivered counter,
//     and everything delivered is either drained, still pending, or
//     stranded in an unsubscribed queue (bounded by churn × capacity).
//  2. A deterministic differential replay: the same serial event
//     sequence against a 1-shard and a 5-shard engine must produce
//     identical per-subscription delivery sets — sharding may only
//     change where matching runs, never what is delivered.
func TestShardedPublishChurnDrain(t *testing.T) {
	e := newTestEngine(t, Config{
		Shards:        4,
		Estimator:     core.Config{Representation: core.Hashes, HashCapacity: 64, Seed: 7},
		Rebuild:       DirtyFraction{Fraction: 0.3, MinStale: 8},
		QueueCapacity: 32,
	})
	if e.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", e.Shards())
	}
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
	for w := 0; w < 3; w++ { // publishers
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				if rng.Intn(4) == 0 { // batches exercise PublishBatch too
					batch := []*xmltree.Tree{docs[rng.Intn(len(docs))], docs[rng.Intn(len(docs))]}
					rs, err := e.PublishBatch(batch)
					if err != nil {
						t.Error(err)
						return
					}
					for _, r := range rs {
						resDelivered.Add(uint64(r.Deliveries))
						resDropped.Add(uint64(r.Dropped))
					}
					continue
				}
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

	// Phase 2: sharded and unsharded engines must route identically.
	diffShardedVsUnsharded(t)
}

// diffShardedVsUnsharded replays one serial subscribe/publish/churn
// script against a single-shard and a 5-shard engine and requires the
// delivery streams to match per subscription id, delivery for delivery
// (sequence AND community).
func diffShardedVsUnsharded(t *testing.T) {
	type run struct {
		shards int
		got    map[uint64][]Delivery
	}
	runs := []*run{{shards: -1}, {shards: 5}}
	for _, r := range runs {
		e := newTestEngine(t, Config{
			Shards:        r.shards,
			Estimator:     core.Config{Representation: core.Hashes, HashCapacity: 128, Seed: 11},
			Rebuild:       DirtyFraction{Fraction: 0.25, MinStale: 6},
			QueueCapacity: 1024,
		})
		r.got = replayScript(t, e)
	}
	if len(runs[0].got) == 0 {
		t.Fatal("differential script produced no deliveries")
	}
	if !reflect.DeepEqual(runs[0].got, runs[1].got) {
		for id, a := range runs[0].got {
			if b := runs[1].got[id]; !reflect.DeepEqual(a, b) {
				t.Errorf("subscription %d: unsharded %v, sharded %v", id, a, b)
			}
		}
		t.Fatal("sharded delivery sets differ from unsharded")
	}
}

// replayScript drives a fixed event sequence (deterministic given the
// engine config) and returns every subscription's full delivery stream.
func replayScript(t *testing.T, e *Engine) map[uint64][]Delivery {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	exprs := []string{"/a/b", "/a/c", "//x", "/a[b]//x", "//c", "/a/*/x", "//b", "/q//r"}
	docs := []*xmltree.Tree{
		doc(t, "a(b(x),c)"), doc(t, "a(b)"), doc(t, "a(c(x))"), doc(t, "q(r)"),
		doc(t, "a(b(x,c),c(x))"), doc(t, "q(s(r))"),
	}
	collected := make(map[uint64][]Delivery)
	var live []uint64
	drain := func(id uint64) {
		ds, err := e.Drain(id, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		collected[id] = append(collected[id], ds...)
	}
	// Seed stream, then a fixed mixed script. Flush points make the
	// synopsis (and so every similarity decision) deterministic.
	for i := 0; i < 12; i++ {
		if _, err := e.Publish(docs[i%len(docs)]); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	for i := 0; i < 24; i++ {
		id, err := e.Subscribe(exprs[rng.Intn(len(exprs))])
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	for round := 0; round < 15; round++ {
		for i := 0; i < 6; i++ {
			if _, err := e.Publish(docs[rng.Intn(len(docs))]); err != nil {
				t.Fatal(err)
			}
		}
		e.Flush()
		// Churn: retire one subscription (collecting its deliveries
		// first) and admit a new one.
		k := rng.Intn(len(live))
		drain(live[k])
		if !e.Unsubscribe(live[k]) {
			t.Fatalf("unsubscribe %d failed", live[k])
		}
		live = append(live[:k], live[k+1:]...)
		id, err := e.Subscribe(exprs[rng.Intn(len(exprs))])
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	for _, id := range live {
		drain(id)
	}
	return collected
}

// TestShardPlacementKeepsCommunitiesTogether checks the tentpole's
// placement invariant directly: after arbitrary churn and a forced
// rebuild, every member of a community lives on the community's shard,
// and the per-shard live counts match the registry.
func TestShardPlacementKeepsCommunitiesTogether(t *testing.T) {
	e := newTestEngine(t, Config{
		Shards:    3,
		Estimator: core.Config{Representation: core.Sets, Seed: 3},
		Rebuild:   Staleness{MaxStale: 7},
	})
	for i := 0; i < 10; i++ {
		if _, err := e.Publish(doc(t, "a(b(x),c)")); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	var ids []uint64
	for i := 0; i < 30; i++ {
		id, err := e.Subscribe([]string{"/a/b", "/a/c", "//x", "//zzz" + fmt.Sprint(i%5)}[i%4])
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 10; i += 2 {
		e.Unsubscribe(ids[i])
	}
	e.Rebuild()

	e.mu.RLock()
	defer e.mu.RUnlock()
	if len(e.commShard) != len(e.comms.Groups) {
		t.Fatalf("commShard length %d != groups %d", len(e.commShard), len(e.comms.Groups))
	}
	wantLive := make([]int, len(e.shards))
	for g, members := range e.comms.Groups {
		si := e.commShard[g]
		wantLive[si] += len(members)
		for _, idx := range members {
			if e.subs[idx].shard != si {
				t.Fatalf("community %d on shard %d has member on shard %d", g, si, e.subs[idx].shard)
			}
		}
	}
	for si, want := range wantLive {
		if e.shardLive[si] != want {
			t.Fatalf("shardLive[%d] = %d, want %d", si, e.shardLive[si], want)
		}
	}
	// Each shard's routing table covers exactly its communities.
	total := 0
	for si, sh := range e.shards {
		for _, g := range sh.groups {
			if e.commShard[g.comm] != si {
				t.Fatalf("shard %d routes community %d pinned to shard %d", si, g.comm, e.commShard[g.comm])
			}
			total++
		}
	}
	if total != len(e.comms.Groups) {
		t.Fatalf("routing tables cover %d communities, want %d", total, len(e.comms.Groups))
	}
}

// TestPublishBatch covers the batched entry point: results align with
// the inputs, sequences are consecutive, deliveries match the
// per-document path, and the batch feeds the synopsis.
func TestPublishBatch(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 2})
	id, err := e.Subscribe("//b")
	if err != nil {
		t.Fatal(err)
	}
	batch := []*xmltree.Tree{doc(t, "a(b)"), doc(t, "zzz"), doc(t, "a(b(c))")}
	rs, err := e.PublishBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("got %d results, want 3", len(rs))
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
	if rs, err := e.PublishBatch(nil); err != nil || len(rs) != 0 {
		t.Fatalf("empty batch = %v, %v", rs, err)
	}
	e.Close()
	if _, err := e.PublishBatch(batch); err != ErrClosed {
		t.Fatalf("PublishBatch after Close: %v, want ErrClosed", err)
	}
}
