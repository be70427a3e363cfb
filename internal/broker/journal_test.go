package broker

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"treesim/internal/core"
	"treesim/internal/pattern"
	"treesim/internal/persist"
	"treesim/internal/xmltree"
)

// checkJournalOrder fails if a delivery record names a subscription
// before that subscription's own record: replay skips a delivery to an
// id it does not know yet, so such a log recovers less than the live
// engine held.
func checkJournalOrder(t *testing.T, recs []persist.Record) {
	t.Helper()
	subscribed := make(map[uint64]bool)
	for i, r := range recs {
		switch r.Op {
		case persist.OpSubscribe:
			subscribed[r.ID] = true
		case persist.OpDeliver:
			for _, id := range r.Subs {
				if !subscribed[id] {
					t.Fatalf("record %d delivers seq %d to subscription %d before its OpSubscribe", i, r.Seq, id)
				}
			}
		}
	}
}

// TestDeliveryJournaledAfterItsSubscription publishes from inside the
// journal append of an at-least-once subscribe — inside its registry
// critical section, the latest point a concurrent publish can run
// before the subscribe returns. The subscribe's record is appended
// before the subscription is visible, so that publish cannot journal a
// delivery to it ahead of its record, and replay holds what the live
// engine holds.
func TestDeliveryJournaledAfterItsSubscription(t *testing.T) {
	e := newTestEngine(t, Config{})
	published := false
	j := &hookJournal{subscribed: func(persist.Record) {
		if !published {
			published = true
			if _, err := e.Publish(doc(t, "a(b)")); err != nil {
				t.Error(err)
			}
		}
	}}
	e.SetJournal(j)
	id, err := e.SubscribeOpts("/a", SubscribeOptions{Mode: AtLeastOnce})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Publish(doc(t, "a")); err != nil {
		t.Fatal(err)
	}
	recs := j.records()
	if live, got := e.Pending(id), replayed(t, recs).Pending(id); got != live {
		t.Fatalf("replay holds %d pending deliveries, the live engine %d", got, live)
	}
	checkJournalOrder(t, recs)
}

// TestJournalReplaysConcurrentChurn runs publishers beside at-least-once
// subscribes, drains, acks and unsubscribes on one journaled engine
// (meant for -race). Afterwards no delivery record may precede its
// subscription's record, and replaying the log into a fresh engine must
// reproduce every live subscription's pending count and committed
// cursor.
func TestJournalReplaysConcurrentChurn(t *testing.T) {
	cfg := Config{
		Estimator:     core.Config{Representation: core.Hashes, HashCapacity: 64, Seed: 7},
		QueueCapacity: 8,
	}
	e := newTestEngine(t, cfg)
	j := new(memJournal)
	e.SetJournal(j)
	exprs := []string{"/a/b", "/a/c", "//x", "/a[b]//x", "//c", "/a/*/x"}
	docs := []*xmltree.Tree{doc(t, "a(b(x),c)"), doc(t, "a(b)"), doc(t, "a(c(x))"), doc(t, "q(r)")}

	var wg sync.WaitGroup
	for w := range 4 { // publishers
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for range 150 {
				if _, err := e.Publish(docs[rng.Intn(len(docs))]); err != nil {
					t.Error(err)
					return
				}
			}
		}(rand.New(rand.NewSource(int64(100 + w))))
	}
	for w := range 2 { // churners, each draining and acking its own
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			var mine []uint64
			for range 60 {
				if len(mine) < 2 || rng.Intn(3) == 0 {
					id, err := e.SubscribeOpts(exprs[rng.Intn(len(exprs))], SubscribeOptions{Mode: AtLeastOnce})
					if err != nil {
						t.Error(err)
						return
					}
					mine = append(mine, id)
					continue
				}
				k := rng.Intn(len(mine))
				if rng.Intn(3) == 0 {
					e.Unsubscribe(mine[k])
					mine = slices.Delete(mine, k, k+1)
					continue
				}
				r, err := e.DrainBatch(mine[k], 1+rng.Intn(8), 0)
				if err != nil {
					t.Error(err)
					return
				}
				if r.Cursor > 0 && rng.Intn(2) == 0 {
					if _, err := e.Ack(mine[k], r.Cursor); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(rand.New(rand.NewSource(int64(200 + w))))
	}
	wg.Wait()

	recs := j.records()
	checkJournalOrder(t, recs)
	rec := newTestEngine(t, cfg)
	applyRecords(t, rec, recs)
	live := 0
	for _, si := range e.IntrospectSubscriptions() {
		_, _, committed, _, _ := e.byID[si.ID].q.info()
		s := rec.byID[si.ID]
		if s == nil {
			t.Fatalf("subscription %d is live but not replayed", si.ID)
		}
		_, _, got, _, _ := s.q.info()
		if pending := s.pending(); pending != e.Pending(si.ID) || got != committed {
			t.Errorf("subscription %d: replay holds %d pending, committed cursor %d; the live engine %d, %d",
				si.ID, pending, got, e.Pending(si.ID), committed)
		}
		live++
	}
	if live == 0 || rec.Live() != live {
		t.Fatalf("%d live subscriptions, %d replayed", live, rec.Live())
	}
}

// TestRebucketBesidePublishAndChurn runs publishers, subscribes and
// unsubscribes in both modes, and re-buckets — forced, and by the
// doubling rule as the stream grows — concurrently on one journaled
// engine (meant for -race). Throughout, Explain predicts what Publish
// does on the same partition; afterwards no delivery record precedes its
// subscription's record, and applying the journal to a fresh engine
// reproduces the final partition.
func TestRebucketBesidePublishAndChurn(t *testing.T) {
	cfg := Config{Estimator: core.Config{Representation: core.Hashes, HashCapacity: 64, Seed: 7}, QueueCapacity: 1024}
	e := newTestEngine(t, cfg)
	j := new(memJournal)
	e.SetJournal(j)
	docs, pats := benchWorkload(600, 60)
	publishFlushed(t, e, docs[:20])

	var wg sync.WaitGroup
	for w := range 2 { // publishers: the stream grows 30-fold, so views move
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 20 + w; i < len(docs); i += 2 {
				if _, err := e.Publish(docs[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for w := range 2 { // churners
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			var mine []uint64
			for range 80 {
				if len(mine) < 3 || rng.Intn(3) > 0 {
					id, err := e.SubscribePattern(pats[rng.Intn(len(pats))], "")
					if err == nil && rng.Intn(2) == 0 {
						e.Unsubscribe(id)
						id, err = e.SubscribeOpts(pats[rng.Intn(len(pats))].String(), SubscribeOptions{Mode: AtLeastOnce})
					}
					if err != nil {
						t.Error(err)
						return
					}
					mine = append(mine, id)
					continue
				}
				k := rng.Intn(len(mine))
				e.Unsubscribe(mine[k])
				mine = slices.Delete(mine, k, k+1)
			}
		}(rand.New(rand.NewSource(int64(400 + w))))
	}
	wg.Add(2)
	go func() { // forced re-buckets
		defer wg.Done()
		for range 20 {
			e.Rebuild()
		}
	}()
	compared := 0
	go func() { // Explain against Publish, the registry held still between them
		defer wg.Done()
		for i := range 100 {
			d := docs[i]
			e.mu.RLock()
			ex, err := e.Explain(d)
			res, perr := e.Publish(d)
			e.mu.RUnlock()
			if err != nil || perr != nil {
				t.Error(err, perr)
				return
			}
			if ex.MatchedCommunities != res.Matched || len(ex.Deliveries) != res.Deliveries {
				t.Errorf("Explain predicted %d communities and %d deliveries, Publish made %d and %d",
					ex.MatchedCommunities, len(ex.Deliveries), res.Matched, res.Deliveries)
			}
			compared++
		}
	}()
	wg.Wait()

	recs := j.records()
	checkJournalOrder(t, recs)
	rebuilds := 0
	for _, r := range recs {
		if r.Op == persist.OpRebuild {
			rebuilds++
		}
	}
	rec := newTestEngine(t, cfg)
	applyRecords(t, rec, recs)
	if got, want := placement(rec), placement(e); !reflect.DeepEqual(got, want) {
		t.Fatalf("the journal replays to %v, the engine holds %v", got, want)
	}
	if compared != 100 || rebuilds < 20 || e.Stats().Communities >= e.Live() {
		t.Fatalf("%d Explain/Publish pairs compared, %d re-buckets journaled, %d communities for %d live",
			compared, rebuilds, e.Stats().Communities, e.Live())
	}
}

// TestEmptyExprKeepsItsPattern: a subscription made from a parsed
// pattern with no expression keeps the pattern's text, so introspection
// shows it and replay and Restore route it like the live engine — the
// empty expression itself would parse as the match-all pattern.
func TestEmptyExprKeepsItsPattern(t *testing.T) {
	p, err := pattern.Parse("/a/b")
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, Config{})
	j := new(memJournal)
	e.SetJournal(j)
	id, err := e.SubscribePattern(p, "")
	if err != nil {
		t.Fatal(err)
	}
	if si := e.IntrospectSubscriptions(); len(si) != 1 || si[0].Pattern != p.String() {
		t.Fatalf("introspection shows %+v, want pattern %q", si, p.String())
	}
	st, err := e.State()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(Config{}, st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restored.Close() })
	for name, eng := range map[string]*Engine{"live": e, "replayed": replayed(t, j.records()), "restored": restored} {
		for _, c := range []string{"a(b)", "z"} {
			if _, err := eng.Publish(doc(t, c)); err != nil {
				t.Fatal(err)
			}
		}
		if got := eng.Pending(id); got != 1 {
			t.Errorf("%s engine: %d pending deliveries after a(b) and z, want 1", name, got)
		}
	}
}

// TestReplayRestoresDeliveriesInCursorOrder: concurrent publishes journal
// their deliveries in the order their appends complete, so replay
// inserts each by cursor — a lower cursor after a higher one is not a
// duplicate — while a cursor at or below the restored snapshot's
// high-water mark (here one the snapshot had shed) stays out.
func TestReplayRestoresDeliveriesInCursorOrder(t *testing.T) {
	deliver := func(cursor uint64) persist.Record {
		return persist.Record{Op: persist.OpDeliver, Seq: cursor, Subs: []uint64{1}, Cursors: []uint64{cursor}, Comms: []int{0}}
	}
	check := func(e *Engine, want ...uint64) {
		t.Helper()
		r, err := e.DrainBatch(1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got []uint64
		for _, d := range r.Deliveries {
			got = append(got, d.Cursor)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("replayed cursors %v, want %v", got, want)
		}
	}
	check(replayed(t, []persist.Record{subRec(1, "/a", 0, AtLeastOnce), deliver(3), deliver(2), deliver(2)}), 2, 3)

	st := &State{Format: stateFormat, NextID: 1, Groups: [][]int{{0}}, Reps: []int{0}, Subs: []SubEntry{
		{ID: 1, Expr: "/a", Mode: uint8(AtLeastOnce), LastCursor: 5, Queued: []QueuedDelivery{{Cursor: 5, Doc: 5}}},
	}}
	e, err := Restore(Config{}, st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	applyRecords(t, e, []persist.Record{deliver(7), deliver(4), deliver(6)})
	check(e, 5, 6, 7)
}
