package broker

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treesim/internal/core"
	"treesim/internal/persist"
	"treesim/internal/xmltree"
)

// memJournal records delivery-plane WAL records in memory with
// sequential LSNs. The crash-point matrix replays arbitrary prefixes of
// it: every prefix is a legal crash (records are appended in commit
// order), and recovery from any of them must preserve the at-least-once
// contract — duplicates allowed, loss never.
type memJournal struct {
	mu   sync.Mutex
	recs []persist.Record
}

func (j *memJournal) Append(r persist.Record) (uint64, error) {
	// A deliver record's arrays are the publish's scratch; a record kept
	// past the call owns copies.
	r.Subs, r.Cursors, r.Comms = slices.Clone(r.Subs), slices.Clone(r.Cursors), slices.Clone(r.Comms)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.recs = append(j.recs, r)
	return uint64(len(j.recs)), nil
}

func (j *memJournal) records() []persist.Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]persist.Record(nil), j.recs...)
}

// dropOps returns recs without any record matching op — "the crash hit
// before this decision reached the WAL".
func dropOps(recs []persist.Record, op string) []persist.Record {
	out := make([]persist.Record, 0, len(recs))
	for _, r := range recs {
		if r.Op != op {
			out = append(out, r)
		}
	}
	return out
}

// applyRecords drives records through Engine.Apply, exactly as a WAL
// replay would.
func applyRecords(t *testing.T, e *Engine, recs []persist.Record) {
	t.Helper()
	for i, rec := range recs {
		if err := e.Apply(rec); err != nil {
			t.Fatalf("replay record %d (%s): %v", i, rec.Op, err)
		}
	}
}

func TestAckedDrainAckLifecycle(t *testing.T) {
	e := newTestEngine(t, Config{})
	id, err := e.SubscribeOpts("//b", SubscribeOptions{Mode: AtLeastOnce})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Publish(doc(t, "a(b)")); err != nil {
			t.Fatal(err)
		}
	}
	r, err := e.DrainBatch(id, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode != AtLeastOnce || len(r.Deliveries) != 3 {
		t.Fatalf("DrainBatch = mode %v, %d deliveries; want at-least-once, 3", r.Mode, len(r.Deliveries))
	}
	for i, d := range r.Deliveries {
		if d.Cursor != uint64(i+1) || d.Redelivered {
			t.Fatalf("delivery %d = cursor %d redelivered %v; want cursor %d, fresh", i, d.Cursor, d.Redelivered, i+1)
		}
	}
	if r.Cursor != 3 || r.Committed != 0 {
		t.Fatalf("batch cursor %d committed %d, want 3, 0", r.Cursor, r.Committed)
	}
	// The whole batch is leased: nothing is drainable until acks or
	// lease expiry.
	if r2, _ := e.DrainBatch(id, 0, 0); len(r2.Deliveries) != 0 {
		t.Fatalf("second drain returned %d leased deliveries", len(r2.Deliveries))
	}
	if acked, err := e.Ack(id, 2); err != nil || acked != 2 {
		t.Fatalf("Ack(2) = %d, %v; want 2 acked", acked, err)
	}
	// Acks are idempotent.
	if acked, err := e.Ack(id, 2); err != nil || acked != 0 {
		t.Fatalf("re-Ack(2) = %d, %v; want 0 acked", acked, err)
	}
	// Cursor 3 is still leased; lapse the lease and it must come back
	// flagged as a redelivery.
	if n := e.SweepLeases(time.Now().Add(48 * time.Hour)); n != 1 {
		t.Fatalf("SweepLeases reclaimed %d, want 1", n)
	}
	r3, err := e.DrainBatch(id, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.Deliveries) != 1 || r3.Deliveries[0].Cursor != 3 || !r3.Deliveries[0].Redelivered {
		t.Fatalf("post-expiry drain = %+v; want one redelivery of cursor 3", r3.Deliveries)
	}
	if r3.Committed != 2 {
		t.Fatalf("committed = %d, want 2", r3.Committed)
	}
	if acked, err := e.Ack(id, 3); err != nil || acked != 1 {
		t.Fatalf("Ack(3) = %d, %v; want 1 acked", acked, err)
	}
	if e.Pending(id) != 0 {
		t.Fatalf("Pending = %d after full ack, want 0", e.Pending(id))
	}
	st := e.Stats()
	if st.Acked != 3 || st.Redeliveries != 1 || st.LeaseExpiries != 1 {
		t.Fatalf("stats acked %d redeliveries %d lease expiries %d; want 3, 1, 1",
			st.Acked, st.Redeliveries, st.LeaseExpiries)
	}
}

func TestAckErrors(t *testing.T) {
	e := newTestEngine(t, Config{})
	amo, err := e.Subscribe("//b")
	if err != nil {
		t.Fatal(err)
	}
	alo, err := e.SubscribeOpts("//c", SubscribeOptions{Mode: AtLeastOnce})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ack(99999, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Ack(unknown) = %v, want ErrNotFound", err)
	}
	if _, err := e.Ack(amo, 1); !errors.Is(err, ErrWrongMode) {
		t.Fatalf("Ack(at-most-once sub) = %v, want ErrWrongMode", err)
	}
	// The log never issued cursor 7: acking it must be refused, not
	// silently ratcheted past deliveries the consumer never saw.
	if _, err := e.Ack(alo, 7); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("Ack(unissued cursor) = %v, want ErrBadCursor", err)
	}
	e.Close()
	if _, err := e.Ack(alo, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ack(closed engine) = %v, want ErrClosed", err)
	}
}

func TestAtMostOnceGapMarker(t *testing.T) {
	e := newTestEngine(t, Config{QueueCapacity: 4})
	id, err := e.Subscribe("//b")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := e.Publish(doc(t, "a(b)")); err != nil {
			t.Fatal(err)
		}
	}
	r, err := e.DrainBatch(id, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode != AtMostOnce || len(r.Deliveries) != 4 {
		t.Fatalf("DrainBatch = mode %v, %d deliveries; want at-most-once, 4", r.Mode, len(r.Deliveries))
	}
	// 6 deliveries were evicted drop-oldest between polls: the batch
	// must say so explicitly instead of leaving a silent hole.
	if r.Gap != 6 {
		t.Fatalf("gap = %d, want 6", r.Gap)
	}
	if r2, _ := e.DrainBatch(id, 0, 0); r2.Gap != 0 {
		t.Fatalf("gap after observing it = %d, want 0", r2.Gap)
	}
}

func TestAckedDocPinnedPastRingWrap(t *testing.T) {
	e := newTestEngine(t, Config{DocCache: 4})
	id, err := e.SubscribeOpts("//b", SubscribeOptions{Mode: AtLeastOnce})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Publish(doc(t, "a(b)"))
	if err != nil {
		t.Fatal(err)
	}
	// Wrap the retention ring with documents that match nothing.
	for i := 0; i < 8; i++ {
		if _, err := e.Publish(doc(t, "x(y)")); err != nil {
			t.Fatal(err)
		}
	}
	// The unacked delivery pins its document past the ring's horizon.
	if e.Document(res.Seq) == nil {
		t.Fatalf("document %d evicted while its delivery is unacked", res.Seq)
	}
	r, err := e.DrainBatch(id, 0, 0)
	if err != nil || len(r.Deliveries) != 1 {
		t.Fatalf("DrainBatch = %v, %v; want the pinned delivery", r.Deliveries, err)
	}
	if e.Document(res.Seq) == nil {
		t.Fatal("document unpinned while leased")
	}
	if _, err := e.Ack(id, r.Cursor); err != nil {
		t.Fatal(err)
	}
	// Acked: the pin drops, and the ring wrapped long ago.
	if e.Document(res.Seq) != nil {
		t.Fatalf("document %d still retained after ack and ring wrap", res.Seq)
	}
}

// TestCrashPointMatrix replays every interesting WAL prefix of one
// acked-delivery history: subscribe, four deliveries, a drained batch,
// an ack of the first two. Whatever the crash point, recovery must
// redeliver everything unacked (duplicates allowed) and never lose a
// delivery or resurrect an acked one past its committed cursor.
func TestCrashPointMatrix(t *testing.T) {
	cfg := Config{}
	e := newTestEngine(t, cfg)
	j := &memJournal{}
	e.SetJournal(j)
	id, err := e.SubscribeOpts("//b", SubscribeOptions{Mode: AtLeastOnce})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]uint64, 0, 4)
	for i := 0; i < 4; i++ {
		res, err := e.Publish(doc(t, "a(b)"))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, res.Seq)
	}
	if r, err := e.DrainBatch(id, 0, 0); err != nil || len(r.Deliveries) != 4 {
		t.Fatalf("drain = %v, %v; want 4", r, err)
	}
	if _, err := e.Ack(id, 2); err != nil {
		t.Fatal(err)
	}
	full := j.records()

	// recover builds a fresh engine from a record sequence and asserts
	// the redeliverable window: wantCursors come back (flagged), the
	// committed floor holds, and every redelivered document's content is
	// still retrievable.
	recover := func(t *testing.T, recs []persist.Record, wantCommitted uint64, wantCursors ...uint64) *Engine {
		t.Helper()
		e2 := newTestEngine(t, cfg)
		applyRecords(t, e2, recs)
		if e2.Live() != 1 {
			t.Fatalf("recovered %d live subs, want 1", e2.Live())
		}
		r, err := e2.DrainBatch(id, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.Committed != wantCommitted {
			t.Fatalf("recovered committed = %d, want %d", r.Committed, wantCommitted)
		}
		if len(r.Deliveries) != len(wantCursors) {
			t.Fatalf("recovered drain = %d deliveries, want %d (%v)", len(r.Deliveries), len(wantCursors), r.Deliveries)
		}
		for i, d := range r.Deliveries {
			if d.Cursor != wantCursors[i] {
				t.Fatalf("recovered delivery %d cursor = %d, want %d", i, d.Cursor, wantCursors[i])
			}
			if !d.Redelivered {
				t.Fatalf("recovered delivery cursor %d not flagged Redelivered", d.Cursor)
			}
			if e2.Document(d.Doc) == nil {
				t.Fatalf("recovered delivery of doc %d has no retrievable content", d.Doc)
			}
		}
		return e2
	}

	t.Run("full_wal", func(t *testing.T) {
		e2 := recover(t, full, 2, 3, 4)
		// The cursor log continues where it left off.
		if _, err := e2.Publish(doc(t, "a(b)")); err != nil {
			t.Fatal(err)
		}
		if _, err := e2.Ack(id, 4); err != nil {
			t.Fatal(err)
		}
		r, err := e2.DrainBatch(id, 0, 0)
		if err != nil || len(r.Deliveries) != 1 || r.Deliveries[0].Cursor != 5 {
			t.Fatalf("post-recovery publish = %+v, %v; want fresh cursor 5", r.Deliveries, err)
		}
	})

	t.Run("ack_in_flight", func(t *testing.T) {
		// Crash before the ack reached the WAL: the committed floor
		// regresses and the acked window comes back as duplicates —
		// at-least-once trades duplicates for loss, never the reverse.
		recover(t, dropOps(full, persist.OpAck), 0, 1, 2, 3, 4)
	})

	t.Run("handout_in_flight", func(t *testing.T) {
		// Crash before the drained hand-out was journaled: the window is
		// still owed. Replayed deliveries count one prior attempt, so the
		// post-recovery drain is conservatively flagged Redelivered even
		// without the OpDrained record.
		recover(t, dropOps(dropOps(full, persist.OpAck), persist.OpDrained), 0, 1, 2, 3, 4)
	})

	t.Run("double_replay", func(t *testing.T) {
		// Replaying the same WAL twice (a snapshot that already covers a
		// prefix, a crash during recovery) must not duplicate entries:
		// cursor dedupe makes every record idempotent.
		recover(t, append(append([]persist.Record(nil), full...), full...), 2, 3, 4)
	})

	t.Run("snapshot_after_ack", func(t *testing.T) {
		st, err := e.State()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := EncodeState(st)
		if err != nil {
			t.Fatal(err)
		}
		st2, err := DecodeState(blob)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := Restore(cfg, st2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e2.Close() })
		r, err := e2.DrainBatch(id, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.Committed != 2 || len(r.Deliveries) != 2 {
			t.Fatalf("snapshot recovery = committed %d, %d deliveries; want 2, 2", r.Committed, len(r.Deliveries))
		}
		for _, d := range r.Deliveries {
			if !d.Redelivered || e2.Document(d.Doc) == nil {
				t.Fatalf("snapshot-recovered delivery %+v: want flagged, content retained", d)
			}
		}
		if _, err := e2.Ack(id, 4); err != nil {
			t.Fatal(err)
		}
	})
	_ = seqs
}

// TestAckedConservationHammer runs publishers, draining/acking
// consumers, a lease sweeper, and churn concurrently (meant for -race),
// then checks the per-subscription conservation law at quiescence:
// every accepted delivery is acked, shed, or still owed — none vanish.
func TestAckedConservationHammer(t *testing.T) {
	e := newTestEngine(t, Config{QueueCapacity: 8}) // ack log capacity 32: shedding is part of the test
	var ids []uint64
	for i := 0; i < 4; i++ {
		id, err := e.SubscribeOpts("//b", SubscribeOptions{Mode: AtLeastOnce})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	amo, err := e.Subscribe("//b")
	if err != nil {
		t.Fatal(err)
	}

	const docs = 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < docs/2; i++ {
				if _, err := e.Publish(doc(t, "a(b)")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[k%len(ids)]
				r, err := e.DrainBatch(id, 8, time.Millisecond)
				if err != nil {
					t.Error(err)
					return
				}
				// Half the batches ack; the rest stall and must be
				// reclaimed by the sweeper.
				if len(r.Deliveries) > 0 && rng.Intn(2) == 0 {
					if _, err := e.Ack(id, r.Cursor); err != nil {
						t.Error(err)
						return
					}
				}
				if k%7 == 0 {
					if _, err := e.Drain(amo, 8, 0); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.SweepLeases(time.Now().Add(time.Hour))
				time.Sleep(time.Millisecond)
			}
		}
	}()

	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	// Publishers finish on their own; consumers and the sweeper run
	// until stopped.
	deadline := time.After(30 * time.Second)
	pubDone := make(chan struct{})
	go func() {
		for e.Stats().Published < docs {
			time.Sleep(5 * time.Millisecond)
		}
		close(pubDone)
	}()
	select {
	case <-pubDone:
	case <-deadline:
		t.Fatal("publishers did not finish")
	}
	close(stop)
	<-done

	// Deterministic epilogue — a full stall → lease-expiry → redelivery
	// → ack cycle on every subscription, so the expiry assertions below
	// never depend on how the scheduler interleaved the hammer.
	for i := 0; i < 4; i++ {
		if _, err := e.Publish(doc(t, "a(b)")); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		if _, err := e.DrainBatch(id, 0, 0); err != nil {
			t.Fatal(err) // leases everything owed; deliberately unacked
		}
	}
	if n := e.SweepLeases(time.Now().Add(48 * time.Hour)); n == 0 {
		t.Fatal("epilogue: nothing leased to expire")
	}
	for _, id := range ids {
		r, err := e.DrainBatch(id, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Deliveries) == 0 {
			t.Fatalf("sub %d: stalled window never redelivered", id)
		}
		if _, err := e.Ack(id, r.Cursor); err != nil {
			t.Fatal(err)
		}
	}

	// Quiescent now: no concurrent movers. The ledger must balance per
	// subscription: delivered == acked + shed + pending + in-flight.
	for _, si := range e.IntrospectSubscriptions() {
		if si.Mode != "at-least-once" {
			continue
		}
		owed := si.Acked + si.Shed + uint64(si.Pending) + uint64(si.InFlight)
		if si.Delivered != owed {
			t.Fatalf("sub %d conservation broken: delivered %d != acked %d + shed %d + pending %d + inflight %d",
				si.ID, si.Delivered, si.Acked, si.Shed, si.Pending, si.InFlight)
		}
		if si.Delivered == 0 {
			t.Fatalf("sub %d saw no deliveries; hammer degenerate", si.ID)
		}
	}
	st := e.Stats()
	if st.LeaseExpiries == 0 || st.Redeliveries == 0 {
		t.Fatalf("hammer never exercised lease expiry/redelivery (expiries %d, redeliveries %d)", st.LeaseExpiries, st.Redeliveries)
	}
}

// TestAckedConservationHammerSharedLog is the hammer on one community:
// four at-least-once subscribers and one at-most-once subscriber read one
// log (a Sets view on one observed document gives all five one sample),
// where TestAckedConservationHammer's Counters default gives each its
// own. Beside publishers, consumers and the sweeper, one goroutine forces
// Rebuild — each after a split of the community, so that the rebuild
// moves members back with leased and unleased deliveries — and another
// unsubscribes and re-subscribes the representative, so the forest handle
// passes to a successor. The ledger and expiry assertions are the same.
func TestAckedConservationHammerSharedLog(t *testing.T) {
	e := newTestEngine(t, Config{Estimator: core.Config{Representation: core.Sets, Seed: 1}, QueueCapacity: 8})
	publishFlushed(t, e, []*xmltree.Tree{doc(t, "a(b)")})
	var (
		mu   sync.Mutex // ids, amo
		ids  []uint64
		amo  uint64
		opts = map[bool]SubscribeOptions{true: {Mode: AtLeastOnce}}
	)
	for i := 0; i < 5; i++ {
		id, err := e.SubscribeOpts("//b", opts[i < 4])
		if err != nil {
			t.Fatal(err)
		}
		if i < 4 {
			ids = append(ids, id)
		} else {
			amo = id
		}
	}
	if n := len(e.CommunityIDs()); n != 1 {
		t.Fatalf("%d communities, want the five in one", n)
	}
	pick := func(k int) (uint64, uint64) {
		mu.Lock()
		defer mu.Unlock()
		return ids[k%len(ids)], amo
	}
	gone := func(err error) bool { return err != nil && !errors.Is(err, ErrNotFound) }

	const docs = 300
	var (
		wg               sync.WaitGroup
		rebuilds, churns atomic.Int64
	)
	stop := make(chan struct{})
	loop := func(f func(k int) bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				if !f(k) {
					return
				}
			}
		}()
	}
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < docs/2; i++ {
				if _, err := e.Publish(doc(t, "a(b)")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		loop(func(k int) bool {
			id, amo := pick(k)
			r, err := e.DrainBatch(id, 8, time.Millisecond)
			if gone(err) {
				t.Error(err)
				return false
			}
			// Half the batches ack; the rest stall and must be reclaimed
			// by the sweeper.
			if len(r.Deliveries) > 0 && rng.Intn(2) == 0 {
				if _, err := e.Ack(id, r.Cursor); gone(err) {
					t.Error(err)
					return false
				}
			}
			if k%7 == 0 {
				if _, err := e.Drain(amo, 8, 0); gone(err) {
					t.Error(err)
					return false
				}
			}
			return true
		})
	}
	loop(func(int) bool {
		e.SweepLeases(time.Now().Add(time.Hour))
		time.Sleep(time.Millisecond)
		return true
	})
	loop(func(int) bool { // the rebuilder: split, then Rebuild merges the halves back
		var halves [2][]uint64
		for i, id := range slices.Concat(e.CommunityIDs()...) {
			halves[i%2] = append(halves[i%2], id)
		}
		if len(halves[1]) > 0 {
			e.Apply(persist.Record{Op: persist.OpRebuild, Groups: halves[:], Reps: []uint64{halves[0][0], halves[1][0]}}) // refused if churn raced it
		}
		time.Sleep(time.Millisecond)
		e.Rebuild()
		rebuilds.Add(1)
		return true
	})
	loop(func(int) bool { // the churner: the representative leaves and comes back
		rep := e.IntrospectCommunities()[0].RepID
		mu.Lock()
		defer mu.Unlock()
		k := slices.Index(ids, rep)
		if !e.Unsubscribe(rep) {
			t.Errorf("unsubscribe representative %d: not live", rep)
			return false
		}
		id, err := e.SubscribeOpts("//b", opts[k >= 0])
		if err != nil {
			t.Error(err)
			return false
		}
		if k >= 0 {
			ids[k] = id
		} else {
			amo = id
		}
		churns.Add(1)
		time.Sleep(200 * time.Microsecond)
		return true
	})

	for deadline := time.Now().Add(30 * time.Second); e.Stats().Published < docs+1 || rebuilds.Load() < 20 || churns.Load() < 20; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after 30s: %d published, %d rebuilds, %d churns", e.Stats().Published, rebuilds.Load(), churns.Load())
		}
	}
	close(stop)
	wg.Wait()

	// Deterministic epilogue — a full stall → lease-expiry → redelivery
	// → ack cycle on every subscription, so the expiry assertions below
	// never depend on how the scheduler interleaved the hammer.
	for i := 0; i < 4; i++ {
		if _, err := e.Publish(doc(t, "a(b)")); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		if _, err := e.DrainBatch(id, 0, 0); err != nil {
			t.Fatal(err) // leases everything owed; deliberately unacked
		}
	}
	if n := e.SweepLeases(time.Now().Add(48 * time.Hour)); n == 0 {
		t.Fatal("epilogue: nothing leased to expire")
	}
	for _, id := range ids {
		r, err := e.DrainBatch(id, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Deliveries) == 0 {
			t.Fatalf("sub %d: stalled window never redelivered", id)
		}
		if _, err := e.Ack(id, r.Cursor); err != nil {
			t.Fatal(err)
		}
	}

	// Quiescent now: no concurrent movers. The ledger must balance per
	// subscription: delivered == acked + shed + pending + in-flight.
	for _, si := range e.IntrospectSubscriptions() {
		if si.Mode != "at-least-once" {
			continue
		}
		owed := si.Acked + si.Shed + uint64(si.Pending) + uint64(si.InFlight)
		if si.Delivered != owed {
			t.Fatalf("sub %d conservation broken: delivered %d != acked %d + shed %d + pending %d + inflight %d",
				si.ID, si.Delivered, si.Acked, si.Shed, si.Pending, si.InFlight)
		}
		if si.Delivered == 0 {
			t.Fatalf("sub %d saw no deliveries; hammer degenerate", si.ID)
		}
	}
	st := e.Stats()
	if st.LeaseExpiries == 0 || st.Redeliveries == 0 {
		t.Fatalf("hammer never exercised lease expiry/redelivery (expiries %d, redeliveries %d)", st.LeaseExpiries, st.Redeliveries)
	}
	checkForests(t, e)
}
