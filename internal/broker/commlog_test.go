package broker

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treesim/internal/core"
	"treesim/internal/persist"
	"treesim/internal/xmltree"
)

// refRing is the delivery state an at-most-once subscription had before
// the community logs: a private drop-oldest ring, filled by one push per
// member and publish. Kept as the reference the logs are compared with.
type refRing struct {
	buf          []Delivery
	head, n      int
	gap, dropped uint64
}

func (q *refRing) push(d Delivery) (evicted bool) {
	if q.n == len(q.buf) {
		q.head = (q.head + 1) % len(q.buf)
		q.n--
		q.gap++
		q.dropped++
		evicted = true
	}
	q.buf[(q.head+q.n)%len(q.buf)] = d
	q.n++
	return evicted
}

func (q *refRing) drain(max int) (out []Delivery, gap uint64) {
	gap, q.gap = q.gap, 0
	take := q.n
	if max > 0 && take > max {
		take = max
	}
	for i := 0; i < take; i++ {
		out = append(out, q.buf[(q.head+i)%len(q.buf)])
	}
	q.head = (q.head + take) % len(q.buf)
	q.n -= take
	return out, gap
}

// logWorld is the population of the differential tests: subscriptions
// //c0 … //c7 over a stream seeded so that each label is a community, and
// documents that hold a random subset of the labels, so a publish matches
// a random subset of the communities.
type logWorld struct {
	t   *testing.T
	e   *Engine
	rng *rand.Rand
	ids []uint64
}

const logLabels = 8

func newLogWorld(t *testing.T, seed int64, capacity int) *logWorld {
	w := &logWorld{t: t, rng: rand.New(rand.NewSource(seed))}
	w.e = newTestEngine(t, Config{
		Estimator:     core.Config{Representation: core.Sets, Seed: 1},
		QueueCapacity: capacity,
	})
	for k := 0; k < logLabels; k++ {
		for i := 0; i < 4; i++ {
			if _, err := w.e.Publish(doc(t, fmt.Sprintf("r(c%d)", k))); err != nil {
				t.Fatal(err)
			}
		}
	}
	w.e.Flush()
	for i := 0; i < 40; i++ {
		w.subscribe(i % logLabels)
	}
	if got := len(w.e.CommunityIDs()); got != logLabels {
		t.Fatalf("%d communities, want one per label (%d)", got, logLabels)
	}
	return w
}

func (w *logWorld) subscribe(label int) uint64 {
	id, err := w.e.Subscribe(fmt.Sprintf("//c%d", label))
	if err != nil {
		w.t.Fatal(err)
	}
	w.ids = append(w.ids, id)
	return id
}

// unsubscribe removes subscription w.ids[k] and returns its id.
func (w *logWorld) unsubscribe(k int) uint64 {
	id := w.ids[k]
	w.ids = append(w.ids[:k], w.ids[k+1:]...)
	if !w.e.Unsubscribe(id) {
		w.t.Fatalf("unsubscribe %d: not live", id)
	}
	return id
}

// publish publishes a document holding a random subset of the labels and
// returns the result beside what Explain said it would do.
func (w *logWorld) publish() (PublishResult, *Explanation) {
	var kids []string
	for k := 0; k < logLabels; k++ {
		if w.rng.Intn(2) == 0 {
			kids = append(kids, fmt.Sprintf("c%d", k))
		}
	}
	d := doc(w.t, "r")
	if len(kids) > 0 {
		d = doc(w.t, "r("+strings.Join(kids, ",")+")")
	}
	ex, err := w.e.Explain(d)
	if err != nil {
		w.t.Fatal(err)
	}
	res, err := w.e.Publish(d)
	if err != nil {
		w.t.Fatal(err)
	}
	return res, ex
}

func randomMax(rng *rand.Rand) int {
	return []int{0, 1, 2, 5, 40, 1000}[rng.Intn(6)]
}

// TestCommunityLogMatchesPerSubscriptionRings drives an engine and one
// reference ring per subscription through the same random publishes,
// drains, subscribes and unsubscribes, and after every step demands the
// same of both: each publish's Deliveries and Dropped, each drain's batch
// (order, Doc, Community) and gap, and every subscription's Pending and
// lifetime dropped. No re-clustering happens, so nothing is moved: this
// is the claim that a never-moved subscription cannot tell the shared log
// from a ring of its own.
func TestCommunityLogMatchesPerSubscriptionRings(t *testing.T) {
	steps := 2000
	if testing.Short() || raceEnabled { // one goroutine: nothing for the detector
		steps = 300
	}
	for seed := int64(0); seed < 20; seed++ {
		capacity := []int{256, 16, 5, 1}[seed%4]
		w := newLogWorld(t, seed, capacity)
		e, rng := w.e, w.rng
		rings := map[uint64]*refRing{}
		for _, id := range w.ids {
			rings[id] = &refRing{buf: make([]Delivery, capacity)}
		}
		for step := 0; step < steps; step++ {
			at := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(20); {
			case op < 9:
				res, ex := w.publish()
				deliveries, dropped := 0, 0
				for _, v := range ex.Communities {
					if !v.Matched {
						continue
					}
					for _, id := range v.MemberIDs {
						deliveries++
						if rings[id].push(Delivery{Doc: res.Seq, Community: v.Community}) {
							dropped++
						}
					}
				}
				if res.Deliveries != deliveries || res.Dropped != dropped {
					t.Fatalf("%s: publish delivered %d and dropped %d, the rings %d and %d", at, res.Deliveries, res.Dropped, deliveries, dropped)
				}
			case op < 16:
				id, max := w.ids[rng.Intn(len(w.ids))], randomMax(rng)
				got, err := e.DrainBatch(id, max, 0)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				want, gap := rings[id].drain(max)
				if !reflect.DeepEqual(got.Deliveries, want) || got.Gap != gap {
					t.Fatalf("%s: drain(%d, max %d) = %v gap %d, the ring %v gap %d", at, id, max, got.Deliveries, got.Gap, want, gap)
				}
			case op < 18 && len(w.ids) < 60:
				rings[w.subscribe(rng.Intn(logLabels))] = &refRing{buf: make([]Delivery, capacity)}
			case len(w.ids) > 20:
				delete(rings, w.unsubscribe(rng.Intn(len(w.ids))))
			}
			for _, si := range e.IntrospectSubscriptions() {
				if q := rings[si.ID]; si.Pending != q.n || si.Dropped != q.dropped {
					t.Fatalf("%s: subscription %d has %d pending and %d dropped, its ring %d and %d", at, si.ID, si.Pending, si.Dropped, q.n, q.dropped)
				}
			}
		}
		var dropped uint64
		for _, q := range rings {
			dropped += q.dropped
		}
		if st := e.Stats(); st.Dropped < dropped {
			t.Fatalf("seed %d: %d drops counted, the live rings alone saw %d", seed, st.Dropped, dropped)
		}
		e.Close()
	}
}

// randomPartition re-clusters w's subscriptions into at most n random
// communities through the journal-replay entry point, which installs a
// partition by the same path a Rebuild does.
func (w *logWorld) randomPartition(n int) {
	groups := make([][]uint64, n)
	for _, id := range w.ids {
		g := w.rng.Intn(n)
		groups[g] = append(groups[g], id)
	}
	var reps []uint64
	kept := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			kept, reps = append(kept, g), append(reps, g[w.rng.Intn(len(g))])
		}
	}
	if err := w.e.Apply(persist.Record{Op: persist.OpRebuild, Groups: kept, Reps: reps}); err != nil {
		w.t.Fatal(err)
	}
}

// TestCommunityLogAcrossRebuilds adds re-clusterings to the same random
// traffic — Rebuild, and random partitions so that every one moves
// subscriptions with deliveries pending — and holds the engine to what a
// consumer can see: no delivery repeated or out of order, never more than
// two capacities pending, and at the end every delivery a publish claimed
// drained, reported in a gap, or still pending, subscription by
// subscription; and every drop the engine counted is some subscription's.
func TestCommunityLogAcrossRebuilds(t *testing.T) {
	steps := 2000
	if testing.Short() || raceEnabled { // one goroutine: nothing for the detector
		steps = 300
	}
	for seed := int64(0); seed < 20; seed++ {
		capacity := []int{16, 5, 64, 1}[seed%4]
		w := newLogWorld(t, 100+seed, capacity)
		e, rng := w.e, w.rng
		type ledger struct{ delivered, drained, gap, lastDoc uint64 }
		books := map[uint64]*ledger{}
		for _, id := range w.ids {
			books[id] = &ledger{}
		}
		var moved, goneDropped uint64
		drain := func(id uint64, max int, at string) {
			r, err := e.DrainBatch(id, max, 0)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			b := books[id]
			for _, d := range r.Deliveries {
				if d.Doc <= b.lastDoc {
					t.Fatalf("%s: subscription %d drained document %d after %d", at, id, d.Doc, b.lastDoc)
				}
				b.lastDoc = d.Doc
			}
			b.drained += uint64(len(r.Deliveries))
			b.gap += r.Gap
		}
		for step := 0; step < steps; step++ {
			at := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(40); {
			case op < 18:
				res, ex := w.publish()
				n := 0
				for _, v := range ex.Communities {
					if v.Matched {
						for _, id := range v.MemberIDs {
							books[id].delivered++
							n++
						}
					}
				}
				if res.Deliveries != n {
					t.Fatalf("%s: publish delivered %d, its communities have %d members", at, res.Deliveries, n)
				}
			case op < 30:
				drain(w.ids[rng.Intn(len(w.ids))], randomMax(rng), at)
			case op < 33 && len(w.ids) < 60:
				books[w.subscribe(rng.Intn(logLabels))] = &ledger{}
			case op < 36 && len(w.ids) > 20:
				k := rng.Intn(len(w.ids))
				id := w.ids[k]
				drain(id, 0, at) // so that its ledger closes
				_, d := e.byID[id].cur.info()
				goneDropped += d
				w.unsubscribe(k)
				if b := books[id]; b.drained+b.gap != b.delivered {
					t.Fatalf("%s: subscription %d left with %d delivered, %d drained, %d lost", at, id, b.delivered, b.drained, b.gap)
				}
				delete(books, id)
			case op < 38:
				before := map[uint64]*commLog{}
				for _, s := range e.byID {
					if n, _ := s.cur.info(); n > 0 {
						before[s.id] = s.cur.log
					}
				}
				if op == 36 {
					e.Rebuild()
				} else {
					w.randomPartition(1 + rng.Intn(2*logLabels))
				}
				for _, s := range e.byID {
					if l := before[s.id]; l != nil && l != s.cur.log {
						moved++
					}
				}
			}
			for _, id := range w.ids {
				if n := e.Pending(id); n > 2*capacity {
					t.Fatalf("%s: subscription %d has %d pending, capacity %d", at, id, n, capacity)
				}
			}
		}
		if moved == 0 {
			t.Fatalf("seed %d: no subscription was moved with deliveries pending", seed)
		}
		dropped := goneDropped
		for _, si := range e.IntrospectSubscriptions() {
			// Dropped counts what no drain has reported yet, too.
			b := books[si.ID]
			if b.drained+si.Dropped+uint64(si.Pending) != b.delivered {
				t.Errorf("seed %d: subscription %d: %d delivered, but %d drained + %d lost + %d pending", seed, si.ID, b.delivered, b.drained, si.Dropped, si.Pending)
			}
			drain(si.ID, 0, fmt.Sprintf("seed %d at the end", seed))
			if b.gap != si.Dropped || b.drained+b.gap != b.delivered {
				t.Errorf("seed %d: subscription %d: %d delivered and %d dropped, but %d drained and %d reported lost", seed, si.ID, b.delivered, si.Dropped, b.drained, b.gap)
			}
			dropped += si.Dropped
		}
		if st := e.Stats(); st.Dropped != dropped {
			t.Errorf("seed %d: engine counted %d drops, its subscriptions %d", seed, st.Dropped, dropped)
		}
		e.Close()
	}
}

// TestConcurrentLogRebuildLedger is the delivery logs' race workout: 4
// publishers, 6 drainers (half of them long-polling), a churner, and a
// goroutine re-clustering every few milliseconds, so cursors are moved
// under drains and appends all the time. The churner keeps publishers
// out while it drains and removes a subscription, so nothing is stranded
// and the ledger closes exactly: every delivery a publish claimed was
// drained, reported in a gap, or is pending at the end.
func TestConcurrentLogRebuildLedger(t *testing.T) {
	w := newLogWorld(t, 7, 8)
	e := w.e
	var (
		wg                         sync.WaitGroup
		idsMu                      sync.Mutex // w.ids
		pubMu                      sync.RWMutex
		delivered, drained, gapped atomic.Uint64
		moves                      atomic.Uint64
		enough                     = make(chan struct{}) // closed after 40 re-clusterings
		stop                       = make(chan struct{})
	)
	pick := func(rng *rand.Rand) uint64 {
		idsMu.Lock()
		defer idsMu.Unlock()
		return w.ids[rng.Intn(len(w.ids))]
	}
	drain := func(id uint64, max int, wait time.Duration) {
		r, err := e.DrainBatch(id, max, wait)
		if err != nil && !errors.Is(err, ErrNotFound) {
			t.Errorf("drain %d: %v", id, err)
		}
		drained.Add(uint64(len(r.Deliveries)))
		gapped.Add(r.Gap)
	}
	docs := []*xmltree.Tree{doc(t, "r(c0,c1,c2,c3)"), doc(t, "r(c4,c5,c6,c7)"), doc(t, "r(c0,c2,c4,c6)"), doc(t, "r(c1)"), doc(t, "r")}
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				if i >= 400 {
					select {
					case <-enough:
						return
					default:
					}
				}
				pubMu.RLock()
				res, err := e.Publish(docs[rng.Intn(len(docs))])
				pubMu.RUnlock()
				if err != nil {
					t.Error(err)
					return
				}
				delivered.Add(uint64(res.Deliveries))
			}
		}(int64(p))
	}
	var bg sync.WaitGroup // runs until the publishers are done
	for d := 0; d < 6; d++ {
		bg.Add(1)
		go func(d int) {
			defer bg.Done()
			rng := rand.New(rand.NewSource(int64(10 + d)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				drain(pick(rng), randomMax(rng), time.Duration(d%2)*2*time.Millisecond)
			}
		}(d)
	}
	bg.Add(1)
	go func() { // churner
		defer bg.Done()
		rng := rand.New(rand.NewSource(20))
		for {
			select {
			case <-stop:
				return
			default:
			}
			idsMu.Lock()
			n := len(w.ids)
			idsMu.Unlock()
			if n < 50 && rng.Intn(2) == 0 {
				id, err := e.Subscribe(fmt.Sprintf("//c%d", rng.Intn(logLabels)))
				if err != nil {
					t.Error(err)
					return
				}
				idsMu.Lock()
				w.ids = append(w.ids, id)
				idsMu.Unlock()
			} else if n > 20 {
				idsMu.Lock()
				k := rng.Intn(len(w.ids))
				id := w.ids[k]
				w.ids = append(w.ids[:k], w.ids[k+1:]...)
				idsMu.Unlock()
				pubMu.Lock()
				drain(id, 0, 0)
				if !e.Unsubscribe(id) {
					t.Errorf("unsubscribe %d: not live", id)
				}
				pubMu.Unlock()
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	bg.Add(1)
	go func() { // re-clusterer
		defer bg.Done()
		rng := rand.New(rand.NewSource(30))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if i == 40 {
				close(enough)
			}
			if i%2 == 0 {
				e.Rebuild()
				continue
			}
			// A random partition of whoever is live; the churner may
			// outrun it, and then the engine refuses it whole.
			groups := make([][]uint64, 1+rng.Intn(logLabels))
			for _, g := range e.CommunityIDs() {
				for _, id := range g {
					k := rng.Intn(len(groups))
					groups[k] = append(groups[k], id)
				}
			}
			var reps []uint64
			kept := groups[:0]
			for _, g := range groups {
				if len(g) > 0 {
					kept, reps = append(kept, g), append(reps, g[0])
				}
			}
			if e.Apply(persist.Record{Op: persist.OpRebuild, Groups: kept, Reps: reps}) == nil {
				moves.Add(1)
			}
		}
	}()
	wg.Wait()
	close(stop)
	bg.Wait()
	if moves.Load() == 0 {
		t.Fatal("no random partition was installed")
	}
	for _, id := range w.ids { // what is pending, and the losses no drain has reported yet
		drain(id, 0, 0)
	}
	st := e.Stats()
	if delivered.Load() != st.Deliveries || drained.Load() != st.Drained {
		t.Errorf("publishes claimed %d deliveries and drains took %d; the engine counted %d and %d", delivered.Load(), drained.Load(), st.Deliveries, st.Drained)
	}
	if got := drained.Load() + gapped.Load(); got != delivered.Load() {
		t.Errorf("%d deliveries, but %d drained + %d lost = %d", delivered.Load(), drained.Load(), gapped.Load(), got)
	}
	checkForests(t, e, docs...)
}

// parkedOn waits until a drain is parked on l.
func parkedOn(t *testing.T, l *commLog) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		l.mu.Lock()
		parked := l.wake != nil
		l.mu.Unlock()
		if parked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no drain parked on the log")
		}
	}
}

// longPoll starts a 30 s long-poll on id and returns where its result
// arrives, once it is parked.
func longPoll(t *testing.T, e *Engine, id uint64) <-chan DrainResult {
	t.Helper()
	done := make(chan DrainResult, 1)
	go func() {
		r, err := e.DrainBatch(id, 10, 30*time.Second)
		if err != nil {
			t.Errorf("long-poll on %d: %v", id, err)
		}
		done <- r
	}()
	parkedOn(t, e.byID[id].cur.log)
	return done
}

func awaitDrain(t *testing.T, done <-chan DrainResult, what string) DrainResult {
	t.Helper()
	select {
	case r := <-done:
		return r
	case <-time.After(5 * time.Second):
		t.Fatalf("long-poll still parked %s", what)
		return DrainResult{}
	}
}

// TestLongPollWokenByMove: a long-poll parked on its community's log
// follows its subscription to the log a re-clustering moves it to, and
// returns with the next delivery there — not at its deadline.
func TestLongPollWokenByMove(t *testing.T) {
	e := newTestEngine(t, Config{Threshold: 2}) // every subscription its own community
	a, _ := e.Subscribe("/a")
	b, _ := e.Subscribe("/b")
	done := longPoll(t, e, b)
	if err := e.Apply(persist.Record{Op: persist.OpRebuild, Groups: [][]uint64{{a, b}}, Reps: []uint64{a}}); err != nil {
		t.Fatal(err)
	}
	parkedOn(t, e.groups[0].log) // it re-parked, on /a's log
	res, err := e.Publish(doc(t, "a"))
	if err != nil || res.Deliveries != 2 {
		t.Fatalf("publish = %+v, %v; want both members delivered", res, err)
	}
	if r := awaitDrain(t, done, "after a delivery to its new community"); len(r.Deliveries) != 1 || r.Deliveries[0].Doc != res.Seq {
		t.Fatalf("long-poll returned %+v, want document %d", r, res.Seq)
	}
}

// TestLongPollWokenByUnsubscribe: removing the subscription ends a parked
// long-poll, and the next call says the id is gone.
func TestLongPollWokenByUnsubscribe(t *testing.T) {
	e := newTestEngine(t, Config{})
	id, _ := e.Subscribe("/a")
	done := longPoll(t, e, id)
	if !e.Unsubscribe(id) {
		t.Fatal("unsubscribe: not live")
	}
	if r := awaitDrain(t, done, "after its subscription was removed"); len(r.Deliveries) != 0 {
		t.Fatalf("long-poll returned %+v", r)
	}
	if _, err := e.Drain(id, 1, time.Minute); !errors.Is(err, ErrNotFound) {
		t.Fatalf("drain after unsubscribe: %v, want ErrNotFound", err)
	}
}

// TestLongPollWokenByClose: closing the engine ends a parked long-poll,
// and what the logs hold still drains afterwards, without waiting.
func TestLongPollWokenByClose(t *testing.T) {
	e := newTestEngine(t, Config{Threshold: 2})
	idle, _ := e.Subscribe("/a")
	busy, _ := e.Subscribe("/b")
	for i := 0; i < 3; i++ {
		if _, err := e.Publish(doc(t, "b")); err != nil {
			t.Fatal(err)
		}
	}
	done := longPoll(t, e, idle)
	e.Close()
	if r := awaitDrain(t, done, "after Close"); len(r.Deliveries) != 0 {
		t.Fatalf("long-poll returned %+v", r)
	}
	if ds, err := e.Drain(busy, 0, time.Minute); err != nil || len(ds) != 3 {
		t.Fatalf("drain after Close = %v, %v; want the 3 deliveries", ds, err)
	}
	start := time.Now()
	if ds, err := e.Drain(busy, 0, 30*time.Second); err != nil || len(ds) != 0 || time.Since(start) > 5*time.Second {
		t.Fatalf("empty drain after Close = %v, %v after %v", ds, err, time.Since(start))
	}
}

// TestDeliveryStateIsSmall: what an at-most-once subscription adds to an
// existing community is its cursor — under 256 bytes, where its ring was
// 8.2 KB — and a community no publish has matched holds no entries and no
// storage for them.
func TestDeliveryStateIsSmall(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the program's")
	}
	e := newTestEngine(t, Config{Threshold: 2})
	if _, err := e.Subscribe("/a"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := e.Publish(doc(t, "b")); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush() // so that the ingester allocates nothing below
	l := e.groups[0].log
	if l.buf != nil || l.tail != 0 {
		t.Errorf("a log nothing matched holds %d slots, tail %d", len(l.buf), l.tail)
	}
	const n = 1000
	keep := make([]*subscriber, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = e.newSubscriber(uint64(i), nil, "", AtMostOnce)
		keep[i].cur.move(l)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 256 {
		t.Errorf("a joining subscription's delivery state costs %d bytes", per)
	}
	runtime.KeepAlive(keep)
}

// TestDeliveryLogIntrospection reads the per-community log figures and the
// two delivery gauges off a community with one member behind.
func TestDeliveryLogIntrospection(t *testing.T) {
	e := newTestEngine(t, Config{Estimator: core.Config{Representation: core.Sets, Seed: 1}, QueueCapacity: 4})
	publishFlushed(t, e, []*xmltree.Tree{doc(t, "a")}) // so that the two share a sample: one community
	slow, _ := e.Subscribe("/a")
	fast, _ := e.Subscribe("/a")
	check := func(when string, entries, lag, occupancy int) {
		t.Helper()
		cs := e.IntrospectCommunities()
		if len(cs) != 1 || cs[0].LogEntries != entries || cs[0].SlowestLag != lag {
			t.Errorf("%s: communities %+v, want one with %d log entries and slowest lag %d", when, cs, entries, lag)
		}
		var out strings.Builder
		if err := e.tel.WritePrometheus(&out); err != nil {
			t.Fatal(err)
		}
		for name, want := range map[string]int{"treesim_broker_delivery_log_entries": entries, "treesim_broker_delivery_ring_occupancy": occupancy} {
			if line := fmt.Sprintf("\n%s %d\n", name, want); !strings.Contains(out.String(), line) {
				t.Errorf("%s: /metrics lacks %q", when, line)
			}
		}
	}
	check("before any publish", 0, 0, 0)
	for i := 0; i < 3; i++ {
		if _, err := e.Publish(doc(t, "a")); err != nil {
			t.Fatal(err)
		}
	}
	check("after 3 publishes", 3, 3, 6)
	if ds, _ := e.Drain(fast, 0, 0); len(ds) != 3 {
		t.Fatalf("drained %d, want 3", len(ds))
	}
	if ds, _ := e.Drain(slow, 1, 0); len(ds) != 1 {
		t.Fatalf("drained %d, want 1", len(ds))
	}
	check("after the fast member caught up", 3, 2, 2)
	for i := 0; i < 3; i++ {
		if _, err := e.Publish(doc(t, "a")); err != nil {
			t.Fatal(err)
		}
	}
	check("after the log wrapped", 4, 4, 7) // slow lost one: 4 pending; fast has 3
}

// TestPublishRefusesTreeDeeperThanUnpackReads: a hand-built tree deeper
// than xmltree.MaxDepth is refused where it enters — it used to be packed
// into retention, where reading it back panicked — and the engine goes on
// to publish and serve an ordinary document.
func TestPublishRefusesTreeDeeperThanUnpackReads(t *testing.T) {
	e := newTestEngine(t, Config{})
	id, err := e.Subscribe("//x")
	if err != nil {
		t.Fatal(err)
	}
	chain := func(levels int) *xmltree.Tree {
		root := &xmltree.Node{Label: "x"}
		for n, i := root, 1; i < levels; i++ {
			n = n.AddChild("x")
		}
		return &xmltree.Tree{Root: root}
	}
	deep := chain(3000)
	if _, err := e.Publish(deep); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("Publish of a 3000-deep chain: %v, want ErrTooDeep", err)
	}
	if _, err := e.InjectRemote(deep, nil); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("InjectRemote of a 3000-deep chain: %v, want ErrTooDeep", err)
	}
	e.Flush()
	if st := e.Stats(); st.Published != 0 || st.DocsObserved != 0 || e.Pending(id) != 0 {
		t.Fatalf("refused trees left a trace: %+v, %d pending", st, e.Pending(id))
	}
	for _, levels := range []int{xmltree.MaxDepth, 1} { // the deepest tree Unpack reads, and an ordinary one
		res, err := e.Publish(chain(levels))
		if err != nil || res.Deliveries != 1 {
			t.Fatalf("Publish of a %d-deep chain = %+v, %v", levels, res, err)
		}
		if got := e.Document(res.Seq); got == nil || got.Depth() != levels {
			t.Fatalf("Document(%d) = %v, want the %d-deep chain back", res.Seq, got, levels)
		}
	}
	if _, err := e.Publish(chain(xmltree.MaxDepth + 1)); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("Publish one level past the bound: %v, want ErrTooDeep", err)
	}
}
