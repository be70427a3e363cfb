package broker

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"treesim/internal/core"
	"treesim/internal/xmltree"
)

func doc(t testing.TB, compact string) *xmltree.Tree {
	t.Helper()
	d, err := xmltree.ParseCompact(compact)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newTestEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	t.Cleanup(func() { e.Close() })
	return e
}

func TestSubscribePublishDrainRoundtrip(t *testing.T) {
	e := newTestEngine(t, Config{Estimator: core.Config{Representation: core.Sets, Seed: 1}})
	idB, err := e.Subscribe("/a/b")
	if err != nil {
		t.Fatal(err)
	}
	idC, err := e.Subscribe("/a/c")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Subscribe("///"); err == nil {
		t.Fatal("invalid pattern should error")
	}
	if e.Live() != 2 {
		t.Fatalf("Live = %d, want 2", e.Live())
	}

	res, err := e.Publish(doc(t, "a(b)"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Deliveries == 0 || res.Matched == 0 {
		t.Fatalf("publish routed nothing: %+v", res)
	}

	got, err := e.Drain(idB, 10, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Doc != res.Seq {
		t.Fatalf("Drain(idB) = %v, want one delivery of doc %d", got, res.Seq)
	}
	// /a/c's community representative did not match a(b): nothing queued.
	if n := e.Pending(idC); n != 0 {
		t.Fatalf("Pending(idC) = %d, want 0", n)
	}
	if _, err := e.Drain(99999, 1, 0); err == nil {
		t.Fatal("unknown id should error")
	}

	e.Flush()
	if got := e.Stats().DocsObserved; got != 1 {
		t.Fatalf("DocsObserved = %d, want 1 after Flush", got)
	}
}

// TestPublishXMLAndParseError publishes as the daemon does — parse the
// text once with the engine's options, then Publish the tree — and a
// document that does not parse publishes nothing.
func TestPublishXMLAndParseError(t *testing.T) {
	e := newTestEngine(t, Config{})
	id, err := e.Subscribe("//b")
	if err != nil {
		t.Fatal(err)
	}
	publishXML := func(s string) error {
		d, err := xmltree.ParseString(s, e.Estimator().Config().ParseOptions)
		if err != nil {
			return err
		}
		_, err = e.Publish(d)
		return err
	}
	if err := publishXML("<a><b/></a>"); err != nil {
		t.Fatal(err)
	}
	if err := publishXML("<unclosed>"); err == nil {
		t.Fatal("bad XML should error")
	}
	ds, err := e.Drain(id, 10, time.Second)
	if err != nil || len(ds) != 1 {
		t.Fatalf("Drain = %v, %v; want one delivery", ds, err)
	}
	if got := e.Stats().Published; got != 1 {
		t.Fatalf("Published = %d, want 1: the unparsable document must not publish", got)
	}
}

func TestUnsubscribeStopsDeliveries(t *testing.T) {
	e := newTestEngine(t, Config{})
	id1, _ := e.Subscribe("//b")
	id2, _ := e.Subscribe("//b")
	if !e.Unsubscribe(id1) {
		t.Fatal("Unsubscribe(live id) = false")
	}
	if e.Unsubscribe(id1) {
		t.Fatal("double Unsubscribe = true")
	}
	res, err := e.Publish(doc(t, "a(b)"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Deliveries != 1 {
		t.Fatalf("Deliveries = %d, want 1 (only id2 live)", res.Deliveries)
	}
	if ds, _ := e.Drain(id2, 10, time.Second); len(ds) != 1 {
		t.Fatalf("id2 deliveries = %v, want 1", ds)
	}
	if _, err := e.Drain(id1, 10, 0); err == nil {
		t.Fatal("draining a dead id should error")
	}
}

func TestQueueBackpressureDropsOldest(t *testing.T) {
	e := newTestEngine(t, Config{QueueCapacity: 4})
	id, _ := e.Subscribe("//b")
	var last PublishResult
	for i := 0; i < 10; i++ {
		var err error
		last, err = e.Publish(doc(t, "a(b)"))
		if err != nil {
			t.Fatal(err)
		}
	}
	ds, err := e.Drain(id, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 4 {
		t.Fatalf("drained %d deliveries, want 4 (queue capacity)", len(ds))
	}
	// Drop-oldest: the survivors are the 4 most recent documents.
	if ds[len(ds)-1].Doc != last.Seq {
		t.Fatalf("newest survivor doc %d, want %d", ds[len(ds)-1].Doc, last.Seq)
	}
	if st := e.Stats(); st.Dropped != 6 {
		t.Fatalf("Dropped = %d, want 6", st.Dropped)
	}
}

func TestDrainLongPollWakesOnPublish(t *testing.T) {
	e := newTestEngine(t, Config{})
	id, _ := e.Subscribe("//b")
	got := make(chan []Delivery, 1)
	go func() {
		ds, _ := e.Drain(id, 10, 5*time.Second)
		got <- ds
	}()
	time.Sleep(20 * time.Millisecond) // let the drainer park
	if _, err := e.Publish(doc(t, "a(b)")); err != nil {
		t.Fatal(err)
	}
	select {
	case ds := <-got:
		if len(ds) != 1 {
			t.Fatalf("long-poll drained %v, want 1 delivery", ds)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke")
	}
}

func TestIncrementalAssignJoinsSimilarCommunity(t *testing.T) {
	// Community structure is built one subscribe at a time: no re-bucket
	// runs while the stream stands still.
	e := newTestEngine(t, Config{Estimator: core.Config{Representation: core.Sets, Seed: 1}})
	// Observe a stream so similarities are meaningful.
	for i := 0; i < 8; i++ {
		if _, err := e.Publish(doc(t, "a(b(x),c)")); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	e.Subscribe("/a/b")
	e.Subscribe("/a/b[x]") // matches the same docs → the same sample
	e.Subscribe("//zzz")   // matches nothing → singleton
	st := e.Stats()
	if st.Communities != 2 || st.Singletons != 1 {
		t.Fatalf("communities/singletons = %d/%d, want 2/1 (%v)",
			st.Communities, st.Singletons, e.CommunityIDs())
	}
	if st.Rebuilds != 0 {
		t.Fatalf("Rebuilds = %d, want 0 on a standing stream", st.Rebuilds)
	}
	groups := e.CommunityIDs()
	if len(groups[0]) != 2 {
		t.Fatalf("largest community %v, want the two /a/b subscriptions", groups)
	}
}

func TestPrecisionProxyAndStats(t *testing.T) {
	e := newTestEngine(t, Config{PrecisionSample: 1}) // sample every delivery
	e.Subscribe("//b")
	for i := 0; i < 5; i++ {
		if _, err := e.Publish(doc(t, "a(b)")); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.PrecisionSamples != 5 || st.PrecisionProxy != 1 {
		t.Fatalf("precision proxy %v over %d samples, want 1 over 5",
			st.PrecisionProxy, st.PrecisionSamples)
	}
	if st.Published != 5 || st.Deliveries != 5 || st.FilterEvals != 5 {
		t.Fatalf("stats %+v", st)
	}
	if st.PublishP50 <= 0 || st.PublishP99 < st.PublishP50 {
		t.Fatalf("latency percentiles p50=%v p99=%v", st.PublishP50, st.PublishP99)
	}
	// With zero samples the precision proxy is 1.
	fresh := newTestEngine(t, Config{})
	if st := fresh.Stats(); st.PrecisionProxy != 1 {
		t.Fatalf("zero-sample precision proxy = %v, want 1", st.PrecisionProxy)
	}
}

func TestDocumentRetention(t *testing.T) {
	e := newTestEngine(t, Config{DocCache: 2})
	e.Subscribe("//b")
	var seqs []uint64
	for i := 0; i < 3; i++ {
		res, err := e.Publish(doc(t, "a(b)"))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, res.Seq)
	}
	// Ring of 2: the oldest publish has aged out, the two newest resolve.
	if e.Document(seqs[0]) != nil {
		t.Fatalf("doc %d should have aged out of a 2-entry cache", seqs[0])
	}
	for _, s := range seqs[1:] {
		if e.Document(s) == nil {
			t.Fatalf("doc %d not retained", s)
		}
	}
	if e.Document(0) != nil || e.Document(99) != nil {
		t.Fatal("nonexistent sequences should resolve to nil")
	}
	// Retention disabled: every lookup is nil.
	off := newTestEngine(t, Config{DocCache: -1})
	res, _ := off.Publish(doc(t, "a(b)"))
	if off.Document(res.Seq) != nil {
		t.Fatal("DocCache<0 should disable retention")
	}
}

func TestClosedEngineErrors(t *testing.T) {
	e := New(Config{})
	id, _ := e.Subscribe("//b")
	j := &memJournal{}
	e.SetJournal(j)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal("double Close should be a no-op")
	}
	if _, err := e.Subscribe("//c"); err != ErrClosed {
		t.Fatalf("Subscribe after Close: %v, want ErrClosed", err)
	}
	if _, err := e.Publish(doc(t, "a(b)")); err != ErrClosed {
		t.Fatalf("Publish after Close: %v, want ErrClosed", err)
	}
	// Draining a closed queue returns immediately.
	start := time.Now()
	if ds, err := e.Drain(id, 10, 2*time.Second); err != nil || len(ds) != 0 {
		t.Fatalf("Drain after Close = %v, %v", ds, err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("Drain on closed engine blocked")
	}
	e.Flush() // must not hang or panic
	if _, err := e.Explain(xmltree.Pack(doc(t, "a(b)"))); err != ErrClosed {
		t.Fatalf("Explain after Close: %v, want ErrClosed", err)
	}
	// Unsubscribe is a mutation too: on a closed engine it commits
	// nothing, and journals nothing into a store shutdown may have sealed.
	if e.Unsubscribe(id) {
		t.Fatal("Unsubscribe after Close = true, want false")
	}
	if got := e.Live(); got != 1 {
		t.Fatalf("Live after a closed Unsubscribe = %d, want 1", got)
	}
	if len(j.recs) != 0 {
		t.Fatalf("a closed engine journaled %+v", j.recs)
	}
}

// TestHammerChurnPublish is the race-detector workout: concurrent
// subscribers, unsubscribers, publishers and drainers against one
// engine, with policy rebuilds enabled — and with them similarity-view
// refreshes, by the doubling rule (the stream grows from nothing to
// some 240 documents under the subscribers' feet) and forced.
func TestHammerChurnPublish(t *testing.T) {
	e := newTestEngine(t, Config{
		Estimator:     core.Config{Representation: core.Hashes, HashCapacity: 64, Seed: 7},
		QueueCapacity: 16,
	})
	exprs := []string{"/a/b", "/a/c", "//x", "/a[b]//x", "//c", "/a/*/x"}
	docs := []*xmltree.Tree{
		doc(t, "a(b(x),c)"), doc(t, "a(b)"), doc(t, "a(c(x))"), doc(t, "q(r)"),
	}

	const workers = 4
	const opsPerWorker = 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine []uint64
			for op := 0; op < opsPerWorker; op++ {
				switch r := rng.Float64(); {
				case r < 0.35:
					id, err := e.Subscribe(exprs[rng.Intn(len(exprs))])
					if err != nil {
						t.Error(err)
						return
					}
					mine = append(mine, id)
					checkForests(t, e, docs...)
				case r < 0.5 && len(mine) > 0:
					i := rng.Intn(len(mine))
					e.Unsubscribe(mine[i])
					mine = append(mine[:i], mine[i+1:]...)
					checkForests(t, e, docs...)
				case r < 0.9:
					if _, err := e.Publish(docs[rng.Intn(len(docs))]); err != nil {
						t.Error(err)
						return
					}
				case r < 0.93:
					e.Rebuild()
					checkForests(t, e, docs...)
				default:
					if len(mine) > 0 {
						e.Drain(mine[rng.Intn(len(mine))], 8, 0)
					}
				}
			}
			for _, id := range mine {
				e.Unsubscribe(id)
				checkForests(t, e, docs...)
			}
		}(int64(w + 1))
	}
	wg.Wait()
	e.Flush()
	// Whatever the interleaving, a subscribe runs on a view of more than
	// half the stream.
	id, err := e.Subscribe(exprs[0])
	if err != nil {
		t.Fatal(err)
	}
	e.Unsubscribe(id)
	if v, docs := currentView(e).Docs(), e.Estimator().DocsObserved(); 2*v <= docs {
		t.Fatalf("similarity view covers %d of %d documents", v, docs)
	}
	if n := e.counters.viewRefreshes.Load(); n < 4 {
		t.Fatalf("%d view refreshes: the hammer raced none against churn", n)
	}
	st := e.Stats()
	if st.Live != 0 {
		t.Fatalf("Live = %d after full unsubscribe, want 0", st.Live)
	}
	if st.Communities != 0 {
		t.Fatalf("Communities = %d with no subscriptions", st.Communities)
	}
	if st.IngestPending != 0 {
		t.Fatalf("IngestPending = %d after Flush", st.IngestPending)
	}
	if st.DocsObserved != int(st.Published) {
		t.Fatalf("DocsObserved %d != Published %d", st.DocsObserved, st.Published)
	}
}

// TestPublishEmptyDocument: the empty document is a document — queued,
// ingested and counted like any other — not a pipeline marker.
func TestPublishEmptyDocument(t *testing.T) {
	e := newTestEngine(t, Config{})
	if _, err := e.Publish(&xmltree.Tree{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PublishPacked(nil); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	st := e.Stats()
	if st.IngestPending != 0 || st.DocsObserved != 2 || st.Published != 2 {
		t.Fatalf("after two empty publishes and Flush: IngestPending %d, DocsObserved %d, Published %d; want 0, 2, 2",
			st.IngestPending, st.DocsObserved, st.Published)
	}
}

// TestPublishFlatRefusesLoadedTree: an arena Flat.Load filled packs
// into its own buffer, which its next Load overwrites, so a publish
// must not retain or queue those bytes.
func TestPublishFlatRefusesLoadedTree(t *testing.T) {
	e := newTestEngine(t, Config{})
	var f xmltree.Flat
	f.Load(doc(t, "a(b)"), nil)
	if _, err := e.PublishFlat(&f, false); err == nil {
		t.Fatal("PublishFlat of a Flat.Load arena succeeded")
	}
	if st := e.Stats(); st.Published != 0 || st.IngestPending != 0 {
		t.Fatalf("a refused publish counted: Published %d, IngestPending %d", st.Published, st.IngestPending)
	}
}

func TestPolicyTable(t *testing.T) {
	cases := []struct {
		name  string
		p     RebuildPolicy
		stale int
		live  int
		want  bool
	}{
		{"staleness below", Staleness{MaxStale: 10}, 9, 100, false},
		{"staleness at", Staleness{MaxStale: 10}, 10, 100, true},
		{"staleness disabled", Staleness{}, 1000, 1, false},
		{"fraction below min", DirtyFraction{Fraction: 0.1, MinStale: 5}, 4, 10, false},
		{"fraction reached", DirtyFraction{Fraction: 0.25, MinStale: 2}, 3, 12, true},
		{"fraction not reached", DirtyFraction{Fraction: 0.5, MinStale: 2}, 3, 12, false},
		{"never", Never{}, 1 << 20, 1, false},
	}
	for _, c := range cases {
		if got := c.p.ShouldRebuild(c.stale, c.live); got != c.want {
			t.Errorf("%s: ShouldRebuild(%d, %d) = %v, want %v", c.name, c.stale, c.live, got, c.want)
		}
	}
}
