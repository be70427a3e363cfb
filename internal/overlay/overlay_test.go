package overlay

import (
	"sync"
	"testing"

	"treesim/internal/broker"
	"treesim/internal/overlay/wire"
	"treesim/internal/xmltree"
)

// wire_batch builds a minimal advert batch claiming to come from n.
func wire_batch(n *Node) wire.AdvertBatch {
	return wire.AdvertBatch{From: n.ID(), Adverts: []wire.Advert{{Origin: n.ID(), Version: 99}}}
}

// newNode builds an engine+node pair with deterministic, test-friendly
// settings: exact-mode threshold (every subscription its own community)
// unless overridden, and immediate re-advertisement on every churn op.
func newNode(t *testing.T, id string, cfg Config) *Node {
	t.Helper()
	eng := broker.New(broker.Config{
		Threshold: 2, // exact mode: every subscription its own community
	})
	t.Cleanup(func() { eng.Close() })
	cfg.ID = id
	if cfg.AdvertPolicy == nil {
		cfg.AdvertPolicy = broker.Staleness{MaxStale: 1}
	}
	n := New(eng, cfg)
	t.Cleanup(n.Close)
	return n
}

func doc(t *testing.T, s string) *xmltree.Tree {
	t.Helper()
	tree, err := xmltree.ParseString(s, xmltree.ParseOptions{})
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return tree
}

func mustSubscribe(t *testing.T, n *Node, expr string) uint64 {
	t.Helper()
	id, err := n.Engine().Subscribe(expr)
	if err != nil {
		t.Fatalf("subscribe %q: %v", expr, err)
	}
	return id
}

func drainAll(t *testing.T, n *Node, sub uint64) []broker.Delivery {
	t.Helper()
	ds, err := n.Engine().Drain(sub, 0, 0)
	if err != nil {
		t.Fatalf("drain %d: %v", sub, err)
	}
	return ds
}

func connect(t *testing.T, a, b *Node) {
	t.Helper()
	if err := Connect(a, b); err != nil {
		t.Fatalf("connect %s-%s: %v", a.ID(), b.ID(), err)
	}
}

// TestLineTopology routes across two hops: a subscription at C must
// attract publications from A through B, and documents matching nothing
// downstream must not leave A at all.
func TestLineTopology(t *testing.T) {
	a := newNode(t, "a", Config{})
	b := newNode(t, "b", Config{})
	c := newNode(t, "c", Config{})
	connect(t, a, b)
	connect(t, b, c)

	sub := mustSubscribe(t, c, "/x/y")

	// C's advert (triggered by the subscribe churn hook) must have
	// propagated through B to A already: sends are synchronous.
	if _, sent, err := a.Publish(doc(t, "<x><y/></x>")); err != nil || sent != 1 {
		t.Fatalf("matching publish: sent=%d err=%v, want 1 forward (toward b)", sent, err)
	}
	if _, sent, err := a.Publish(doc(t, "<z/>")); err != nil || sent != 0 {
		t.Fatalf("non-matching publish: sent=%d err=%v, want 0 forwards", sent, err)
	}
	ds := drainAll(t, c, sub)
	if len(ds) != 1 {
		t.Fatalf("c received %d deliveries, want 1", len(ds))
	}
	// The delivered document must be retrievable at C by sequence.
	if got := c.Engine().Document(ds[0].Doc); got == nil || got.Root.Label != "x" {
		t.Fatalf("c cannot resolve delivered doc %d: %v", ds[0].Doc, got)
	}
	bi := b.Info()
	if bi.ForwardsRecv != 1 || bi.ForwardsSent != 1 {
		t.Fatalf("b forwards recv=%d sent=%d, want 1/1", bi.ForwardsRecv, bi.ForwardsSent)
	}
}

// TestStarTopology: only the leaf with a matching subscription receives
// a forward from the hub.
func TestStarTopology(t *testing.T) {
	hub := newNode(t, "hub", Config{})
	leaves := []*Node{newNode(t, "l1", Config{}), newNode(t, "l2", Config{}), newNode(t, "l3", Config{})}
	for _, l := range leaves {
		connect(t, hub, l)
	}
	sub := mustSubscribe(t, leaves[1], "//beta")

	if _, sent, err := leaves[0].Publish(doc(t, "<root><beta/></root>")); err != nil || sent != 1 {
		t.Fatalf("leaf publish: sent=%d err=%v", sent, err)
	}
	hi := hub.Info()
	if hi.ForwardsSent != 1 {
		t.Fatalf("hub forwarded %d times, want 1 (only toward l2)", hi.ForwardsSent)
	}
	if got := len(drainAll(t, leaves[1], sub)); got != 1 {
		t.Fatalf("l2 got %d deliveries, want 1", got)
	}
	if got := leaves[2].Info().ForwardsRecv; got != 0 {
		t.Fatalf("l3 received %d forwards, want 0", got)
	}
}

// TestCycleDuplicateSuppression: on a triangle every node subscribes;
// each node still delivers each publication exactly once, with the
// seen-set absorbing the redundant path.
func TestCycleDuplicateSuppression(t *testing.T) {
	a := newNode(t, "a", Config{})
	b := newNode(t, "b", Config{})
	c := newNode(t, "c", Config{})
	connect(t, a, b)
	connect(t, b, c)
	connect(t, c, a)

	subs := map[*Node]uint64{
		a: mustSubscribe(t, a, "/m"),
		b: mustSubscribe(t, b, "/m"),
		c: mustSubscribe(t, c, "/m"),
	}
	const docs = 5
	for i := 0; i < docs; i++ {
		if _, _, err := a.Publish(doc(t, "<m/>")); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	for n, sub := range subs {
		if got := len(drainAll(t, n, sub)); got != docs {
			t.Fatalf("%s delivered %d, want %d", n.ID(), got, docs)
		}
	}
}

// TestSeenSetSuppressesReplays: the same publication arriving over two
// links is injected and forwarded once; the replay only bumps the
// duplicate counter.
func TestSeenSetSuppressesReplays(t *testing.T) {
	a := newNode(t, "a", Config{})
	b := newNode(t, "b", Config{})
	c := newNode(t, "c", Config{})
	connect(t, a, b)
	connect(t, c, b) // b in the middle
	sub := mustSubscribe(t, b, "/m")

	xml := "<m/>"
	pub := wire.Publication{From: "a", Origin: "a", Seq: 1, TTL: 4, XML: xml}
	if err := b.HandlePublish(pub); err != nil {
		t.Fatal(err)
	}
	replay := wire.Publication{From: "c", Origin: "a", Seq: 1, TTL: 4, XML: xml}
	if err := b.HandlePublish(replay); err != nil {
		t.Fatal(err)
	}
	if got := len(drainAll(t, b, sub)); got != 1 {
		t.Fatalf("b delivered %d copies, want 1", got)
	}
	info := b.Info()
	if info.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1", info.Duplicates)
	}
	if info.Injected != 1 {
		t.Fatalf("injected = %d, want 1", info.Injected)
	}
}

// TestTombstoneStopsForwarding: after the only remote subscriber
// unsubscribes, the origin re-advertises an empty aggregate and
// publications stop flowing toward it.
func TestTombstoneStopsForwarding(t *testing.T) {
	a := newNode(t, "a", Config{})
	b := newNode(t, "b", Config{})
	connect(t, a, b)

	sub := mustSubscribe(t, b, "/x")
	checkIndex(t, a)
	if _, sent, _ := a.Publish(doc(t, "<x/>")); sent != 1 {
		t.Fatalf("pre-unsubscribe publish forwarded %d times, want 1", sent)
	}
	if !b.Engine().Unsubscribe(sub) {
		t.Fatal("unsubscribe failed")
	}
	checkIndex(t, a)
	if _, sent, _ := a.Publish(doc(t, "<x/>")); sent != 0 {
		t.Fatalf("post-unsubscribe publish forwarded %d times, want 0 (tombstone)", sent)
	}
	// The tombstone keeps the origin's version history: a's table still
	// knows b, at a higher version, with no aggregates.
	for _, o := range a.Info().Origins {
		if o.Origin == "b" && o.Patterns != 0 {
			t.Fatalf("b's tombstone still advertises %d patterns", o.Patterns)
		}
	}
}

// TestAdvertPolicyBatchesChurn: with a Staleness{MaxStale: 4} policy
// the node re-advertises once per 4 mutations, not on every subscribe.
func TestAdvertPolicyBatchesChurn(t *testing.T) {
	a := newNode(t, "a", Config{})
	b := newNode(t, "b", Config{AdvertPolicy: broker.Staleness{MaxStale: 4}})
	connect(t, a, b)

	base := b.Info().AdvertVer
	for i := 0; i < 3; i++ {
		mustSubscribe(t, b, "/q")
		checkIndex(t, a)
	}
	if got := b.Info().AdvertVer; got != base {
		t.Fatalf("advert version moved to %d after 3 ops (policy is 4), base %d", got, base)
	}
	mustSubscribe(t, b, "/q")
	checkIndex(t, a)
	if got := b.Info().AdvertVer; got != base+1 {
		t.Fatalf("advert version %d after 4 ops, want %d", got, base+1)
	}
	// A publication matching the batched subscriptions now forwards.
	if _, sent, _ := a.Publish(doc(t, "<q/>")); sent != 1 {
		t.Fatal("batched advert did not reach a")
	}
}

// TestLatePeerGetsFullState: a node joining after subscriptions exist
// receives the whole routing table in the AddPeer sync and can route
// immediately, including to origins two hops away.
func TestLatePeerGetsFullState(t *testing.T) {
	a := newNode(t, "a", Config{})
	b := newNode(t, "b", Config{})
	connect(t, a, b)
	sub := mustSubscribe(t, a, "/deep")
	checkIndex(t, b)

	c := newNode(t, "c", Config{})
	connect(t, b, c) // c learns about a's aggregate from b's full-state sync
	checkIndex(t, b)
	checkIndex(t, c)

	if _, sent, err := c.Publish(doc(t, "<deep/>")); err != nil || sent != 1 {
		t.Fatalf("late joiner publish: sent=%d err=%v", sent, err)
	}
	if got := len(drainAll(t, a, sub)); got != 1 {
		t.Fatalf("a delivered %d, want 1 (via b)", got)
	}
}

// TestTTLBoundsPropagation: a document stops after TTL hops even when
// aggregates match further downstream.
func TestTTLBoundsPropagation(t *testing.T) {
	nodes := []*Node{
		newNode(t, "n0", Config{TTL: 2}),
		newNode(t, "n1", Config{TTL: 2}),
		newNode(t, "n2", Config{TTL: 2}),
		newNode(t, "n3", Config{TTL: 2}),
	}
	for i := 0; i+1 < len(nodes); i++ {
		connect(t, nodes[i], nodes[i+1])
	}
	near := mustSubscribe(t, nodes[2], "/far")
	far := mustSubscribe(t, nodes[3], "/far")

	if _, _, err := nodes[0].Publish(doc(t, "<far/>")); err != nil {
		t.Fatal(err)
	}
	if got := len(drainAll(t, nodes[2], near)); got != 1 {
		t.Fatalf("2-hop subscriber delivered %d, want 1", got)
	}
	if got := len(drainAll(t, nodes[3], far)); got != 0 {
		t.Fatalf("3-hop subscriber delivered %d, want 0 (TTL 2)", got)
	}
	if nodes[2].Info().TTLDrops == 0 {
		t.Fatal("no TTL drop recorded at the horizon")
	}
}

// TestInjectRemoteCounted: overlay-delivered documents show up in the
// broker's RemoteInjected stat, separating federated from local load.
func TestInjectRemoteCounted(t *testing.T) {
	a := newNode(t, "a", Config{})
	b := newNode(t, "b", Config{})
	connect(t, a, b)
	mustSubscribe(t, b, "/x")
	if _, _, err := a.Publish(doc(t, "<x/>")); err != nil {
		t.Fatal(err)
	}
	bs := b.Engine().Stats()
	if bs.RemoteInjected != 1 || bs.Published != 1 {
		t.Fatalf("b stats: remote=%d published=%d, want 1/1", bs.RemoteInjected, bs.Published)
	}
	as := a.Engine().Stats()
	if as.RemoteInjected != 0 {
		t.Fatalf("a stats: remote=%d, want 0", as.RemoteInjected)
	}
}

// TestConcurrentPublishChurnAdvertise hammers publishes against
// churn-triggered re-advertisement on a connected pair (run with
// -race): advert building must never mutate patterns the publish path
// is concurrently matching.
func TestConcurrentPublishChurnAdvertise(t *testing.T) {
	a := newNode(t, "a", Config{})
	b := newNode(t, "b", Config{})
	connect(t, a, b)
	mustSubscribe(t, b, "/x") // keep every publish flowing toward b
	d := doc(t, "<x><b/><c/></x>")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if _, _, err := a.Publish(d); err != nil {
						return
					}
				}
			}
		}()
	}
	// Each subscription is a fresh pattern whose parse order differs
	// from canonical order ([c] before [b]), so the advert build's
	// canonicalization reorders child lists the injected publishes are
	// concurrently matching at b — unless the build works on clones.
	for i := 0; i < 50; i++ {
		id := mustSubscribe(t, b, "/x[c][b]")
		if i%2 == 0 {
			b.Engine().Unsubscribe(id)
		}
	}
	close(stop)
	wg.Wait()
}

// TestClosedNodeRefuses: operations after Close fail with ErrClosed and
// churn no longer triggers advertisement.
func TestClosedNodeRefuses(t *testing.T) {
	a := newNode(t, "a", Config{})
	b := newNode(t, "b", Config{})
	connect(t, a, b)
	a.Close()
	if _, _, err := a.Publish(doc(t, "<x/>")); err != ErrClosed {
		t.Fatalf("publish on closed node: %v, want ErrClosed", err)
	}
	if err := a.HandleAdvert(wire_batch(b)); err != ErrClosed {
		t.Fatalf("advert on closed node: %v, want ErrClosed", err)
	}
	ver := a.Info().AdvertVer
	mustSubscribe(t, a, "/x") // engine still works; hook is detached
	if got := a.Info().AdvertVer; got != ver {
		t.Fatalf("closed node re-advertised (version %d -> %d)", ver, got)
	}
}
