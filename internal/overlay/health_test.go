package overlay

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"treesim/internal/broker"
	"treesim/internal/overlay/wire"
)

// switchable is a fault-injection transport: flip down to sever the
// link (sends fail), flip it back to heal.
type switchable struct {
	inner Transport
	down  atomic.Bool
}

var errSevered = errors.New("link severed")

func (s *switchable) SendAdvert(b wire.AdvertBatch) error {
	if s.down.Load() {
		return errSevered
	}
	return s.inner.SendAdvert(b)
}

func (s *switchable) SendPublish(p wire.Publication) error {
	if s.down.Load() {
		return errSevered
	}
	return s.inner.SendPublish(p)
}

func waitUntil(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

// fastHealth is a liveness config tuned for test speed.
func fastHealth() Config {
	return Config{
		AdvertTTL:   150 * time.Millisecond,
		Maintenance: 10 * time.Millisecond,
		RetryBase:   20 * time.Millisecond,
		RetryMax:    100 * time.Millisecond,
	}
}

// TestAdvertExpiryClosesRoutes: when an origin goes silent (node
// closed, so no refresh adverts), its routes at the surviving peer must
// expire within the advert TTL and stop attracting forwards.
func TestAdvertExpiryClosesRoutes(t *testing.T) {
	a := newNode(t, "a", fastHealth())
	b := newNode(t, "b", fastHealth())
	connect(t, a, b)
	mustSubscribe(t, b, "/x/y")
	checkIndex(t, a)

	if _, sent, err := a.Publish(doc(t, "<x><y/></x>")); err != nil || sent != 1 {
		t.Fatalf("pre-failure publish: sent=%d err=%v, want 1", sent, err)
	}

	b.Close() // silent death: no unadvertise, just absence
	waitUntil(t, 3*time.Second, func() bool {
		return len(a.Info().Origins) == 0
	}, "a never expired b's advert")
	checkIndex(t, a)
	if got := a.Info().AdvertsExpired; got < 1 {
		t.Fatalf("AdvertsExpired = %d, want >= 1", got)
	}
	// The forwarding hole is closed: nothing matches, nothing is sent.
	if _, sent, err := a.Publish(doc(t, "<x><y/></x>")); err != nil || sent != 0 {
		t.Fatalf("post-expiry publish: sent=%d err=%v, want 0", sent, err)
	}
}

// silentTransport swallows adverts and counts publishes — a stand-in
// peer that never answers back, letting tests drive the receiving
// node's table directly through HandleAdvert.
type silentTransport struct{ pubs atomic.Uint64 }

func (c *silentTransport) SendAdvert(wire.AdvertBatch) error  { return nil }
func (c *silentTransport) SendPublish(wire.Publication) error { c.pubs.Add(1); return nil }

// TestExpiredOriginRevivesAtNextVersion: an origin that was merely
// paused (no crash, so no version jump) resumes with exactly
// version+1 after its routes expired. The expiry tombstone must sit at
// the entry's own version, with its patterns out of the remote forest:
// a tombstone at version+1 would reject the resume advert as
// not-newer, a silent forwarding hole.
func TestExpiredOriginRevivesAtNextVersion(t *testing.T) {
	cfg := fastHealth()
	cfg.AdvertTTL = 500 * time.Millisecond // a wide window between expiry phases
	a := newNode(t, "a", cfg)
	if err := a.AddPeer("z", &silentTransport{}); err != nil {
		t.Fatal(err)
	}
	advert := func(version uint64) {
		t.Helper()
		if err := a.HandleAdvert(wire.AdvertBatch{From: "z", Adverts: []wire.Advert{{
			Origin:      "z",
			Version:     version,
			Communities: []wire.Community{{Patterns: []string{"/x/y"}, Members: 1}},
		}}}); err != nil {
			t.Fatalf("HandleAdvert v%d: %v", version, err)
		}
		checkIndex(t, a)
	}
	advert(100)
	if _, sent, err := a.Publish(doc(t, "<x><y/></x>")); err != nil || sent != 1 {
		t.Fatalf("pre-expiry publish: sent=%d err=%v, want 1", sent, err)
	}

	// z goes silent. Phase one: the entry is tombstoned in place — still
	// listed, but with no patterns and no forwards.
	waitUntil(t, 3*time.Second, func() bool {
		og := a.Info().Origins
		return len(og) == 1 && og[0].Patterns == 0
	}, "z's advert never expired to a tombstone")
	checkIndex(t, a)
	if _, sent, err := a.Publish(doc(t, "<x><y/></x>")); err != nil || sent != 0 {
		t.Fatalf("post-expiry publish: sent=%d err=%v, want 0", sent, err)
	}

	// z resumes with its next version, restoring forwarding.
	advert(101)
	if _, sent, err := a.Publish(doc(t, "<x><y/></x>")); err != nil || sent != 1 {
		t.Fatalf("post-revival publish: sent=%d err=%v, want 1 (revived advert not indexed?)", sent, err)
	}

	// Silence again: phase one re-tombstones, phase two (a TTL later)
	// deletes the entry outright — dead origins do not leak table rows.
	waitUntil(t, 5*time.Second, func() bool {
		return len(a.Info().Origins) == 0
	}, "z's tombstone never swept from the table")
	checkIndex(t, a)
	// And a fully forgotten origin can still come back.
	advert(102)
	if _, sent, err := a.Publish(doc(t, "<x><y/></x>")); err != nil || sent != 1 {
		t.Fatalf("publish after full forget + revival: sent=%d err=%v, want 1", sent, err)
	}
}

// steppedTransport is Inproc with the arrival instant supplied by the
// test's clock instead of time.Now, so soft-state ages are exact.
type steppedTransport struct {
	peer *Node
	now  *time.Time
}

func (s steppedTransport) SendAdvert(b wire.AdvertBatch) error {
	data, err := wire.EncodeAdvertBatch(b)
	if err != nil {
		return err
	}
	dec, err := wire.DecodeAdvertBatch(data)
	if err != nil {
		return err
	}
	return s.peer.handleAdvertAt(dec, *s.now)
}

func (s steppedTransport) SendPublish(p wire.Publication) error {
	return Inproc{Peer: s.peer}.SendPublish(p)
}

// TestRefreshKeepsEntriesAlive: two healthy nodes must keep each
// other's table entries alive across several TTL periods via keepalive
// re-advertisement. The maintenance ticker is parked and the test steps
// expireAdverts/refreshAdvert itself, in the loop's order, on a clock
// that starts an hour ahead of the wall clock: every arrival is stamped
// from it, and the only wall-clock stamp left (lastAdvert, set by New
// and the subscribe) is so far behind that the first step refreshes
// whatever the machine's load.
func TestRefreshKeepsEntriesAlive(t *testing.T) {
	cfg := fastHealth()
	cfg.Maintenance = time.Hour
	a := newNode(t, "a", cfg)
	b := newNode(t, "b", cfg)
	now := time.Now().Add(time.Hour)
	if err := ConnectTransports(a, b, steppedTransport{b, &now}, steppedTransport{a, &now}); err != nil {
		t.Fatal(err)
	}
	mustSubscribe(t, b, "/x/y")

	ttl := cfg.AdvertTTL
	ver := a.Info().Origins[0].Version
	for end := now.Add(3 * ttl); !now.After(end); now = now.Add(10 * time.Millisecond) {
		for _, n := range []*Node{a, b} {
			n.expireAdverts(now)
			n.refreshAdvert(now)
			checkIndex(t, n)
		}
	}
	ai := a.Info()
	if len(ai.Origins) != 1 || ai.Origins[0].Origin != "b" {
		t.Fatalf("a's table after 3 TTLs: %+v, want b alive", ai.Origins)
	}
	// One refresh per TTL/3, the first at step 0.
	if got, want := ai.Origins[0].Version-ver, uint64(3*3+1); got != want {
		t.Fatalf("b re-advertised %d times over 3 TTLs, want %d", got, want)
	}
	if ai.AdvertsExpired != 0 || b.Info().AdvertsExpired != 0 {
		t.Fatalf("AdvertsExpired = %d / %d, want 0 while both refresh", ai.AdvertsExpired, b.Info().AdvertsExpired)
	}
	if _, sent, err := a.Publish(doc(t, "<x><y/></x>")); err != nil || sent != 1 {
		t.Fatalf("publish after refresh window: sent=%d err=%v, want 1", sent, err)
	}
	// The same clock without b's refreshes expires b's entry: the steps
	// above kept it alive, not a slack TTL.
	for end := now.Add(2 * ttl); !now.After(end); now = now.Add(10 * time.Millisecond) {
		a.expireAdverts(now)
		checkIndex(t, a)
	}
	if got := a.Info().AdvertsExpired; got != 1 {
		t.Fatalf("AdvertsExpired = %d after 2 silent TTLs, want 1", got)
	}
}

// TestLinkDownProbeRecovery severs both directions of a link, verifies
// the damping set takes the link out of forwarding, accumulates churn
// during the partition, heals, and requires the backoff probes to
// recover the link AND resync the state advertised while it was down.
func TestLinkDownProbeRecovery(t *testing.T) {
	cfg := fastHealth()
	cfg.AdvertTTL = -1 // isolate link health from advert expiry
	a := newNode(t, "a", cfg)
	b := newNode(t, "b", cfg)
	ab := &switchable{inner: Inproc{Peer: b}}
	ba := &switchable{inner: Inproc{Peer: a}}
	if err := ConnectTransports(a, b, ab, ba); err != nil {
		t.Fatal(err)
	}
	subOld := mustSubscribe(t, b, "/x/y")

	// Sever. The next send from each side trips its link-health mark.
	ab.down.Store(true)
	ba.down.Store(true)
	a.Advertise()
	b.Advertise()
	ai := a.Info()
	if len(ai.DownPeers) != 1 || ai.DownPeers[0] != "b" || ai.LinkDowns < 1 {
		t.Fatalf("a after sever: down=%v linkDowns=%d, want [b] >=1", ai.DownPeers, ai.LinkDowns)
	}
	// Damping: a publication that would match b must not even attempt
	// the down link.
	errsBefore := a.Info().SendErrors
	if _, sent, err := a.Publish(doc(t, "<x><y/></x>")); err != nil || sent != 0 {
		t.Fatalf("publish into partition: sent=%d err=%v, want 0", sent, err)
	}
	if got := a.Info().SendErrors; got != errsBefore {
		t.Fatalf("publish touched a down link: SendErrors %d -> %d", errsBefore, got)
	}

	// Churn during the partition: gossip toward a is impossible now, so
	// only the heal-time resync can carry it.
	subNew := mustSubscribe(t, b, "/p/q")

	// Heal. Maintenance probes (capped backoff) must recover the link
	// and their full-state sync must deliver the partition-era advert.
	ab.down.Store(false)
	ba.down.Store(false)
	waitUntil(t, 3*time.Second, func() bool {
		return len(a.Info().DownPeers) == 0 && len(b.Info().DownPeers) == 0
	}, "links never recovered after heal")
	ai = a.Info()
	if ai.LinkRecoveries < 1 || ai.Resyncs < 1 {
		t.Fatalf("a after heal: recoveries=%d resyncs=%d, want >=1 each", ai.LinkRecoveries, ai.Resyncs)
	}

	// Routing is whole again, including the pattern subscribed mid-
	// partition.
	waitUntil(t, 3*time.Second, func() bool {
		_, sent, err := a.Publish(doc(t, "<p><q/></p>"))
		return err == nil && sent == 1
	}, "partition-era subscription never resynced to a")
	if ds := drainAll(t, b, subNew); len(ds) == 0 {
		t.Fatal("no delivery for partition-era subscription after heal")
	}
	if _, sent, err := a.Publish(doc(t, "<x><y/></x>")); err != nil || sent != 1 {
		t.Fatalf("pre-partition route after heal: sent=%d err=%v, want 1", sent, err)
	}
	if ds := drainAll(t, b, subOld); len(ds) == 0 {
		t.Fatal("no delivery for pre-partition subscription after heal")
	}
}

// busyTransport answers every publish with backpressure.
type busyTransport struct {
	inner  Transport
	busies atomic.Uint64
}

func (s *busyTransport) SendAdvert(b wire.AdvertBatch) error { return s.inner.SendAdvert(b) }
func (s *busyTransport) SendPublish(p wire.Publication) error {
	s.busies.Add(1)
	return &BusyError{After: time.Millisecond}
}

// TestBusyPeerIsNotDown: backpressure answers must be retried then
// shed without ever charging link health.
func TestBusyPeerIsNotDown(t *testing.T) {
	cfg := fastHealth()
	cfg.AdvertTTL = -1
	a := newNode(t, "a", cfg)
	b := newNode(t, "b", cfg)
	ab := &busyTransport{inner: Inproc{Peer: b}}
	if err := ConnectTransports(a, b, ab, Inproc{Peer: a}); err != nil {
		t.Fatal(err)
	}
	mustSubscribe(t, b, "/x/y")

	_, sent, err := a.Publish(doc(t, "<x><y/></x>"))
	if err != nil || sent != 0 {
		t.Fatalf("publish to busy peer: sent=%d err=%v, want 0 sent, nil err", sent, err)
	}
	ai := a.Info()
	if ai.PeerBusy < 1 {
		t.Fatalf("PeerBusy = %d, want >= 1", ai.PeerBusy)
	}
	if len(ai.DownPeers) != 0 || ai.LinkDowns != 0 || ai.SendErrors != 0 {
		t.Fatalf("busy peer charged link health: down=%v downs=%d errs=%d",
			ai.DownPeers, ai.LinkDowns, ai.SendErrors)
	}
	if got := ab.busies.Load(); got != 2 {
		t.Fatalf("busy peer saw %d attempts, want 2 (send + one retry)", got)
	}
}

func TestBusyAfterClassification(t *testing.T) {
	if _, busy := busyAfter(nil); busy {
		t.Fatal("nil error classified busy")
	}
	if _, busy := busyAfter(errors.New("boom")); busy {
		t.Fatal("ordinary error classified busy")
	}
	if after, busy := busyAfter(&BusyError{After: 10 * time.Millisecond}); !busy || after != 10*time.Millisecond {
		t.Fatalf("BusyError: after=%v busy=%v", after, busy)
	}
	// Hints are clamped to the bounded-politeness cap.
	if after, busy := busyAfter(&BusyError{After: time.Hour}); !busy || after != maxBusyWait {
		t.Fatalf("excessive hint: after=%v busy=%v, want cap %v", after, busy, maxBusyWait)
	}
	if after, busy := busyAfter(&BusyError{}); !busy || after != maxBusyWait {
		t.Fatalf("zero hint: after=%v busy=%v, want cap %v", after, busy, maxBusyWait)
	}
	// In-process backpressure (wrapped broker.ErrBusy) classifies too.
	wrapped := errors.Join(errors.New("overlay: inject"), broker.ErrBusy)
	if _, busy := busyAfter(wrapped); !busy {
		t.Fatal("wrapped broker.ErrBusy not classified busy")
	}
}

// TestSeenSetRemove exercises the backpressure unmark path, including
// the ring-slot integrity it must preserve.
func TestSeenSetRemove(t *testing.T) {
	s := newSeenSet(3)
	s.add(pubID{origin: "a"})
	s.add(pubID{origin: "b"})
	s.remove(pubID{origin: "a"})
	if s.has(pubID{origin: "a"}) {
		t.Fatal("removed key still present")
	}
	if !s.has(pubID{origin: "b"}) {
		t.Fatal("unrelated key lost")
	}
	s.remove(pubID{origin: "zzz"}) // unknown: no-op
	// Re-add after remove, then push the set past capacity: the re-added
	// key must be evicted exactly once, never double-counted via a stale
	// ring slot.
	s.add(pubID{origin: "a"})
	s.add(pubID{origin: "c"}) // ring full: ["", "b", "a"]? slots hold b, a and one blank
	s.add(pubID{origin: "d"})
	s.add(pubID{origin: "e"})
	s.add(pubID{origin: "f"})
	if s.has(pubID{origin: "a"}) && s.has(pubID{origin: "b"}) && s.has(pubID{origin: "c"}) && s.has(pubID{origin: "d"}) && s.has(pubID{origin: "e"}) && s.has(pubID{origin: "f"}) {
		t.Fatal("seen set failed to evict past capacity")
	}
	if !s.has(pubID{origin: "f"}) {
		t.Fatal("most recent key evicted")
	}
	if len(s.m) > 3 {
		t.Fatalf("seen set grew past capacity: %d", len(s.m))
	}
}

// TestEpochFloor: MinEpoch must floor the boot epoch even when the
// clock says otherwise.
func TestEpochFloor(t *testing.T) {
	huge := uint64(1) << 62 // far above any UnixNano epoch
	n := newNode(t, "epoch", Config{MinEpoch: huge})
	ver, seq := n.Epoch()
	if ver <= huge || seq <= huge {
		t.Fatalf("Epoch() = %d, %d; want both > MinEpoch %d", ver, seq, huge)
	}
}
