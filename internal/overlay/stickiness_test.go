package overlay

import (
	"testing"
	"time"

	"treesim/internal/overlay/wire"
)

// originAt finds origin's routing-table summary in n.Info, failing the
// test when the route is absent.
func originAt(t *testing.T, n *Node, origin string) wire.OriginInfo {
	t.Helper()
	for _, o := range n.Info().Origins {
		if o.Origin == origin {
			return o
		}
	}
	t.Fatalf("%s has no route for origin %q", n.ID(), origin)
	return wire.OriginInfo{}
}

// forge sends a hand-built advert for origin "a" into n, claiming to
// arrive from peer from, and checks n's forest against its table.
func forge(t *testing.T, n *Node, from string, version uint64, hops int) {
	t.Helper()
	err := n.HandleAdvert(wire.AdvertBatch{From: from, Adverts: []wire.Advert{{
		Origin:      "a",
		Version:     version,
		Hops:        hops,
		Communities: []wire.Community{{Patterns: []string{"/x"}, Members: 1}},
	}}})
	if err != nil {
		t.Fatalf("forged advert from %s: %v", from, err)
	}
	checkIndex(t, n)
}

// TestViaStickiness pins the sticky next-hop rules of HandleAdvert: a
// fresher advert arriving off the incumbent via refreshes the version
// in place, moves the route only when the new path is strictly
// shorter, and the quiet-via escape lets an alternative link take over
// once the incumbent stops carrying the origin's floods. Without
// stickiness the route follows whichever copy of a refresh flood lands
// first, and a reordered direct copy on a multipath topology briefly
// points two adjacent nodes at each other — a split-horizon black hole
// for any publication entering the cycle.
func TestViaStickiness(t *testing.T) {
	// Line a-b-c plus a spur c-d: c learns origin "a" via "b" at hops 1,
	// leaving "d" as the alternative link adverts are forged on.
	a := newNode(t, "a", Config{})
	b := newNode(t, "b", Config{})
	c := newNode(t, "c", Config{})
	d := newNode(t, "d", Config{})
	connect(t, a, b)
	connect(t, b, c)
	connect(t, c, d)

	mustSubscribe(t, a, "/x")
	if err := a.Advertise(); err != nil {
		t.Fatalf("advertise: %v", err)
	}
	checkIndex(t, c)
	cur := originAt(t, c, "a")
	if cur.Via != "b" || cur.Hops != 1 {
		t.Fatalf("route for a: via=%q hops=%d, want via b at 1 hop", cur.Via, cur.Hops)
	}

	// Fresher version on a longer path: version must advance, the route
	// must not move.
	forge(t, c, "d", cur.Version+10, 5)
	got := originAt(t, c, "a")
	if got.Via != "b" {
		t.Fatalf("equal-or-longer path stole the route: via=%q, want b", got.Via)
	}
	if got.Version != cur.Version+10 {
		t.Fatalf("off-via freshness not recorded: version=%d, want %d", got.Version, cur.Version+10)
	}

	// Strictly shorter path: the route moves.
	forge(t, c, "d", cur.Version+20, 0)
	if got = originAt(t, c, "a"); got.Via != "d" || got.Hops != 0 {
		t.Fatalf("shorter path did not win: via=%q hops=%d, want d at 0 hops", got.Via, got.Hops)
	}
}

// TestViaStickinessQuietVia: when the incumbent via stops carrying an
// origin's refresh floods for AdvertTTL/2, the next fresher advert on
// another link takes the route even at equal hop count.
func TestViaStickinessQuietVia(t *testing.T) {
	const ttl = 400 * time.Millisecond
	a := newNode(t, "a", Config{})
	b := newNode(t, "b", Config{})
	c := newNode(t, "c", Config{AdvertTTL: ttl})
	d := newNode(t, "d", Config{})
	connect(t, a, b)
	connect(t, b, c)
	connect(t, c, d)

	mustSubscribe(t, a, "/x")
	if err := a.Advertise(); err != nil {
		t.Fatalf("advertise: %v", err)
	}
	checkIndex(t, c)
	cur := originAt(t, c, "a")
	if cur.Via != "b" {
		t.Fatalf("route for a: via=%q, want b", cur.Via)
	}

	// Within the quiet window an equal-hops fresher advert must not
	// move the route.
	forge(t, c, "d", cur.Version+1, cur.Hops)
	if got := originAt(t, c, "a"); got.Via != "b" {
		t.Fatalf("route moved inside the quiet window: via=%q, want b", got.Via)
	}

	// Let the via go quiet past TTL/2 (but short of expiry, which the
	// stick above pushed out by refreshing lastSeen), then forge again.
	time.Sleep(ttl/2 + 50*time.Millisecond)
	forge(t, c, "d", cur.Version+2, cur.Hops)
	if got := originAt(t, c, "a"); got.Via != "d" {
		t.Fatalf("quiet via held the route: via=%q, want d", got.Via)
	}
}
