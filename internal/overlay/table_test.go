package overlay

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"treesim/internal/overlay/wire"
	"treesim/internal/xmltree"
)

// checkIndex asserts that n's remote forest and routing table agree:
// the forest holds exactly the handles the table's entries hold, each
// handle's owner names the entry holding it, and tombstoned entries
// hold none (a deleted entry's handles would show up as owners naming
// an origin the table no longer has).
func checkIndex(t *testing.T, n *Node) {
	t.Helper()
	n.fmu.RLock()
	defer n.fmu.RUnlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	held := 0
	for origin, e := range n.table {
		if e.expired && len(e.hs) > 0 {
			t.Errorf("%s: tombstoned origin %q holds handles %v", n.ID(), origin, e.hs)
		}
		for _, h := range e.hs {
			if h >= len(n.owner) || n.owner[h] != origin {
				t.Errorf("%s: origin %q holds handle %d, owned by another origin", n.ID(), origin, h)
			}
		}
		held += len(e.hs)
	}
	if live := n.remote.Live(); live != held {
		t.Errorf("%s: remote forest holds %d patterns, the table %d", n.ID(), live, held)
	}
	for h, origin := range n.owner {
		if origin == "" {
			continue
		}
		if e := n.table[origin]; e == nil || !slices.Contains(e.hs, h) {
			t.Errorf("%s: handle %d owned by %q, whose entry does not hold it", n.ID(), h, origin)
		}
	}
}

// TestForwardMatchesOtherOrigins covers the outcomes of the forwarding
// decision on a hub whose one link carries two origins' aggregates and
// a tombstone: a document no aggregate matches, one only the
// publication's own origin wants, one another origin wants. Then a next
// hop moves, which changes the forward set and not the forest, and an
// origin expires and revives at its next version.
func TestForwardMatchesOtherOrigins(t *testing.T) {
	hub := newNode(t, "hub", Config{Maintenance: time.Hour})
	for _, peer := range []string{"p", "q"} {
		if err := hub.addPeerLink(peer, &silentTransport{}); err != nil {
			t.Fatal(err)
		}
	}
	advert := func(from, origin string, version uint64, hops int, pats ...string) {
		t.Helper()
		a := wire.Advert{Origin: origin, Version: version, Hops: hops}
		if len(pats) > 0 {
			a.Communities = []wire.Community{{Patterns: pats, Members: len(pats)}}
		}
		if err := hub.HandleAdvert(wire.AdvertBatch{From: from, Adverts: []wire.Advert{a}}); err != nil {
			t.Fatal(err)
		}
		checkIndex(t, hub)
	}
	forwardTo := func(xml, origin, from string) []string {
		var ids []string
		var f xmltree.Flat
		f.Load(doc(t, xml), nil)
		for _, l := range hub.forward(&f, origin, from, nil) {
			ids = append(ids, l.id)
		}
		return ids
	}
	advert("p", "A", 1, 2, "/a/b", "//x")
	advert("p", "B", 1, 2, "/a/c", "//x")
	advert("p", "gone", 1, 2) // a tombstone attracts nothing

	for _, c := range []struct {
		name, doc, origin string
		want              []string
	}{
		{"miss", "<q><r/></q>", "A", nil},
		{"hit on the publication's origin only", "<a><b/></a>", "A", nil},
		{"hit on another origin", "<a><b/></a>", "B", []string{"p"}},
		{"hit on both, one the publication's", "<a><x/></a>", "A", []string{"p"}},
		{"hit, no origin named", "<a><c/></a>", "", []string{"p"}},
	} {
		if got := forwardTo(c.doc, c.origin, ""); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: forward(%s, origin %q) = %v, want %v", c.name, c.doc, c.origin, got, c.want)
		}
	}

	// A strictly shorter path moves A's route to q with the same
	// aggregate: the forward set follows, the forest holds what it held.
	live := hub.remote.Live()
	advert("q", "A", 2, 0, "/a/b", "//x")
	if got := originAt(t, hub, "A"); got.Via != "q" {
		t.Fatalf("A's route did not move: via %q, want q", got.Via)
	}
	if got := hub.remote.Live(); got != live {
		t.Fatalf("a via move changed the forest: %d patterns, was %d", got, live)
	}
	if got := forwardTo("<a><b/></a>", "B", ""); !reflect.DeepEqual(got, []string{"q"}) {
		t.Fatalf("after the via move forward = %v, want [q]", got)
	}
	if got := forwardTo("<a><b/></a>", "B", "q"); got != nil {
		t.Fatalf("forward back on the arrival link: %v", got)
	}

	// Phase-one expiry tombstones every entry at its own version; A's
	// next version revives it.
	hub.expireAdverts(time.Now().Add(2 * hub.cfg.AdvertTTL))
	checkIndex(t, hub)
	if got := hub.remote.Live(); got != 0 {
		t.Fatalf("expired origins left %d patterns in the forest", got)
	}
	if got := forwardTo("<a><b/></a>", "B", ""); got != nil {
		t.Fatalf("expired route still forwards: %v", got)
	}
	advert("p", "A", 3, 2, "/a/b")
	if got := forwardTo("<a><b/></a>", "B", ""); !reflect.DeepEqual(got, []string{"p"}) {
		t.Fatalf("revived A: forward = %v, want [p]", got)
	}
}
