package overlay

import (
	"errors"
	"reflect"
	"testing"

	"treesim/internal/xmltree"
)

// TestExplainForwardMatchesTracedPublish is the overlay half of the
// explain acceptance check: on an a—b—c line, the forward plan
// ExplainForward predicts for a document must equal — link for link —
// what a traced publish of the same document actually does, and the
// local half must equal the engine's real delivery count.
func TestExplainForwardMatchesTracedPublish(t *testing.T) {
	a := newNode(t, "a", Config{})
	b := newNode(t, "b", Config{})
	c := newNode(t, "c", Config{})
	connect(t, a, b)
	connect(t, b, c)

	mustSubscribe(t, a, "/z")
	mustSubscribe(t, b, "//y")
	mustSubscribe(t, c, "/x/y")

	for _, xml := range []string{"<x><y/></x>", "<z/>", "<q/>", "<x><y><w/></y></x>"} {
		d := doc(t, xml)
		ex, err := a.ExplainForward(xmltree.Pack(d), "", "")
		if err != nil {
			t.Fatal(err)
		}
		if ex.Node != "a" || ex.Origin != "a" || ex.From != "" {
			t.Fatalf("doc %s: explanation identity wrong: %+v", xml, ex)
		}
		res, sent, id, err := a.PublishTraced(xmltree.Pack(d))
		if err != nil {
			t.Fatal(err)
		}
		if len(ex.ForwardTo) != sent {
			t.Fatalf("doc %s: plan forwards to %v, publish sent on %d links", xml, ex.ForwardTo, sent)
		}
		spans := a.TraceSpans(id)
		if len(spans) != 1 {
			t.Fatalf("doc %s: %d origin spans, want 1", xml, len(spans))
		}
		actual := append([]string(nil), spans[0].ForwardedTo...)
		if len(actual) == 0 {
			actual = nil
		}
		var predicted []string
		predicted = append(predicted, ex.ForwardTo...)
		if !reflect.DeepEqual(predicted, actual) {
			t.Fatalf("doc %s: predicted forwards %v, traced publish forwarded to %v", xml, predicted, actual)
		}
		if got := len(ex.Local.Deliveries); got != res.Deliveries {
			t.Fatalf("doc %s: plan predicts %d local deliveries, publish made %d", xml, got, res.Deliveries)
		}
		// Every verdict must carry a coherent reason.
		for _, v := range ex.Links {
			switch v.Reason {
			case ReasonMatch:
				if !v.Forward || len(v.Matched) == 0 {
					t.Fatalf("doc %s: match verdict without forwards/origins: %+v", xml, v)
				}
			case ReasonNoMatch, ReasonNoAggregates, ReasonDown, ReasonArrival:
				if v.Forward || len(v.Matched) != 0 {
					t.Fatalf("doc %s: skip verdict %q carries forward state: %+v", xml, v.Reason, v)
				}
			default:
				t.Fatalf("doc %s: unknown reason %q", xml, v.Reason)
			}
		}
	}
}

// TestExplainForwardArrivalScenario re-runs the plan as a mid-path hop
// would: a publication from origin a arriving at b on link a must never
// echo back (reason "arrival") and must forward toward c only when c's
// advertised aggregate matches — with the advert version the link
// forest actually holds.
func TestExplainForwardArrivalScenario(t *testing.T) {
	a := newNode(t, "a", Config{})
	b := newNode(t, "b", Config{})
	c := newNode(t, "c", Config{})
	connect(t, a, b)
	connect(t, b, c)
	mustSubscribe(t, c, "/x/y")

	ex, err := b.ExplainForward(xmltree.Pack(doc(t, "<x><y/></x>")), "a", "a")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Origin != "a" || ex.From != "a" {
		t.Fatalf("scenario not honored: %+v", ex)
	}
	verdicts := map[string]ForwardVerdict{}
	for _, v := range ex.Links {
		verdicts[v.Peer] = v
	}
	if v := verdicts["a"]; v.Forward || v.Reason != ReasonArrival {
		t.Fatalf("arrival link verdict = %+v, want skip with reason arrival", v)
	}
	v, ok := verdicts["c"]
	if !ok || !v.Forward || v.Reason != ReasonMatch {
		t.Fatalf("verdict toward c = %+v, want forward on match", v)
	}
	if len(v.Matched) != 1 || v.Matched[0].Origin != "c" {
		t.Fatalf("matched origins toward c = %+v, want origin c", v.Matched)
	}
	// The version the explanation names must be the version b's routing
	// table holds for c.
	var want uint64
	for _, r := range b.IntrospectRoutes() {
		if r.Origin == "c" {
			want = r.Version
		}
	}
	if want == 0 || v.Matched[0].Version != want {
		t.Fatalf("advert version %d in verdict, routing table holds %d", v.Matched[0].Version, want)
	}
	// A no-match document still refuses the arrival link.
	ex2, err := b.ExplainForward(xmltree.Pack(doc(t, "<q/>")), "a", "a")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ex2.Links {
		if v.Forward {
			t.Fatalf("no-match doc still forwards: %+v", v)
		}
	}
}

// TestIntrospectRoutesAndLinks pins the snapshot accessors on a live
// line topology: hops count up with distance, via names the next-hop
// link, and link health reads up with real send counters.
func TestIntrospectRoutesAndLinks(t *testing.T) {
	a := newNode(t, "a", Config{})
	b := newNode(t, "b", Config{})
	c := newNode(t, "c", Config{})
	connect(t, a, b)
	connect(t, b, c)
	mustSubscribe(t, a, "/p")
	mustSubscribe(t, c, "/x/y")

	routeTo := func(n *Node, origin string) (RouteInfo, bool) {
		for _, r := range n.IntrospectRoutes() {
			if r.Origin == origin {
				return r, true
			}
		}
		return RouteInfo{}, false
	}
	rc, ok := routeTo(a, "c")
	if !ok {
		t.Fatalf("a has no route to origin c: %+v", a.IntrospectRoutes())
	}
	// Hops counts intermediate relays: a direct neighbor's advert
	// arrives with 0, and each re-gossip adds one — so c, two links
	// away, shows 1 relay (b).
	if rc.Via != "b" || rc.Hops != 1 || rc.Version == 0 || rc.Tombstone {
		t.Fatalf("a's route to c = %+v, want via b, 1 relay, live", rc)
	}
	if rc.AgeMS < 0 || rc.Patterns == 0 || rc.Members == 0 {
		t.Fatalf("a's route to c carries implausible freshness/size: %+v", rc)
	}
	rb, ok := routeTo(c, "a")
	if !ok || rb.Via != "b" {
		t.Fatalf("c's route to a = %+v (ok=%v), want via b", rb, ok)
	}

	links := b.IntrospectLinks()
	if len(links) != 2 {
		t.Fatalf("b introspects %d links, want 2: %+v", len(links), links)
	}
	for _, l := range links {
		if !l.Up || l.Sends == 0 || l.Errors != 0 || l.LastError != "" {
			t.Fatalf("link %s not a healthy active link: %+v", l.Peer, l)
		}
		if l.Peer != "a" && l.Peer != "c" {
			t.Fatalf("unexpected peer %q", l.Peer)
		}
	}
	if links[0].Peer >= links[1].Peer {
		t.Fatalf("links not sorted by peer: %+v", links)
	}
}

// TestExplainForwardRejectsImpossibleScenarios: an arrival link without
// an origin (a local publication arrives on no link) and an arrival
// link the node does not have are scenarios no publication can be in;
// both fail with ErrScenario, and a closed node with ErrClosed.
func TestExplainForwardRejectsImpossibleScenarios(t *testing.T) {
	a := newNode(t, "a", Config{})
	b := newNode(t, "b", Config{})
	connect(t, a, b)
	d := doc(t, "<x/>")
	for _, c := range []struct{ origin, from string }{
		{"", "b"},
		{"b", "nowhere"},
	} {
		if _, err := a.ExplainForward(xmltree.Pack(d), c.origin, c.from); !errors.Is(err, ErrScenario) {
			t.Errorf("ExplainForward(origin %q, from %q) = %v, want ErrScenario", c.origin, c.from, err)
		}
	}
	if _, err := a.ExplainForward(xmltree.Pack(d), "b", "b"); err != nil {
		t.Fatalf("a forwarded publication from b's origin on b's link: %v", err)
	}
	a.Close()
	if _, err := a.ExplainForward(xmltree.Pack(d), "", ""); !errors.Is(err, ErrClosed) {
		t.Fatalf("ExplainForward on a closed node = %v, want ErrClosed", err)
	}
}
