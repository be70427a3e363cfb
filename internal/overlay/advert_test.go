package overlay

import (
	"testing"

	"treesim/internal/broker"
	"treesim/internal/core"
	"treesim/internal/dtd"
	"treesim/internal/pattern"
	"treesim/internal/xmltree"
)

// sampleEngine is an engine whose communities are equal samples, as the
// daemon's are, warmed with the given documents: patterns matching the
// same of them share a community.
func sampleEngine(t *testing.T, docs ...string) *broker.Engine {
	t.Helper()
	eng := broker.New(broker.Config{Estimator: core.Config{Representation: core.Hashes, HashCapacity: 1000, Seed: 1}})
	t.Cleanup(func() { eng.Close() })
	for _, s := range docs {
		if _, err := eng.Publish(doc(t, s)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	return eng
}

// subscribeOneCommunity subscribes exprs and fails unless they form one
// community.
func subscribeOneCommunity(t *testing.T, eng *broker.Engine, exprs ...string) {
	t.Helper()
	for _, expr := range exprs {
		if _, err := eng.Subscribe(expr); err != nil {
			t.Fatal(err)
		}
	}
	if ids := eng.CommunityIDs(); len(ids) != 1 {
		t.Fatalf("%v form communities %v, want one", exprs, ids)
	}
}

// TestAdvertUsesCoveringSubset: a community holding both /a and /a/b
// advertises only /a — the containment cover — and the advert still
// attracts documents matching either member.
func TestAdvertUsesCoveringSubset(t *testing.T) {
	// Every document has an a/b: both subscriptions match all of them.
	eng := sampleEngine(t, "<a><b/></a>", "<a><b/><c/></a>")
	n := New(eng, Config{ID: "x", AdvertPolicy: broker.Staleness{MaxStale: 1}})
	defer n.Close()
	subscribeOneCommunity(t, eng, "/a", "/a/b")
	info := n.Info()
	total := 0
	for _, c := range info.LocalAdvert.Communities {
		total += len(c.Patterns)
		for _, s := range c.Patterns {
			if s != "/a" {
				t.Fatalf("advert pattern %q, want the cover /a", s)
			}
		}
	}
	if total != 1 {
		t.Fatalf("advert carries %d patterns, want 1 (the cover)", total)
	}
}

// TestAdvertMemberCountsSurviveCovering: covering shrinks patterns, not
// the member census the digest reports.
func TestAdvertMemberCountsSurviveCovering(t *testing.T) {
	eng := sampleEngine(t, "<a><b><c/></b></a>")
	n := New(eng, Config{ID: "x", AdvertPolicy: broker.Staleness{MaxStale: 1}})
	defer n.Close()
	subscribeOneCommunity(t, eng, "/a", "/a/b", "/a/b/c")
	members := 0
	for _, c := range n.Info().LocalAdvert.Communities {
		members += c.Members
	}
	if members != 3 {
		t.Fatalf("advert reports %d members, want 3", members)
	}
}

// TestSelectivityDigestTracksStream: after observing a stream, the
// advertised digest reflects the representative's selectivity estimate.
func TestSelectivityDigestTracksStream(t *testing.T) {
	eng := broker.New(broker.Config{Threshold: 2})
	defer eng.Close()
	n := New(eng, Config{ID: "x", AdvertPolicy: broker.Staleness{MaxStale: 1}})
	defer n.Close()
	for i := 0; i < 20; i++ {
		s := "<a><b/></a>"
		if i%2 == 0 {
			s = "<z/>"
		}
		tr, err := xmltree.ParseString(s, xmltree.ParseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := n.Publish(tr); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	if _, err := eng.Subscribe("/a/b"); err != nil {
		t.Fatal(err)
	}
	comms := n.Info().LocalAdvert.Communities
	if len(comms) != 1 {
		t.Fatalf("%d communities, want 1", len(comms))
	}
	if sel := comms[0].Selectivity; sel < 0.2 || sel > 0.8 {
		t.Fatalf("digest selectivity %v for a pattern matching half the stream", sel)
	}
}

// TestAdvertSelectivityReadsWarmView: an advert built right after a
// subscribe runs no SEL evaluation — each community's Selectivity is its
// representative's P on the engine's similarity view, which that view
// already evaluated for the subscribe rows — so a peer reads the figure
// the engine clusters on, not the live estimator's, which has streamed
// on since the view was taken.
func TestAdvertSelectivityReadsWarmView(t *testing.T) {
	d := dtd.NITFLike()
	eng := broker.New(broker.Config{
		Estimator: core.Config{Representation: core.Hashes, HashCapacity: 1000, Seed: 3},
		Threshold: 0.5,
	})
	defer eng.Close()
	n := New(eng, Config{ID: "x", AdvertPolicy: broker.Never{}})
	defer n.Close()
	docs, pats := genDocs(d, 300, 5), genPatterns(d, 60, 6)
	publish := func(docs []*xmltree.Tree) {
		for _, doc := range docs {
			if _, err := eng.Publish(doc); err != nil {
				t.Fatal(err)
			}
		}
		eng.Flush()
	}
	subscribe := func(pats []*pattern.Pattern) {
		for _, p := range pats {
			if _, err := eng.SubscribePattern(p, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	publish(docs[:200])
	subscribe(pats[:59])
	// Nothing was published since the subscribes, so the estimator hands
	// out the frame the engine took for them; the engine keeps it until
	// the stream doubles.
	view := eng.Estimator().View()
	publish(docs[200:])
	subscribe(pats[59:])
	before := view.Evals()
	if err := n.Advertise(); err != nil {
		t.Fatal(err)
	}
	if got := view.Evals() - before; got != 0 {
		t.Fatalf("advertising after a subscribe ran %d SEL evaluations on the view, want 0", got)
	}
	views := eng.CommunityViews()
	comm := make(map[string]int) // member's canonical expression → engine community
	for g, v := range views {
		for _, p := range v.Members {
			comm[p.Clone().Canonicalize().String()] = g
		}
	}
	adv := n.Info().LocalAdvert
	moved := 0
	for _, c := range adv.Communities {
		g, ok := comm[c.Patterns[0]]
		if !ok {
			t.Fatalf("advertised %q is no member's canonical form", c.Patterns[0])
		}
		rep := views[g].Rep
		if want := view.Selectivity(rep); c.Selectivity != want {
			t.Errorf("community of %q advertises selectivity %v, its representative's view P is %v", c.Patterns[0], c.Selectivity, want)
		}
		if c.Selectivity != eng.Estimator().Selectivity(rep) {
			moved++
		}
	}
	if got := view.Evals() - before; got != 0 {
		t.Fatalf("reading the representatives' view P ran %d SEL evaluations, want 0", got)
	}
	if len(adv.Communities) < 2 || moved == 0 {
		t.Fatalf("%d communities, %d whose live P moved off the view's: the comparison proves nothing", len(adv.Communities), moved)
	}
}
