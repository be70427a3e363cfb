package overlay

import (
	"math/rand"
	"testing"

	"treesim/internal/broker"
	"treesim/internal/core"
	"treesim/internal/dtd"
	"treesim/internal/pattern"
	"treesim/internal/querygen"
	"treesim/internal/xmlgen"
	"treesim/internal/xmltree"
)

// TestAdvertUsesCoveringSubset: a community holding both /a and /a/b
// advertises only /a — the containment cover — and the advert still
// attracts documents matching either member.
func TestAdvertUsesCoveringSubset(t *testing.T) {
	// Negative threshold: any similarity (the empty synopsis yields 0)
	// merges, so both subscriptions land in one community.
	eng := broker.New(broker.Config{Threshold: -1, Rebuild: broker.Never{}})
	defer eng.Close()
	n := New(eng, Config{ID: "x", AdvertPolicy: broker.Staleness{MaxStale: 1}})
	defer n.Close()

	if _, err := eng.Subscribe("/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Subscribe("/a/b"); err != nil {
		t.Fatal(err)
	}
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
	eng := broker.New(broker.Config{Threshold: -1, Rebuild: broker.Never{}})
	defer eng.Close()
	n := New(eng, Config{ID: "x", AdvertPolicy: broker.Staleness{MaxStale: 1}})
	defer n.Close()
	for _, expr := range []string{"/a", "/a/b", "/a/b/c"} {
		if _, err := eng.Subscribe(expr); err != nil {
			t.Fatal(err)
		}
	}
	members := 0
	for _, c := range n.Info().LocalAdvert.Communities {
		members += c.Members
	}
	if members != 3 {
		t.Fatalf("advert reports %d members, want 3", members)
	}
}

// TestTruncatePreservesContainment: for random DTD-derived patterns and
// documents, a document matching the original pattern always matches
// the truncated one (generalization never loses recall), and the
// truncated pattern respects the node budget and stays valid.
func TestTruncatePreservesContainment(t *testing.T) {
	d := dtd.Media()
	qg := querygen.New(d, querygen.Defaults(11))
	dg := xmlgen.New(d, xmlgen.Options{Seed: 12})
	docs := dg.GenerateN(60)
	rng := rand.New(rand.NewSource(13))
	checked := 0
	for i := 0; i < 300; i++ {
		p := qg.Generate()
		budget := 1 + rng.Intn(6)
		tr := truncatePattern(p, budget)
		if err := tr.Validate(); err != nil {
			t.Fatalf("truncate(%s, %d) invalid: %v", p, budget, err)
		}
		if tr.Size() > budget {
			t.Fatalf("truncate(%s, %d) has %d nodes", p, budget, tr.Size())
		}
		for _, dc := range docs {
			if pattern.Matches(dc, p) {
				checked++
				if !pattern.Matches(dc, tr) {
					t.Fatalf("doc matches %s but not its truncation %s (budget %d)", p, tr, budget)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("workload produced no matching (doc, pattern) pairs; test is vacuous")
	}
}

// TestTruncateKeepsDescendantsPaired: "//" never survives without its
// child.
func TestTruncateKeepsDescendantsPaired(t *testing.T) {
	p := pattern.MustParse("/a//b[c]//d")
	for budget := 1; budget <= p.Size(); budget++ {
		tr := truncatePattern(p, budget)
		if err := tr.Validate(); err != nil {
			t.Fatalf("budget %d: %v (pattern %s)", budget, err, tr)
		}
	}
}

// TestSelectivityDigestTracksStream: after observing a stream, the
// advertised digest reflects the representative's selectivity estimate.
func TestSelectivityDigestTracksStream(t *testing.T) {
	eng := broker.New(broker.Config{Threshold: 2, Rebuild: broker.Never{}})
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
