package overlay

import (
	"reflect"
	"slices"
	"testing"

	"treesim/internal/broker"
	"treesim/internal/core"
	"treesim/internal/dtd"
	"treesim/internal/overlay/wire"
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
// the member census the advert reports.
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

// TestAdvertRunsNoEvaluation: building an advert reads the registry's
// live patterns only. It runs no SEL evaluation on the view the
// communities are keyed on, nor on the estimator's current frame, which
// has streamed on since that view was taken, so the node lock it holds
// never waits on the estimator.
func TestAdvertRunsNoEvaluation(t *testing.T) {
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
	current := eng.Estimator().View()
	if current == view {
		t.Fatal("the stream did not move the estimator past the keyed view")
	}
	before, currentBefore := view.Evals(), current.Evals()
	if err := n.Advertise(); err != nil {
		t.Fatal(err)
	}
	if got := view.Evals() - before; got != 0 {
		t.Fatalf("advertising ran %d SEL evaluations on the keyed view, want 0", got)
	}
	if got := current.Evals() - currentBefore; got != 0 {
		t.Fatalf("advertising ran %d SEL evaluations on the current frame, want 0", got)
	}
	if st, got := eng.Stats(), advertMembers(n.Info().LocalAdvert); st.Communities >= st.Live || got != st.Live {
		t.Fatalf("advert counts %d members; the engine holds %d subscriptions in %d communities", got, st.Live, st.Communities)
	}
}

// TestAdvertIgnoresClustering: the advert is the cover of the live
// patterns, whatever communities hold them. One population advertises
// the same chunks in community mode (0.5) and exact mode (2), with the
// live count as Members, and a forced re-bucket, which moves no live
// pattern, leaves the advert as it was and sends none.
func TestAdvertIgnoresClustering(t *testing.T) {
	d := dtd.NITFLike()
	docs := genDocs(d, 30, 5)
	var pats []*pattern.Pattern
	for _, p := range genPatterns(d, 150, 6) {
		// Leave out the patterns (//* and the like) that match every
		// document: one of those would be the whole cover.
		if slices.ContainsFunc(docs, func(dc *xmltree.Tree) bool { return !pattern.Matches(dc, p) }) {
			pats = append(pats, p)
		}
	}
	var adverts [2][]wire.Community
	for i, threshold := range []float64{0.5, 2} {
		n := coverNode(t, "x", threshold, Config{AdvertPolicy: broker.Never{}})
		connect(t, n, coverNode(t, "y", 2, Config{}))
		for _, dc := range docs { // a warm synopsis, so 0.5 forms communities
			if _, err := n.Engine().Publish(dc); err != nil {
				t.Fatal(err)
			}
		}
		n.Engine().Flush()
		for _, p := range pats {
			if _, err := n.Engine().SubscribePattern(p, p.String()); err != nil {
				t.Fatal(err)
			}
		}
		if st := n.Engine().Stats(); threshold < 1 && st.Communities >= st.Live {
			t.Fatalf("%d communities for %d subscriptions at threshold %v", st.Communities, st.Live, threshold)
		}
		if err := n.Advertise(); err != nil {
			t.Fatal(err)
		}
		info := n.Info()
		if got := advertMembers(info.LocalAdvert); got != n.Engine().Live() {
			t.Fatalf("threshold %v: Σ Members = %d, Live() %d", threshold, got, n.Engine().Live())
		}
		if kept := len(advertised(t, info.LocalAdvert)); kept < 10 {
			t.Fatalf("threshold %v: the cover keeps %d patterns; the comparison proves little", threshold, kept)
		}
		n.Engine().Rebuild()
		after := n.Info()
		if !reflect.DeepEqual(after.LocalAdvert, info.LocalAdvert) || after.AdvertsSent != info.AdvertsSent {
			t.Fatalf("threshold %v: Rebuild changed the advert %+v → %+v, adverts sent %d → %d",
				threshold, info.LocalAdvert, after.LocalAdvert, info.AdvertsSent, after.AdvertsSent)
		}
		adverts[i] = info.LocalAdvert.Communities
	}
	if !reflect.DeepEqual(adverts[0], adverts[1]) {
		t.Fatalf("threshold 0.5 advertises %v, threshold 2 %v", adverts[0], adverts[1])
	}
}
