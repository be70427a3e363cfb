package overlay

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"treesim/internal/broker"
	"treesim/internal/cluster"
	"treesim/internal/core"
	"treesim/internal/dtd"
	"treesim/internal/overlay/wire"
	"treesim/internal/pattern"
	"treesim/internal/persist"
	"treesim/internal/querygen"
	"treesim/internal/xmlgen"
	"treesim/internal/xmltree"
)

// genPatterns and genDocs are treesim.GeneratePatterns and
// treesim.GenerateDocuments (the root package imports this one).
func genPatterns(d *dtd.DTD, n int, seed int64) []*pattern.Pattern {
	return querygen.New(d, querygen.Defaults(seed)).GenerateDistinct(n)
}

func genDocs(d *dtd.DTD, n int, seed int64) []*xmltree.Tree {
	return xmlgen.New(d, xmlgen.Calibrate(d, 100, seed)).GenerateN(n)
}

// coverNode is a node over an engine like the daemon's (Hashes of 1000)
// at the given threshold that re-advertises on every churn operation,
// with liveness off.
func coverNode(t testing.TB, id string, threshold float64, cfg Config) *Node {
	t.Helper()
	eng := broker.New(broker.Config{Estimator: core.Config{Representation: core.Hashes, HashCapacity: 1000, Seed: 1}, Threshold: threshold})
	t.Cleanup(func() { eng.Close() })
	cfg.ID = id
	if cfg.AdvertPolicy == nil {
		cfg.AdvertPolicy = broker.Staleness{MaxStale: 1}
	}
	cfg.AdvertTTL = -1
	n := New(eng, cfg)
	t.Cleanup(n.Close)
	return n
}

func advertised(t testing.TB, adv wire.Advert) []*pattern.Pattern {
	t.Helper()
	var out []*pattern.Pattern
	for _, c := range adv.Communities {
		for _, s := range c.Patterns {
			out = append(out, pattern.MustParse(s))
		}
	}
	return out
}

func advertMembers(adv wire.Advert) int {
	total := 0
	for _, c := range adv.Communities {
		total += c.Members
	}
	return total
}

func matchesAny(doc *xmltree.Tree, ps []*pattern.Pattern) bool {
	for _, p := range ps {
		if pattern.Matches(doc, p) {
			return true
		}
	}
	return false
}

func matchesAnyDoc(p *pattern.Pattern, docs []*xmltree.Tree) bool {
	for _, dc := range docs {
		if pattern.Matches(dc, p) {
			return true
		}
	}
	return false
}

// perCommunityAdvert is the advert build this package shipped before the
// broker-wide cover: cluster.Cover within each engine community, one
// wire community each. The identity tests hold the new build against it.
func perCommunityAdvert(n *Node, version uint64) wire.Advert {
	adv := wire.Advert{Origin: n.cfg.ID, Version: version}
	pat := make(map[uint64]*pattern.Pattern)
	for _, s := range n.eng.IntrospectSubscriptions() {
		pat[s.ID] = pattern.MustParse(s.Pattern)
	}
	for _, c := range n.eng.IntrospectCommunities() {
		members := make([]*pattern.Pattern, len(c.MemberIDs))
		for i, id := range c.MemberIDs {
			members[i] = pat[id]
		}
		kept := cluster.Cover(seq(len(members)), func(a, b int) bool {
			return pattern.Contains(members[a], members[b])
		})
		seen := make(map[string]bool, len(kept))
		var pats []string
		for _, k := range kept {
			if s := members[k].Clone().Canonicalize().String(); !seen[s] {
				seen[s] = true
				pats = append(pats, s)
			}
		}
		adv.Communities = append(adv.Communities, wire.Community{Patterns: pats, Members: len(members)})
	}
	return adv
}

// checkCover asserts the advert's invariants against the engine's live
// population: Σ Members == Live, advertised ⊆ live, no advertised
// pattern contains another, every live pattern is contained by an
// advertised one — and that cluster.Cover from scratch over the
// same population has the same properties and keeps the same patterns
// up to equivalence (the maximal classes of a preorder are unique).
func checkCover(t *testing.T, n *Node) {
	t.Helper()
	adv := n.Info().LocalAdvert
	live := n.Engine().LivePatterns()
	if got := advertMembers(adv); got != len(live) || got != n.Engine().Live() {
		t.Fatalf("Σ Members = %d, population %d, Live() %d", got, len(live), n.Engine().Live())
	}
	if _, err := wire.EncodeAdvertBatch(wire.AdvertBatch{From: n.ID(), Adverts: []wire.Advert{adv}}); err != nil {
		t.Fatalf("own advert does not encode: %v", err)
	}
	ref := cluster.Cover(seq(len(live)), func(a, b int) bool { return pattern.Contains(live[a], live[b]) })
	refPats := make([]*pattern.Pattern, len(ref))
	for i, k := range ref {
		refPats[i] = live[k]
	}
	liveExprs := map[string]bool{}
	for _, p := range live {
		liveExprs[p.Clone().Canonicalize().String()] = true
	}
	for name, kept := range map[string][]*pattern.Pattern{"incremental": advertised(t, adv), "from-scratch": refPats} {
		for i, a := range kept {
			if !liveExprs[a.Clone().Canonicalize().String()] {
				t.Fatalf("%s: kept %s is not a live subscription", name, a)
			}
			for j, b := range kept {
				if i != j && pattern.Contains(a, b) {
					t.Fatalf("%s: kept %s contains kept %s", name, a, b)
				}
			}
		}
		for _, p := range live {
			covered := false
			for _, a := range kept {
				if covered = pattern.Contains(a, p); covered {
					break
				}
			}
			if !covered {
				t.Fatalf("%s: live %s is contained by no kept pattern", name, p)
			}
		}
	}
	got := advertised(t, adv)
	if len(got) != len(ref) {
		t.Fatalf("incremental cover keeps %d patterns, cluster.Cover from scratch %d", len(got), len(ref))
	}
	for _, r := range refPats {
		found := false
		for _, a := range got {
			if found = pattern.Equivalent(a, r); found {
				break
			}
		}
		if !found {
			t.Fatalf("from-scratch cover keeps %s; the incremental one has no equivalent", r)
		}
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestAdvertCoverDifferential: over both DTD generators, several seeds,
// community and exact mode, a document matches some live subscription
// exactly when it matches some advertised pattern.
func TestAdvertCoverDifferential(t *testing.T) {
	for _, d := range []*dtd.DTD{dtd.NITFLike(), dtd.XCBLLike()} {
		for seed := int64(1); seed <= 3; seed++ {
			docs := genDocs(d, 60, seed)
			for _, threshold := range []float64{0.5, 2} {
				name := fmt.Sprintf("%s/seed=%d/threshold=%v", d.Name, seed, threshold)
				t.Run(name, func(t *testing.T) {
					n := coverNode(t, "x", threshold, Config{AdvertPolicy: broker.Never{}})
					for _, dc := range docs[:30] { // a warm synopsis, so 0.5 forms communities
						if _, _, err := n.Publish(dc); err != nil {
							t.Fatal(err)
						}
					}
					n.Engine().Flush()
					pats := genPatterns(d, 150, seed+100)
					for _, p := range pats {
						if _, err := n.Engine().SubscribePattern(p, p.String()); err != nil {
							t.Fatal(err)
						}
					}
					if err := n.Advertise(); err != nil {
						t.Fatal(err)
					}
					if st := n.Engine().Stats(); threshold < 1 && st.Communities >= st.Live {
						t.Fatalf("%d communities for %d subscriptions at threshold %v", st.Communities, st.Live, threshold)
					}
					adv := n.Info().LocalAdvert
					if got := advertMembers(adv); got != len(pats) {
						t.Fatalf("Σ Members = %d, want %d", got, len(pats))
					}
					kept := advertised(t, adv)
					if len(kept) >= len(pats) {
						t.Fatalf("cover kept %d of %d generated patterns: nothing aggregated", len(kept), len(pats))
					}
					hits := 0
					for i, dc := range docs {
						want, got := matchesAny(dc, pats), matchesAny(dc, kept)
						if want {
							hits++
						}
						if want != got {
							t.Fatalf("doc %d: matches a live subscription %v, an advertised pattern %v", i, want, got)
						}
					}
					if hits == 0 {
						t.Fatal("no document matched any subscription; the check is vacuous")
					}
				})
			}
		}
	}
}

// TestAdvertCoverInvariantsUnderChurn replays BenchmarkForestChurn's
// shape — a populated registry, then one subscribe and the oldest
// unsubscribed per step, with a full re-clustering now and then — and
// checks every cover invariant after every step. Adverts are exact
// covers, the only form there is.
func TestAdvertCoverInvariantsUnderChurn(t *testing.T) {
	t.Run("exact", func(t *testing.T) {
		d := dtd.NITFLike()
		n := coverNode(t, "x", 0.5, Config{})
		for _, dc := range genDocs(d, 30, 5) {
			if _, _, err := n.Publish(dc); err != nil {
				t.Fatal(err)
			}
		}
		n.Engine().Flush()
		pats := genPatterns(d, 200, 6)
		rng := rand.New(rand.NewSource(7))
		var ids []uint64
		subscribe := func(p *pattern.Pattern) {
			id, err := n.Engine().SubscribePattern(p, p.String())
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for _, p := range pats[:100] {
			subscribe(p)
		}
		if st := n.Engine().Stats(); st.Communities >= st.Live {
			t.Fatalf("%d communities for %d subscriptions", st.Communities, st.Live)
		}
		checkCover(t, n)
		for step, p := range pats[100:] {
			subscribe(p)
			checkCover(t, n)
			// Mostly the oldest leaves; sometimes a random one, so kept
			// and covered patterns both depart.
			i := 0
			if rng.Intn(3) == 0 {
				i = rng.Intn(len(ids))
			}
			if !n.Engine().Unsubscribe(ids[i]) {
				t.Fatalf("step %d: unsubscribe %d failed", step, ids[i])
			}
			ids = append(ids[:i], ids[i+1:]...)
			checkCover(t, n)
			if step%40 == 39 {
				n.Engine().Rebuild()
				checkCover(t, n)
			}
		}
	})
}

// TestAdvertCoverChainDepartures: with /a, /a/b and /a/b/c subscribed,
// whichever leave in whichever order, the advert is always the single
// shallowest survivor — a departing kept pattern hands its place to the
// maximal pattern among those it stood for, nothing else is touched.
func TestAdvertCoverChainDepartures(t *testing.T) {
	chain := []string{"/a", "/a/b", "/a/b/c"}
	orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, subOrder := range orders[:2] { // the shallowest first, and last of its two
		for _, order := range orders {
			t.Run(fmt.Sprint(subOrder, order), func(t *testing.T) {
				n := coverNode(t, "x", 2, Config{})
				mustSubscribe(t, n, "/other") // an unrelated kept pattern that must stay put
				ids := make([]uint64, len(chain))
				for _, i := range subOrder {
					ids[i] = mustSubscribe(t, n, chain[i])
				}
				live := []bool{true, true, true}
				for _, gone := range order {
					want := ""
					for i := len(chain) - 1; i >= 0; i-- {
						if live[i] {
							want = chain[i]
						}
					}
					var got []string
					for _, c := range n.Info().LocalAdvert.Communities {
						got = append(got, c.Patterns...)
					}
					sort.Strings(got)
					if fmt.Sprint(got) != fmt.Sprint([]string{want, "/other"}) {
						t.Fatalf("live %v: advert %v, want %s and /other", live, got, want)
					}
					checkCover(t, n)
					n.Engine().Unsubscribe(ids[gone])
					live[gone] = false
				}
				if got := advertised(t, n.Info().LocalAdvert); len(got) != 1 {
					t.Fatalf("after the chain left the advert holds %v", got)
				}
			})
		}
	}
}

// TestAdvertCoverEquivalentPatterns: patterns that contain each other —
// the same expression twice, or two spellings of one constraint — are
// advertised once, and the advert survives either of them leaving.
func TestAdvertCoverEquivalentPatterns(t *testing.T) {
	for _, pair := range [][2]string{{"/a/b", "/a/b"}, {"/a/b/c", "/a[b][b/c]"}} {
		for leaver := 0; leaver < 2; leaver++ {
			t.Run(fmt.Sprint(pair, leaver), func(t *testing.T) {
				n := coverNode(t, "x", 2, Config{})
				ids := [2]uint64{mustSubscribe(t, n, pair[0]), mustSubscribe(t, n, pair[1])}
				adv := n.Info().LocalAdvert
				if got := advertised(t, adv); len(got) != 1 || advertMembers(adv) != 2 {
					t.Fatalf("two equivalent subscriptions advertise %v for %d members", got, advertMembers(adv))
				}
				checkCover(t, n)
				n.Engine().Unsubscribe(ids[leaver])
				adv = n.Info().LocalAdvert
				got := advertised(t, adv)
				if len(got) != 1 || advertMembers(adv) != 1 || !pattern.Equivalent(got[0], pattern.MustParse(pair[1-leaver])) {
					t.Fatalf("after %s left the advert is %v for %d members", pair[leaver], got, advertMembers(adv))
				}
				checkCover(t, n)
			})
		}
	}
}

// TestAdvertCoverSharedPatternPointer: one *pattern.Pattern registered
// twice (SubscribePattern with the same value) is one cover entry
// counted for two members until both are gone.
func TestAdvertCoverSharedPatternPointer(t *testing.T) {
	n := coverNode(t, "x", 2, Config{})
	p := pattern.MustParse("/a/b")
	var ids [2]uint64
	for i := range ids {
		id, err := n.Engine().SubscribePattern(p, "/a/b")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	checkCover(t, n)
	n.Engine().Unsubscribe(ids[0])
	checkCover(t, n)
	if got := advertised(t, n.Info().LocalAdvert); len(got) != 1 {
		t.Fatalf("advert %v after one of two holders left", got)
	}
	n.Engine().Unsubscribe(ids[1])
	if adv := n.Info().LocalAdvert; len(adv.Communities) != 0 {
		t.Fatalf("advert %v after both left, want a tombstone", adv.Communities)
	}
}

// TestAdvertCoverIsIncremental counts containment work by its trace: a
// keepalive rebuild of an unchanged population places nothing, a
// newcomer is the only entry placed, and a departing kept pattern
// re-places exactly what it stood for.
func TestAdvertCoverIsIncremental(t *testing.T) {
	n := coverNode(t, "x", 2, Config{})
	top := mustSubscribe(t, n, "/a")
	for _, s := range []string{"/a/b", "/a/c", "/a/b/d", "/z", "/z/y"} {
		mustSubscribe(t, n, s)
	}
	snapshot := func() map[*coverEntry]*coverEntry {
		n.mu.Lock()
		defer n.mu.Unlock()
		out := map[*coverEntry]*coverEntry{}
		for _, e := range n.cover.live {
			out[e] = e.root()
		}
		return out
	}
	before := snapshot()
	if err := n.Advertise(); err != nil {
		t.Fatal(err)
	}
	after := snapshot()
	if len(after) != len(before) {
		t.Fatalf("refresh changed the entry count %d → %d", len(before), len(after))
	}
	for e, r := range before {
		if after[e] != r {
			t.Fatalf("refresh of an unchanged population moved %s", e.expr)
		}
	}
	n.Engine().Unsubscribe(top)
	var kept []string
	for e, r := range snapshot() {
		if e == r {
			kept = append(kept, e.expr)
		} else if before[e].expr == "/z" && r.expr != "/z" {
			t.Fatalf("%s moved from /z to %s though /z never left", e.expr, r.expr)
		}
	}
	if len(kept) != 3 { // /a/b, /a/c, /z
		t.Fatalf("kept after /a left: %v", kept)
	}
	checkCover(t, n)
}

// TestAdvertRepacksBeyondWireCaps: 5000 pairwise incomparable
// subscriptions are more patterns than one wire community may carry; the
// builder chunks them so the advert encodes (two chunks, the first full,
// the live count on the first), the link stays up and routing works. The population enters the way a restarted daemon's
// does — the journal replay path, then a node over the recovered engine
// — which spares the test 5000 similarity rows; the last subscription
// takes the ordinary path through the churn hook.
func TestAdvertRepacksBeyondWireCaps(t *testing.T) {
	const subs = 5000
	eng := broker.New(broker.Config{Threshold: 2})
	t.Cleanup(func() { eng.Close() })
	for i := 0; i < subs-1; i++ {
		if err := eng.Apply(persist.Record{Op: persist.OpSubscribe, ID: uint64(i + 1), Expr: fmt.Sprintf("/r/l%04d", i), Group: i}); err != nil {
			t.Fatal(err)
		}
	}
	b := New(eng, Config{ID: "b", AdvertTTL: -1, AdvertPolicy: broker.Staleness{MaxStale: 1}})
	t.Cleanup(b.Close)
	a := coverNode(t, "a", 2, Config{})
	connect(t, a, b)
	mustSubscribe(t, b, fmt.Sprintf("/r/l%04d", subs-1))

	info := b.Info()
	if _, err := wire.EncodeAdvertBatch(wire.AdvertBatch{From: "b", Adverts: []wire.Advert{info.LocalAdvert}}); err != nil {
		t.Fatalf("advert over the cap does not encode: %v", err)
	}
	if got := advertMembers(info.LocalAdvert); got != subs {
		t.Fatalf("Σ Members = %d, want %d", got, subs)
	}
	if cs := info.LocalAdvert.Communities; len(cs) != 2 || len(cs[0].Patterns) != wire.MaxPatterns || cs[0].Members != subs {
		t.Fatalf("%d chunks, the first of %d patterns and %d members; want 2, %d and %d", len(cs), len(cs[0].Patterns), cs[0].Members, wire.MaxPatterns, subs)
	}
	if got := len(advertised(t, info.LocalAdvert)); got != subs {
		t.Fatalf("advert carries %d patterns, want %d", got, subs)
	}
	if info.SendErrors != 0 || len(info.DownPeers) != 0 {
		t.Fatalf("send errors %d, down peers %v", info.SendErrors, info.DownPeers)
	}
	for _, o := range a.Info().Origins {
		if o.Origin != "b" || o.Patterns != subs || o.Members != subs {
			t.Fatalf("a's table: %+v", o)
		}
	}
	if _, sent, err := a.Publish(doc(t, "<r><l4999/></r>")); err != nil || sent != 1 {
		t.Fatalf("matching document: sent %d, err %v", sent, err)
	}
	if _, sent, _ := a.Publish(doc(t, "<r><l5000/></r>")); sent != 0 {
		t.Fatalf("non-matching document forwarded %d times", sent)
	}
}

// TestPackCommunities: a pattern list over MaxPatterns is split in
// order, its members counted once; a short list is one community.
func TestPackCommunities(t *testing.T) {
	exprs := make([]string, wire.MaxPatterns+11)
	exprs[wire.MaxPatterns] = "/s"
	out := packCommunities(exprs, 7)
	if len(out) != 2 || len(out[0].Patterns) != wire.MaxPatterns || len(out[1].Patterns) != 11 || out[1].Patterns[0] != "/s" {
		t.Fatalf("packed into %d communities", len(out))
	}
	if out[0].Members != 7 || out[1].Members != 0 {
		t.Fatalf("members %d/%d, want 7/0", out[0].Members, out[1].Members)
	}
	if out := packCommunities([]string{"/s"}, 2); len(out) != 1 || out[0].Members != 2 || len(out[0].Patterns) != 1 {
		t.Fatalf("a list within the caps was regrouped: %+v", out)
	}
	if out := packCommunities(nil, 0); out != nil {
		t.Fatalf("no patterns packed into %+v", out)
	}
}

// TestForwardingIdenticalToPerCommunityCover: one population routed
// through a line A–B–C twice — B and C advertising the broker-wide
// cover, and B and C advertising the per-community cover this package
// used to build — forwards every document over the same links at every
// hop, with the new adverts the smaller.
func TestForwardingIdenticalToPerCommunityCover(t *testing.T) {
	nitf, xcbl := dtd.NITFLike(), dtd.XCBLLike()
	docs := append(genDocs(nitf, 40, 21), genDocs(xcbl, 40, 22)...)
	for _, threshold := range []float64{0.5, 2} {
		t.Run(fmt.Sprintf("threshold=%v", threshold), func(t *testing.T) {
			build := func(old bool) (*Node, *Node, int) {
				nodes := make([]*Node, 3)
				for i := range nodes {
					nodes[i] = coverNode(t, string(rune('a'+i)), threshold, Config{AdvertPolicy: broker.Never{}})
				}
				connect(t, nodes[0], nodes[1])
				connect(t, nodes[1], nodes[2])
				for i, d := range []*dtd.DTD{xcbl, nitf} {
					n := nodes[i+1]
					for _, dc := range genDocs(d, 30, 23) {
						if _, err := n.Engine().Publish(dc); err != nil {
							t.Fatal(err)
						}
					}
					n.Engine().Flush()
					for _, p := range genPatterns(d, 120, 24) {
						// As the benchmark's fed-line3 does, leave out the odd
						// pattern (rooted at "*") that wants the other schema's
						// documents too: with one of those nothing is pruned.
						if matchesAnyDoc(p, docs[i*40:][:40]) {
							continue
						}
						if _, err := n.Engine().SubscribePattern(p, p.String()); err != nil {
							t.Fatal(err)
						}
					}
				}
				patterns := 0
				for _, n := range nodes[1:] {
					if !old {
						if err := n.Advertise(); err != nil {
							t.Fatal(err)
						}
					} else {
						n.mu.Lock()
						n.localVer++
						n.local = perCommunityAdvert(n, n.localVer)
						adv, targets := n.local, n.linksLocked("")
						n.mu.Unlock()
						n.sendAdverts(targets, []wire.Advert{adv})
					}
					patterns += len(advertised(t, n.Info().LocalAdvert))
				}
				return nodes[0], nodes[1], patterns
			}
			oldA, oldB, oldPatterns := build(true)
			newA, newB, newPatterns := build(false)
			if newPatterns >= oldPatterns {
				t.Fatalf("broker-wide cover advertises %d patterns, per-community %d", newPatterns, oldPatterns)
			}
			forwards := 0
			for i, dc := range docs {
				var hops [2][]string
				for v, pair := range [2][2]*Node{{oldA, oldB}, {newA, newB}} {
					_, _, trace, err := pair[0].PublishTraced(dc)
					if err != nil {
						t.Fatal(err)
					}
					for _, n := range pair {
						for _, s := range n.TraceSpans(trace) {
							hops[v] = append(hops[v], fmt.Sprint(s.Node, "→", s.ForwardedTo))
							forwards += v * len(s.ForwardedTo)
						}
					}
				}
				if fmt.Sprint(hops[0]) != fmt.Sprint(hops[1]) {
					t.Fatalf("doc %d: per-community cover forwards %v, broker-wide cover %v", i, hops[0], hops[1])
				}
			}
			if forwards == 0 || forwards == 2*len(docs) {
				t.Fatalf("%d forwards over %d documents: the comparison prunes nothing or everything", forwards, len(docs))
			}
		})
	}
}
