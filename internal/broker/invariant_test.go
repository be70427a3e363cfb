package broker

import (
	"slices"
	"testing"

	"treesim/internal/core"
	"treesim/internal/pattern"
	"treesim/internal/xmltree"
)

// checkForests asserts the routing table's invariants over its one
// record per community, which is the clustering: the forest holds
// exactly one pattern per community (Live() == len(e.groups)), no two
// communities share a handle, every record is nonempty, lists its
// at-most-once and at-least-once members each in ascending id order on
// the mode's own list, and names a member as representative; every
// member points back at its record, every at-most-once member's cursor
// stands on the record's log, and the records hold every live
// subscription exactly once. A community's handle IS its
// representative's pattern: its verdict on each probe equals the
// oracle's, which FuzzEngineVsMatches pins to a fresh Add's. Besides the
// caller's probes, every representative is probed with a document built
// to match it — its witness must fire the community's own handle — so a
// dead, stale or swapped handle cannot hide behind probes nobody
// matches. Safe beside concurrent traffic (it holds the registry read
// lock, under which neither the forest nor the table changes), so it
// reports with Errorf only.
func checkForests(t testing.TB, e *Engine, probes ...*xmltree.Tree) {
	t.Helper()
	e.mu.RLock()
	defer e.mu.RUnlock()
	if live := e.forest.Live(); live != len(e.groups) {
		t.Errorf("forest holds %d patterns for %d communities", live, len(e.groups))
	}
	owner := map[int]int{}
	members := 0
	for g, rg := range e.groups {
		if og, dup := owner[rg.fh]; dup {
			t.Errorf("communities %d and %d share handle %d", og, g, rg.fh)
		}
		owner[rg.fh] = g
		if len(rg.amo)+len(rg.alo) == 0 {
			t.Errorf("community %d is empty", g)
			continue
		}
		if rg.rep == nil || rg.rep.group != rg || !slices.Contains(rg.members(), rg.rep) {
			t.Errorf("community %d: its representative is not one of its members", g)
		}
		for amo, list := range map[bool][]*subscriber{true: rg.amo, false: rg.alo} {
			members += len(list)
			for i, s := range list {
				switch {
				case i > 0 && list[i-1].id >= s.id:
					t.Errorf("community %d: member list %v not in strictly ascending id order", g, ids(list))
				case e.byID[s.id] != s:
					t.Errorf("community %d: member %d is not live", g, s.id)
				case s.group != rg:
					t.Errorf("community %d: member %d points at another record", g, s.id)
				case amo != (s.mode == AtMostOnce):
					t.Errorf("community %d: member %d (%s) is on the other mode's list", g, s.id, s.mode)
				case s.cur.log != rg.log:
					t.Errorf("community %d: member %d's cursor is not on the community's log", g, s.id)
				}
			}
		}
		if w := witness(rg.rep.pat); w != nil {
			ms := e.forest.Match(w)
			if !ms.Has(rg.fh) {
				t.Errorf("community %d (rep %s): its witness %s does not fire its handle %d", g, rg.rep.pat, w, rg.fh)
			}
			ms.Release()
			probes = append(probes, w)
		}
	}
	for _, probe := range probes {
		ms := e.forest.Match(probe)
		for g, rg := range e.groups {
			if got, want := ms.Has(rg.fh), pattern.Matches(probe, rg.rep.pat); got != want {
				t.Errorf("community %d (rep %s) on %s: handle %d says %v, the pattern %v",
					g, rg.rep.pat, probe, rg.fh, got, want)
			}
		}
		ms.Release()
	}
	if members != len(e.byID) {
		t.Errorf("the records hold %d members for %d live subscriptions", members, len(e.byID))
	}
}

// ids lists the subscriptions' ids.
func ids(subs []*subscriber) []uint64 {
	out := make([]uint64, len(subs))
	for i, s := range subs {
		out[i] = s.id
	}
	return out
}

// witness builds a document that matches p, for the patterns it knows
// how to (a single root child): every "*" becomes an element w, every
// "//" is satisfied at the context itself. nil otherwise.
func witness(p *pattern.Pattern) *xmltree.Tree {
	if p == nil || p.Root == nil || len(p.Root.Children) != 1 || p.Validate() != nil {
		return nil
	}
	// Under a holder node, the single root child materializes as the
	// holder's only child — or, for a root "//", as its child's witness.
	holder := &xmltree.Node{}
	witnessInto(holder, p.Root.Children[0])
	return &xmltree.Tree{Root: holder.Children[0]}
}

func witnessInto(ctx *xmltree.Node, v *pattern.Node) {
	if v.Label == pattern.Descendant {
		witnessInto(ctx, v.Children[0])
		return
	}
	n := &xmltree.Node{Label: v.Label}
	if v.Label == pattern.Wildcard {
		n.Label = "w"
	}
	for _, c := range v.Children {
		witnessInto(n, c)
	}
	ctx.Children = append(ctx.Children, n)
}

// TestRepresentativeUnsubscribeHandsOver unsubscribes representatives
// specifically: the community's forest handle must pass to the
// successor's pattern (routing follows the new representative at once),
// disappear with a community that dissolves, and be reused by the next
// founder — with the invariant holding after every step.
func TestRepresentativeUnsubscribeHandsOver(t *testing.T) {
	e := newTestEngine(t, Config{
		Estimator: core.Config{Representation: core.Sets, Seed: 1},
	})
	both, onlyB := doc(t, "a(b(x),c)"), doc(t, "a(b)")
	for i := 0; i < 8; i++ {
		if _, err := e.Publish(both); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	sub := func(expr string) uint64 {
		t.Helper()
		id, err := e.Subscribe(expr)
		if err != nil {
			t.Fatal(err)
		}
		checkForests(t, e, both, onlyB)
		return id
	}
	unsub := func(id uint64) {
		t.Helper()
		if !e.Unsubscribe(id) {
			t.Fatalf("Unsubscribe(%d) = false", id)
		}
		checkForests(t, e, both, onlyB)
	}
	repOf := func(id uint64) uint64 {
		t.Helper()
		for _, c := range e.IntrospectCommunities() {
			for _, m := range c.MemberIDs {
				if m == id {
					return c.RepID
				}
			}
		}
		t.Fatalf("subscription %d in no community", id)
		return 0
	}

	// One community of three (equal on the stream so far), one singleton.
	rep := sub("/a/b")
	heir := sub("/a/b[x]")
	third := sub("/a[c]/b")
	lone := sub("//zzz")
	if st := e.Stats(); st.Communities != 2 {
		t.Fatalf("communities = %d, want 2 (%v)", st.Communities, e.CommunityIDs())
	}
	if got := repOf(heir); got != rep {
		t.Fatalf("representative of %d is %d, want the founder %d", heir, got, rep)
	}
	// While /a/b represents, a(b) reaches all three members.
	if res, _ := e.Publish(onlyB); res.Matched != 1 || res.Deliveries != 3 {
		t.Fatalf("under /a/b: a(b) matched %d communities, %d deliveries; want 1, 3", res.Matched, res.Deliveries)
	}

	// The representative leaves: the smallest survivor, /a/b[x], takes
	// the handle, and a(b) — which it does not match — stops routing.
	unsub(rep)
	if got := repOf(third); got != heir {
		t.Fatalf("representative after hand-over is %d, want %d", got, heir)
	}
	if res, _ := e.Publish(onlyB); res.Matched != 0 || res.Deliveries != 0 {
		t.Fatalf("under /a/b[x]: a(b) matched %d communities, %d deliveries; want none", res.Matched, res.Deliveries)
	}
	if res, _ := e.Publish(both); res.Matched != 1 || res.Deliveries != 2 {
		t.Fatalf("under /a/b[x]: a(b(x),c) matched %d communities, %d deliveries; want 1, 2", res.Matched, res.Deliveries)
	}
	ex, err := e.Explain(xmltree.Pack(onlyB))
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Shards) != 1 || ex.Shards[0].LivePatterns != ex.Shards[0].Communities || ex.Shards[0].LivePatterns != 2 {
		t.Fatalf("explain shard stats %+v: live patterns must equal the 2 communities", ex.Shards)
	}

	// A member (not the representative) leaves: no forest edit.
	nodes := e.forest.NodeCount()
	unsub(third)
	if got := e.forest.NodeCount(); got != nodes {
		t.Fatalf("a member's unsubscribe changed the forest: %d -> %d nodes", nodes, got)
	}

	// Communities dissolve with their last member, handle and all; the
	// next founder's Add gets a freed handle back.
	e.mu.RLock()
	freed := e.byID[lone].group.fh
	e.mu.RUnlock()
	unsub(lone)
	unsub(heir)
	if st := e.Stats(); st.Communities != 0 || e.forest.Live() != 0 || e.forest.NodeCount() != 0 {
		t.Fatalf("after dissolving everything: %d communities, forest live=%d nodes=%d",
			st.Communities, e.forest.Live(), e.forest.NodeCount())
	}
	again := sub("//c")
	e.mu.RLock()
	reused := e.groups[0].fh
	e.mu.RUnlock()
	if reused > freed {
		t.Fatalf("founder after a full dissolve got handle %d; freed handles (<= %d) were not reused", reused, freed)
	}
	if res, _ := e.Publish(both); res.Matched != 1 || res.Deliveries != 1 {
		t.Fatalf("on the reused handle: matched %d communities, %d deliveries; want 1, 1", res.Matched, res.Deliveries)
	}
	if ds, err := e.Drain(again, 0, 0); err != nil || len(ds) != 1 {
		t.Fatalf("drain on the reused handle: %v, %v", ds, err)
	}
}
