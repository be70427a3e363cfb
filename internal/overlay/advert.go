package overlay

import (
	"slices"

	"treesim/internal/broker"
	"treesim/internal/overlay/wire"
	"treesim/internal/pattern"
)

// buildAdvertLocked aggregates the engine's live subscriptions into the
// node's local advert under the given version. What is advertised is
// the antichain of the whole population under pattern containment: a
// pattern contained in any other advertised pattern — whatever
// community either sits in — is not sent.
// The kept patterns are subscriptions and the union of their match sets
// is the population's, so a peer's forwarding decision is the one it
// would make on the full set. A wire community is emitted per engine
// community owning a kept pattern; Members counts the subscriptions
// whose covering kept pattern that community owns (they sum to the live
// population) and Selectivity is P(representative) on the engine's
// similarity view (Engine.ViewSelectivity): the evaluation its
// clustering already made, so no SEL evaluation on the live estimator
// and no view refresh runs under the node lock, which forward also
// takes. The cover is kept between builds (see advertCover), so a build
// costs the churn since the last one. Caller holds the node lock; the
// engine takes its own locks under it, and none of them is ever held
// while the node lock is taken.
func (n *Node) buildAdvertLocked(version uint64) wire.Advert {
	views := n.eng.CommunityViews()
	n.cover.update(views)
	adv := wire.Advert{Origin: n.cfg.ID, Version: version}
	slot := make(map[int]int, len(n.cover.kept)) // engine community → wire community
	for _, k := range n.cover.kept {
		i, ok := slot[k.comm]
		if !ok {
			i = len(adv.Communities)
			slot[k.comm] = i
			adv.Communities = append(adv.Communities, wire.Community{
				Selectivity: n.eng.ViewSelectivity(views[k.comm].Rep),
			})
		}
		adv.Communities[i].Patterns = append(adv.Communities[i].Patterns, k.expr)
	}
	for _, e := range n.cover.live {
		adv.Communities[slot[e.root().comm]].Members += e.subs
	}
	adv.Communities = packCommunities(adv.Communities)
	return adv
}

// packCommunities regroups an advert that exceeds the wire caps (more
// than MaxCommunities communities, or MaxPatterns patterns in one) into
// full communities in order, so that what a node builds its own encoder
// accepts — a rejected advert would read as a send failure and take
// every healthy link down. Grouping is diagnostic: receivers match the
// union. A folded community sums the members and reports the largest
// selectivity of its parts. (MaxCommunities×MaxPatterns incomparable
// patterns is the format's ceiling.)
func packCommunities(cs []wire.Community) []wire.Community {
	fits := len(cs) <= wire.MaxCommunities
	for _, c := range cs {
		fits = fits && len(c.Patterns) <= wire.MaxPatterns
	}
	if fits {
		return cs
	}
	var out []wire.Community
	for _, c := range cs {
		for first := true; len(c.Patterns) > 0; first = false {
			if len(out) == 0 || len(out[len(out)-1].Patterns) == wire.MaxPatterns {
				out = append(out, wire.Community{})
			}
			w := &out[len(out)-1]
			take := min(wire.MaxPatterns-len(w.Patterns), len(c.Patterns))
			w.Patterns = append(w.Patterns, c.Patterns[:take]...)
			c.Patterns = c.Patterns[take:]
			w.Selectivity = max(w.Selectivity, c.Selectivity)
			if first {
				w.Members += c.Members
			}
		}
	}
	return out
}

// advertCover is the containment cover of the live subscription set,
// kept between advert builds: one entry per registry pattern (keyed by
// the registry's *pattern.Pattern), each either kept — advertised; no
// kept pattern contains another — or covered by the entry its by chain
// leads to. update is a diff: a pattern first seen is tested against
// the kept set only (and evicts the kept patterns it contains, which it
// then covers), a departed covered pattern costs nothing, and when a
// kept pattern departs only what it stood for is placed again —
// O(changes × kept) containment tests, none for an unchanged
// population. The first build after start or recovery is the one
// from-scratch cover; the cluster package's Cover is the reference the
// tests hold every state of this one against.
type advertCover struct {
	entries    map[*pattern.Pattern]*coverEntry
	live, prev []*coverEntry // this build's entries in registry order; last build's
	kept       []*coverEntry
	build      uint64
}

type coverEntry struct {
	src  *pattern.Pattern  // the registry's pattern, the key in entries
	prep *pattern.Prepared // the pattern ready for containment
	expr string            // and its canonical expression, once kept
	kept bool
	by   *coverEntry // covering entry (nil: kept, or not placed yet)

	// build is the last build that saw it — an entry behind the cover's
	// build has departed, and lingers only while a by chain leads to it —
	// with the subscriptions holding it and the engine community of one.
	build uint64
	subs  int
	comm  int
}

// root follows the by chain to the entry that stands for e, shortening
// the chain behind it.
func (e *coverEntry) root() *coverEntry {
	r := e
	for r.by != nil {
		r = r.by
	}
	if r != e {
		e.by = r
	}
	return r
}

func (c *advertCover) update(views []broker.CommunityView) {
	if c.entries == nil {
		c.entries = make(map[*pattern.Pattern]*coverEntry)
	}
	c.build++
	c.live, c.prev = c.prev[:0], c.live
	for g, v := range views {
		for _, p := range v.Members {
			e := c.entries[p]
			if e == nil {
				e = &coverEntry{src: p, prep: pattern.Prepare(p)}
				c.entries[p] = e
			}
			if e.build != c.build {
				e.build, e.subs = c.build, 0
				c.live = append(c.live, e)
			}
			e.subs++
			e.comm = g
		}
	}
	departed := func(e *coverEntry) bool { return e.build != c.build }
	for _, e := range c.prev {
		if departed(e) {
			delete(c.entries, e.src)
		}
	}
	clear(c.prev) // departed entries are garbage once no chain reaches them
	c.kept = slices.DeleteFunc(c.kept, departed)
	for _, e := range c.live {
		if !e.kept && (e.by == nil || departed(e.root())) {
			e.by = nil
			c.place(e)
		}
	}
}

// place files a new or orphaned entry: under the first kept pattern
// that contains it, else as kept, taking over the kept patterns it
// contains (what they covered stays covered: containment is transitive).
func (c *advertCover) place(e *coverEntry) {
	for _, k := range c.kept {
		if k.prep.Contains(e.prep) {
			e.by = k
			return
		}
	}
	c.kept = slices.DeleteFunc(c.kept, func(k *coverEntry) bool {
		if e.prep.Contains(k.prep) {
			k.kept, k.by = false, e
			return true
		}
		return false
	})
	e.kept = true
	c.kept = append(c.kept, e)
	if e.expr == "" {
		// Canonicalize sorts child lists in place and the pattern may be
		// the live registry's, which concurrent publishes are matching
		// against — canonicalize a clone.
		e.expr = e.src.Clone().Canonicalize().String()
	}
}
