package overlay

import (
	"slices"

	"treesim/internal/overlay/wire"
	"treesim/internal/pattern"
)

// buildAdvertLocked aggregates the engine's live subscriptions into the
// node's local advert under the given version. What is advertised is
// the antichain of the live patterns under containment: a pattern
// contained in another live pattern is not sent. The kept patterns are
// subscriptions and the union of their match sets is the population's,
// so a peer's forwarding decision is the one it would make on the full
// set. They travel in cover order, in wire communities of at most
// wire.MaxPatterns each (packCommunities), so that what a node builds
// its own encoder accepts (MaxCommunities×MaxPatterns incomparable
// patterns is the format's ceiling); the first community's Members is
// the live count.
// The build reads the registry only, never the clustering or the
// estimator, so no SEL evaluation runs under the node lock, which
// forward also takes. The cover is kept between builds (see
// advertCover), so a build costs the churn since the last one. Caller
// holds the node lock; the engine takes its own locks under it, and
// none of them is ever held while the node lock is taken.
func (n *Node) buildAdvertLocked(version uint64) wire.Advert {
	live := n.eng.LivePatterns()
	n.cover.update(live)
	exprs := make([]string, len(n.cover.kept))
	for i, k := range n.cover.kept {
		exprs[i] = k.expr
	}
	return wire.Advert{Origin: n.cfg.ID, Version: version, Communities: packCommunities(exprs, len(live))}
}

// packCommunities chunks exprs, in order, into wire communities of at
// most wire.MaxPatterns patterns each, members counted once, on the
// first; no patterns, no communities.
func packCommunities(exprs []string, members int) []wire.Community {
	var out []wire.Community
	for len(exprs) > 0 {
		k := min(len(exprs), wire.MaxPatterns)
		out = append(out, wire.Community{Patterns: exprs[:k:k]})
		exprs = exprs[k:]
	}
	if len(out) > 0 {
		out[0].Members = members
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

	// build is the last build that saw it: an entry behind the cover's
	// build has departed, and lingers only while a by chain leads to it.
	build uint64
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

func (c *advertCover) update(live []*pattern.Pattern) {
	if c.entries == nil {
		c.entries = make(map[*pattern.Pattern]*coverEntry)
	}
	c.build++
	c.live, c.prev = c.prev[:0], c.live
	for _, p := range live {
		e := c.entries[p]
		if e == nil {
			e = &coverEntry{src: p, prep: pattern.Prepare(p)}
			c.entries[p] = e
		}
		if e.build != c.build {
			e.build = c.build
			c.live = append(c.live, e)
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
