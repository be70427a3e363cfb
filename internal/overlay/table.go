package overlay

import (
	"fmt"
	"sync"
	"time"

	"treesim/internal/matching"
	"treesim/internal/overlay/wire"
	"treesim/internal/pattern"
	"treesim/internal/xmltree"
)

// originEntry is one routing-table row: the latest aggregate advertised
// by an origin, with the link it arrived on as the next hop toward that
// origin. An entry with no communities is a tombstone — the origin has
// no subscriptions and never attracts forwards, but the version is kept
// so older adverts cannot resurrect routes. The matching itself lives
// in the per-link forests (linkForest); the entry keeps the parsed
// patterns only to (re)link them when the next hop changes.
type originEntry struct {
	version    uint64
	hops       int
	via        string // next-hop peer id (the arrival link)
	pats       []*pattern.Pattern
	advertised []wire.Community // as advertised, for re-gossip on AddPeer
	// lastSeen is when this origin was last heard from (a newer-version
	// advert accepted); the soft-state sweeper expires entries silent
	// past Config.AdvertTTL.
	lastSeen time.Time
	// viaSeen is when an advert for this origin last arrived on the via
	// link itself — any version, stale copies included, because a late
	// duplicate still proves the path carries this origin's floods. A
	// fresher advert on a different link normally refreshes the entry
	// without moving the route (next-hop stickiness); only when the via
	// has gone quiet for this origin does freshness elsewhere win the
	// route, so a partition behind a healthy link cannot black-hole
	// forwards forever.
	viaSeen time.Time
	// expired marks an entry the sweeper has tombstoned: its patterns
	// are gone from the link forests but the version is retained, so the
	// table and the forests agree that only a strictly newer advert
	// revives the origin. A silent origin merely paused (no version
	// advance) resumes at version+1, which both layers accept. The
	// tombstone itself is deleted a full TTL later, once in-flight
	// adverts at or below its version have drained.
	expired bool
}

// newOriginEntry parses an advert into a table entry. Patterns arrive
// codec-validated; a parse failure here (direct HandleAdvert callers)
// rejects the advert.
func newOriginEntry(a wire.Advert, via string, now time.Time) (*originEntry, error) {
	e := &originEntry{version: a.Version, hops: a.Hops, via: via, advertised: a.Communities, lastSeen: now, viaSeen: now}
	for i, c := range a.Communities {
		for j, s := range c.Patterns {
			p, err := pattern.Parse(s)
			if err != nil {
				return nil, fmt.Errorf("overlay: advert %q community %d pattern %d: %w", a.Origin, i, j, err)
			}
			e.pats = append(e.pats, p)
		}
	}
	return e, nil
}

// advert reconstructs the wire advert for full-state sync to a new
// peer.
func (e *originEntry) advert(origin string) wire.Advert {
	hops := e.hops + 1
	if hops > wire.MaxTTL {
		hops = wire.MaxTTL
	}
	return wire.Advert{Origin: origin, Version: e.version, Hops: hops, Communities: e.advertised}
}

// summary condenses the entry for Info.
func (e *originEntry) summary(origin string) wire.OriginInfo {
	s := wire.OriginInfo{Origin: origin, Version: e.version, Hops: e.hops, Via: e.via, MinSel: 1}
	for _, c := range e.advertised {
		s.Patterns += len(c.Patterns)
		s.Members += c.Members
		if c.Selectivity < s.MinSel {
			s.MinSel = c.Selectivity
		}
	}
	if len(e.advertised) == 0 {
		s.MinSel = 0
	}
	return s
}

// linkForest is the per-link matching engine instance: one shared
// single-pass forest over every aggregate pattern advertised by every
// origin routed via that link. The forwarding decision for a link is
// one Forest.Match instead of a pattern.Matches loop over its origins'
// aggregates.
//
// Its own lock (not the node mutex) guards it: aggregate matching runs
// on publication paths concurrently with table updates, and the node
// lock is never held across document matching OR forest mutation —
// advert handling snapshots its updates under node.mu and applies them
// here after releasing it. Because application happens outside the
// node lock, two racing advert batches may apply out of order; every
// update carries the origin's advert version and stale ones are
// dropped (a removal leaves a versioned tombstone so an older set
// cannot resurrect patterns on the origin's previous link).
type linkForest struct {
	mu       sync.RWMutex
	forest   *matching.Forest
	byOrigin map[string]*originHandles
}

// originHandles is one origin's registration in a link forest. A nil
// or empty hs is a tombstone: the version is kept so older updates are
// recognized as stale, but the origin attracts no forwards.
type originHandles struct {
	version uint64
	hs      []int
}

func newLinkForest() *linkForest {
	return &linkForest{forest: matching.NewForest(), byOrigin: make(map[string]*originHandles)}
}

// set replaces origin's registered patterns with pats (nil/empty for a
// tombstone) if version is newer than what this link has seen.
func (lf *linkForest) set(origin string, version uint64, pats []*pattern.Pattern) {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	cur := lf.byOrigin[origin]
	if cur != nil && version <= cur.version {
		return // an update that lost the race to a newer one
	}
	if cur != nil {
		for _, h := range cur.hs {
			lf.forest.Remove(h)
		}
	}
	var hs []int
	if len(pats) > 0 {
		hs = make([]int, len(pats))
		for i, p := range pats {
			hs[i] = lf.forest.Add(p)
		}
	}
	lf.byOrigin[origin] = &originHandles{version: version, hs: hs}
}

// expire removes origin's patterns from this forest, leaving a
// tombstone at the given version — the version the routing table held
// when the origin went silent. Unlike set, an EQUAL version is
// tombstoned too (set would reject it as not-newer): expiry evicts the
// exact version it saw, so an origin resuming at version+1 clears both
// the table's and the forest's staleness gates together. A strictly
// newer registration (a racing advert that already revived the origin)
// is left alone.
func (lf *linkForest) expire(origin string, version uint64) {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	cur := lf.byOrigin[origin]
	if cur != nil && version < cur.version {
		return // a newer advert revived the origin; keep it
	}
	if cur != nil {
		for _, h := range cur.hs {
			lf.forest.Remove(h)
		}
	}
	lf.byOrigin[origin] = &originHandles{version: version}
}

// forget drops origin's tombstone bookkeeping entirely — the second
// phase of expiry, a full TTL after the tombstone, when any in-flight
// advert at or below its version has drained. A strictly newer
// registration is left alone.
func (lf *linkForest) forget(origin string, version uint64) {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	cur := lf.byOrigin[origin]
	if cur == nil || version < cur.version {
		return
	}
	for _, h := range cur.hs {
		lf.forest.Remove(h)
	}
	delete(lf.byOrigin, origin)
}

// hasOther reports whether any origin besides exclude has live
// patterns here — the cheap plan-time test for whether the link is
// worth matching.
func (lf *linkForest) hasOther(exclude string) bool {
	lf.mu.RLock()
	defer lf.mu.RUnlock()
	for o, oh := range lf.byOrigin {
		if o != exclude && len(oh.hs) > 0 {
			return true
		}
	}
	return false
}

// matchAnyExcept reports whether the document matches any aggregate of
// any origin routed via this link, ignoring the publication's own
// origin (it has the document already).
func (lf *linkForest) matchAnyExcept(t *xmltree.Tree, exclude string) bool {
	lf.mu.RLock()
	defer lf.mu.RUnlock()
	ms := lf.forest.Match(t)
	defer ms.Release()
	if ms.Count() == 0 {
		return false // the common case: no handle to probe for
	}
	for o, oh := range lf.byOrigin {
		if o == exclude {
			continue
		}
		for _, h := range oh.hs {
			if ms.Has(h) {
				return true
			}
		}
	}
	return false
}
