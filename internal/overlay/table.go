package overlay

import (
	"fmt"
	"time"

	"treesim/internal/overlay/wire"
	"treesim/internal/pattern"
)

// originEntry is one routing-table row: the latest aggregate advertised
// by an origin, with the link it arrived on as the next hop toward that
// origin. An entry with no communities is a tombstone — the origin has
// no subscriptions and never attracts forwards, but the version is kept
// so older adverts cannot resurrect routes. The aggregate's patterns
// live in the node's remote forest under the handles hs, so moving the
// next hop edits no forest.
type originEntry struct {
	version    uint64
	hops       int
	via        string           // next-hop peer id (the arrival link)
	advertised []wire.Community // as advertised, for re-gossip on AddPeer
	hs         []int            // remote-forest handles of its patterns; written under fmu and mu
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
	// are gone from the remote forest but the version is kept, so an
	// origin merely paused revives at version+1 and no older advert
	// does. The tombstone is deleted a full TTL later, once in-flight
	// adverts at or below its version have drained.
	expired bool
}

// parseAdvert parses an advert's patterns. Patterns arrive
// codec-validated; a parse failure here (direct HandleAdvert callers)
// rejects the advert.
func parseAdvert(a wire.Advert) ([]*pattern.Pattern, error) {
	var pats []*pattern.Pattern
	for i, c := range a.Communities {
		for j, s := range c.Patterns {
			p, err := pattern.Parse(s)
			if err != nil {
				return nil, fmt.Errorf("overlay: advert %q community %d pattern %d: %w", a.Origin, i, j, err)
			}
			pats = append(pats, p)
		}
	}
	return pats, nil
}

// indexLocked makes pats origin's patterns in the remote forest, in
// place of those e holds (nil: none), as one batch install. Caller
// holds fmu and mu.
func (n *Node) indexLocked(origin string, e *originEntry, pats []*pattern.Pattern) {
	for _, h := range e.hs {
		n.owner[h] = ""
	}
	e.hs = n.remote.Replace(e.hs, pats)
	for _, h := range e.hs {
		for h >= len(n.owner) {
			n.owner = append(n.owner, "")
		}
		n.owner[h] = origin
	}
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
