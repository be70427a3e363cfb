package broker

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"treesim/internal/matching"
	"treesim/internal/matchset"
	"treesim/internal/pattern"
	"treesim/internal/persist"
	"treesim/internal/xmltree"
)

// This file is the matching plane and the clustering it routes on: one
// forest, one routing table, one lock. The table holds one record per
// community (routeGroup), and the records are the clustering: a
// community's index is its position in the table (reported in
// deliveries, journaled, snapshotted). The forest holds exactly one
// pattern per community — its representative's — so a publish evaluates
// what routes and nothing else, and one walk of the document decides
// every community.
//
// A subscribe or unsubscribe edits only its own record: a joiner enters
// its member list; a founder appends a record with a new forest handle
// and delivery log (commlog.go); a leaving member leaves its list, and a
// leaving representative hands the handle to the smallest surviving id
// or, as the last member, dissolves the record, which shifts every later
// community's index down by one. A re-bucket, Restore and Apply's
// OpRebuild install a whole partition at once (installLocked), keeping
// the record — handle and log — of every representative that stands
// again.
//
// Locking: e.groups and the records are written only with the registry
// lock (Engine.mu) and routeMu both held exclusively, so a reader may
// hold either. A publish and Explain hold routeMu shared across their
// match and walk, on the calling goroutine — concurrent publishers share
// it, and Forest.Match is re-entrant — and never take the registry lock.
// The registry lock is always acquired first when both are held.

// routeGroup is one community: the forest handle of its representative's
// pattern, its at-most-once delivery log, its representative, its
// at-most-once (amo) and at-least-once (alo) members, each list in id
// order, and the key it is indexed under in Engine.bySample, if
// bySample[key] is this record. Every member's group points back at it.
type routeGroup struct {
	fh       int
	log      *commLog
	rep      *subscriber
	amo, alo []*subscriber
	key      uint64
}

// idOrder orders subscriptions by id, the order a record lists its members
// in and a re-bucket takes the registry in.
func idOrder(a, b *subscriber) int { return cmp.Compare(a.id, b.id) }

// list is the member list s belongs on.
func (g *routeGroup) list(s *subscriber) *[]*subscriber {
	if s.q != nil {
		return &g.alo
	}
	return &g.amo
}

// add enters s into g in id order and puts an at-most-once cursor on g's
// log, returning how many pending deliveries the move lost (only a
// re-clustered subscription carries any).
func (g *routeGroup) add(s *subscriber) int {
	l := g.list(s)
	i, _ := slices.BinarySearchFunc(*l, s, idOrder)
	*l = slices.Insert(*l, i, s)
	s.group = g
	if s.cur != nil && s.cur.log != g.log {
		return s.cur.move(g.log)
	}
	return 0
}

// remove takes s off its member list.
func (g *routeGroup) remove(s *subscriber) {
	l := g.list(s)
	i, _ := slices.BinarySearchFunc(*l, s, idOrder)
	*l = slices.Delete(*l, i, i+1)
}

// members is every member in id order (a copy).
func (g *routeGroup) members() []*subscriber {
	out := slices.Concat(g.amo, g.alo)
	slices.SortFunc(out, idOrder)
	return out
}

// routeScratch is the pooled per-publish scratch: the flattened
// document and the at-least-once enqueues the fan-out committed —
// receiving subscription, cursor assigned and community matched, in the
// parallel arrays the publish journals (OpDeliver) so the deliveries
// survive a crash.
type routeScratch struct {
	flat          xmltree.Flat
	subs, cursors []uint64
	comms         []int
}

func (e *Engine) getScratch() *routeScratch {
	if sc, _ := e.scratchPool.Get().(*routeScratch); sc != nil {
		return sc
	}
	return &routeScratch{}
}

// matchDoc flattens t into sc and walks it once through the forest: the
// step a publish and Explain share. Caller holds routeMu shared and
// releases the set.
func (e *Engine) matchDoc(t *xmltree.Tree, sc *routeScratch) *matching.MatchSet {
	sc.flat.Load(t, e.forest.Table())
	return e.forest.MatchFlat(t, &sc.flat)
}

// memberMatchers pools the evaluators behind member verdicts (a
// subscription's own pattern, which no forest holds): the precision
// sample and Explain. They read the publish's own flattened document,
// and one is taken only when a verdict is wanted.
var memberMatchers = sync.Pool{New: func() any { return new(pattern.FlatMatcher) }}

// memberMatches is fm.Matches with an oracle panic (a hand-built
// pattern that fails pattern.Validate) mapped to no-match, as the
// forest maps it for representatives.
func memberMatches(fm *pattern.FlatMatcher, p *pattern.Pattern) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return fm.Matches(p)
}

// routeDoc matches one document against the forest — once, on the
// calling goroutine — and delivers it to every community whose
// representative matched, tallying into res: one append to the
// community's log for all its at-most-once members, and for each
// at-least-once member a cursor-log push — the document is pinned in
// retention until acked, the assigned cursors are journaled as one
// OpDeliver record before the publish returns, and a full log sheds its
// oldest entry, counted, and its pin released. Every sample-th delivery
// is checked exactly, against the receiving member's own pattern. doc is
// t packed, as retention just stored it (nil when retention is off).
// Caller holds routeMu shared.
func (e *Engine) routeDoc(t *xmltree.Tree, doc []byte, res *PublishResult) {
	if len(e.groups) == 0 {
		return
	}
	matchStart := time.Now()
	sc := e.getScratch()
	ms := e.matchDoc(t, sc)
	c, seq := &e.counters, res.Seq
	c.filterEvals.Add(uint64(len(e.groups)))
	sc.subs, sc.cursors, sc.comms = sc.subs[:0], sc.cursors[:0], sc.comms[:0]
	var fm *pattern.FlatMatcher
	// delivered counts a delivery to each of to, and checks the ones the
	// counter numbers with a multiple of the sample interval.
	delivered := func(to []*subscriber) {
		n := len(to)
		res.Deliveries += n
		last := c.delivered.Add(uint64(n))
		if sample := uint64(e.cfg.PrecisionSample); e.cfg.PrecisionSample > 0 {
			for i := n - 1 - int(last%sample); i >= 0; i -= int(sample) {
				if fm == nil {
					fm = memberMatchers.Get().(*pattern.FlatMatcher)
					fm.LoadFlat(&sc.flat)
				}
				c.sampled.Add(1)
				if memberMatches(fm, to[i].pat) {
					c.sampledHits.Add(1)
				}
			}
		}
	}
	// Evictions charge the publish that forced them; the lost delivery
	// belongs to an older document.
	dropped := func(n int) {
		if n > 0 {
			res.Dropped += n
			c.dropped.Add(uint64(n))
		}
	}
	for comm, g := range e.groups {
		if !ms.Has(g.fh) {
			continue
		}
		res.Matched++
		if len(g.amo) > 0 {
			dropped(g.log.append(seq, comm))
			delivered(g.amo)
		}
		for i, m := range g.alo {
			cursor, shedDoc, shed, enqueued := m.q.pushAcked(seq, comm)
			if shed {
				c.ackShed.Add(1)
				e.docs.unpin(shedDoc)
			}
			if shed || !enqueued {
				dropped(1)
			}
			if enqueued {
				e.docs.pin(seq, doc)
				sc.subs, sc.cursors, sc.comms = append(sc.subs, m.id), append(sc.cursors, cursor), append(sc.comms, comm)
				delivered(g.alo[i : i+1])
			}
		}
	}
	if fm != nil {
		memberMatchers.Put(fm)
	}
	ms.Release()
	e.matchNS.ObserveDuration(time.Since(matchStart).Nanoseconds())
	// Journal the at-least-once deliveries, as one OpDeliver record,
	// before the publish returns: once the publisher sees success, the
	// acked-mode fan-out is durable (the record carries the document as
	// retention holds it, so recovery can repin content the ring lost
	// with the process). The queue appends already happened — effects
	// precede appends, the invariant the snapshot watermark proof rests
	// on — so a crash in between loses only publishes whose callers never
	// saw success.
	if len(sc.subs) > 0 {
		e.journal(persist.Record{Op: persist.OpDeliver, Seq: seq, Doc: doc, Subs: sc.subs, Cursors: sc.cursors, Comms: sc.comms})
	}
	e.scratchPool.Put(sc)
}

// installLocked replaces the clustering with a partition — members in
// id order, a representative each, every live subscription exactly once
// — and moves the representatives' patterns to match in one batch
// install of the forest: a representative that still stands for a
// community keeps its record, handle and log; every other old handle is
// removed and every other new representative added, with a new log.
// bySample is rebuilt from samples, community g's sample (nil: an
// unindexed partition, as Restore and replay install). Caller holds the
// registry lock exclusively.
func (e *Engine) installLocked(groups [][]*subscriber, reps []*subscriber, samples []matchset.Value) {
	e.routeMu.Lock()
	defer e.routeMu.Unlock()
	next := make([]*routeGroup, len(groups))
	kept := make(map[*routeGroup]bool, len(reps))
	for g, rep := range reps {
		if old := rep.group; old != nil && old.rep == rep {
			next[g], kept[old] = old, true
		}
	}
	var drop []int
	for _, old := range e.groups {
		if !kept[old] {
			drop = append(drop, old.fh)
		}
	}
	var add []*pattern.Pattern
	for g, rg := range next {
		if rg == nil {
			add = append(add, reps[g].pat)
		}
	}
	hs := e.forest.Replace(drop, add)
	e.founded = 0
	for g, rg := range next {
		if rg == nil {
			rg, hs = &routeGroup{fh: hs[0], log: e.newCommLog()}, hs[1:]
			next[g] = rg
		}
		rg.rep, rg.amo, rg.alo = reps[g], nil, nil
	}
	lost := 0
	for g, members := range groups {
		for _, s := range members {
			lost += next[g].add(s)
		}
	}
	e.counters.dropped.Add(uint64(lost))
	e.groups = next
	e.keyLocked(samples)
}

// keyLocked rebuilds bySample over the installed communities, community
// g under samples[g]'s key; nil samples index none. Caller holds the
// registry lock exclusively.
func (e *Engine) keyLocked(samples []matchset.Value) {
	clear(e.bySample)
	for g, rg := range e.groups {
		if samples != nil {
			e.index(rg, samples[g])
		}
	}
}
