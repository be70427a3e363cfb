package broker

import (
	"sync"
	"time"

	"treesim/internal/cluster"
	"treesim/internal/matching"
	"treesim/internal/pattern"
	"treesim/internal/persist"
	"treesim/internal/xmltree"
)

// This file is the matching plane: one forest, one routing table, one
// lock. The forest holds exactly one pattern per community — its
// representative's — so a publish evaluates what routes and nothing
// else, and one walk of the document decides every community. The
// table holds one record per community (routeGroup), read by publishes
// and Explain alike: its forest handle and at-most-once delivery log
// (commlog.go), set up when it is founded, kept when the representative
// leaves — the handle re-pointed at the successor's pattern — and
// dropped when it dissolves or a rebuild re-seeds it; and its
// representative and member range, recomputed by every edit, which also
// puts each subscription's cursor on its community's log.
//
// Locking: e.groups and e.members are written only inside
// editRoutingLocked, with the registry lock (Engine.mu) and routeMu both
// held exclusively, so a reader may hold either. A publish and Explain
// hold routeMu shared across their match and walk, on the calling
// goroutine — concurrent publishers share it, and Forest.Match is
// re-entrant — and never take the registry lock. The registry lock is
// always acquired first when both are held.

// routeGroup is one community, at its index in the clustering (reported
// in deliveries): the forest handle of its representative's pattern, its
// at-most-once delivery log, its representative, and its member range in
// the member arena — at-most-once members in [start, amo), at-least-once
// in [amo, end).
type routeGroup struct {
	fh              int
	log             *commLog
	rep             *subscriber
	start, amo, end int
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
	// delivered counts n deliveries, to members[at:at+n], and checks the
	// ones the counter numbers with a multiple of the sample interval.
	delivered := func(at, n int) {
		res.Deliveries += n
		last := c.delivered.Add(uint64(n))
		if sample := uint64(e.cfg.PrecisionSample); e.cfg.PrecisionSample > 0 {
			for i := n - 1 - int(last%sample); i >= 0; i -= int(sample) {
				if fm == nil {
					fm = memberMatchers.Get().(*pattern.FlatMatcher)
					fm.LoadFlat(&sc.flat)
				}
				c.sampled.Add(1)
				if memberMatches(fm, e.members[at+i].pat) {
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
		if n := g.amo - g.start; n > 0 {
			dropped(g.log.append(seq, comm))
			delivered(g.start, n)
		}
		for i := g.amo; i < g.end; i++ {
			m := e.members[i]
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
				delivered(i, 1)
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
		e.journalDelivery(persist.Record{Op: persist.OpDeliver, Seq: seq, Doc: doc, Subs: sc.subs, Cursors: sc.cursors, Comms: sc.comms})
	}
	e.scratchPool.Put(sc)
}

// editRoutingLocked runs edit — forest Adds/Removes and changes to comms
// and to e.groups' records — and rebuilds the routing table in ONE
// critical section no publish can straddle: once a handle is freed or
// re-issued, a stale table would skip the community (freed) or deliver
// to the old one's members (reused by another pattern). The rebuild
// recomputes each record's representative and member range in place,
// into the reused member arena, so steady-state churn does not allocate,
// and puts every at-most-once cursor that is not on its community's log
// — a new subscription's, or one a re-clustering moved — on it. Caller
// holds the registry lock exclusively.
func (e *Engine) editRoutingLocked(edit func()) {
	e.routeMu.Lock()
	defer e.routeMu.Unlock()
	edit()
	e.members = e.members[:0]
	for g, members := range e.comms.Groups {
		rg := &e.groups[g]
		rg.rep, rg.start = e.subs[e.comms.Reps[g]], len(e.members)
		for _, idx := range members {
			if s := e.subs[idx]; s.q == nil {
				e.members = append(e.members, s)
				if s.cur.log != rg.log {
					e.counters.dropped.Add(uint64(s.cur.move(rg.log)))
				}
			}
		}
		rg.amo = len(e.members)
		for _, idx := range members {
			if s := e.subs[idx]; s.q != nil {
				e.members = append(e.members, s)
			}
		}
		rg.end = len(e.members)
	}
}

// replaceClusteringLocked installs a freshly built clustering and moves
// the representatives' patterns to match: a representative that still
// stands for a community keeps its record — handle and log; every other
// old handle is removed and every other new representative added, with
// a new log. Caller holds the registry lock exclusively.
func (e *Engine) replaceClusteringLocked(comms *cluster.Communities) {
	e.editRoutingLocked(func() {
		groups := make([]routeGroup, len(comms.Groups))
		newComm := make(map[int]int, len(comms.Reps)) // representative -> new community
		for g, rep := range comms.Reps {
			newComm[rep] = g
		}
		for og, rep := range e.comms.Reps {
			if g, ok := newComm[rep]; ok {
				groups[g] = e.groups[og]
			} else {
				e.forest.Remove(e.groups[og].fh)
			}
		}
		for g, rep := range comms.Reps {
			if groups[g].log == nil {
				groups[g] = routeGroup{fh: e.forest.Add(e.subs[rep].pat), log: e.newCommLog()}
			}
		}
		e.comms, e.groups = comms, groups
	})
}
