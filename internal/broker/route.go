package broker

import (
	"sync"
	"time"

	"treesim/internal/cluster"
	"treesim/internal/pattern"
	"treesim/internal/xmltree"
)

// This file is the matching plane: one forest, one routing table, one
// lock. The forest holds exactly one pattern per community — its
// representative's — so a publish evaluates what routes and nothing
// else, and one walk of the document decides every community. The
// handle belongs to the community (Engine.commFH), not to a
// subscription: Added when the community is founded, re-pointed at the
// successor's pattern when the representative leaves, Removed when it
// dissolves or a rebuild re-seeds it — always in the critical section
// that rebuilds the routing table.
//
// Locking: Engine.routeMu is held shared by a publish across its match
// and fan-out, on the publishing goroutine — concurrent publishers
// share it, and Forest.Match is re-entrant — and exclusively by forest
// and routing-table maintenance and by Close. The registry lock
// (Engine.mu) is always acquired first when both are held; publishes
// never take it.

// routeGroup is one community in the routing table, at its index in the
// clustering (reported in deliveries): its representative's forest
// handle and its member range in the member arena.
type routeGroup struct {
	repFH      int
	start, end int
}

// routeMember is one receiving subscription: its own pattern (for the
// precision sample), stable id and delivery mode (for the at-least-once
// journal), and delivery queue.
type routeMember struct {
	pat  *pattern.Pattern
	id   uint64
	mode DeliveryMode
	q    *queue
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
// calling goroutine — and fans it out to the members of every community
// whose representative matched, tallying into res. At-least-once members
// get a cursor-log append instead of a ring push: the document is pinned
// in retention until acked, the assigned cursors are journaled as one
// OpDeliver record before the publish returns, and a full log sheds its
// oldest entry — counted, and its pin released. Every sample-th delivery
// is checked exactly, against the receiving member's own pattern. doc is
// t packed, as retention just stored it (nil when retention is off).
// Caller holds routeMu shared.
func (e *Engine) routeDoc(t *xmltree.Tree, doc []byte, res *PublishResult) {
	if len(e.groups) == 0 {
		return
	}
	sc := e.getScratch()
	flat := &sc.flat
	flat.Load(t, e.forest.Table())
	matchStart := time.Now()
	ms := e.forest.MatchFlat(t, flat)
	c, sample, seq := &e.counters, e.cfg.PrecisionSample, res.Seq
	c.filterEvals.Add(uint64(len(e.groups)))
	sc.subs, sc.cursors, sc.comms = sc.subs[:0], sc.cursors[:0], sc.comms[:0]
	var fm *pattern.FlatMatcher
	for comm, g := range e.groups {
		if !ms.Has(g.repFH) {
			continue
		}
		res.Matched++
		for _, m := range e.members[g.start:g.end] {
			var enqueued, evicted bool
			if m.mode == AtLeastOnce {
				var cursor, shedDoc uint64
				cursor, shedDoc, evicted, enqueued = m.q.pushAcked(seq, comm)
				if evicted {
					c.ackShed.Add(1)
					e.docs.unpin(shedDoc)
				}
				if enqueued {
					e.docs.pin(seq, doc)
					sc.subs, sc.cursors, sc.comms = append(sc.subs, m.id), append(sc.cursors, cursor), append(sc.comms, comm)
				}
			} else {
				enqueued, evicted = m.q.push(Delivery{Doc: seq, Community: comm})
			}
			if evicted || !enqueued {
				// Evictions charge the publish that forced them; the
				// lost delivery belongs to an older document.
				res.Dropped++
				c.dropped.Add(1)
			}
			if !enqueued {
				continue
			}
			res.Deliveries++
			n := c.delivered.Add(1)
			if sample > 0 && n%uint64(sample) == 0 {
				if fm == nil {
					fm = memberMatchers.Get().(*pattern.FlatMatcher)
					fm.LoadFlat(flat)
				}
				c.sampled.Add(1)
				if memberMatches(fm, m.pat) {
					c.sampledHits.Add(1)
				}
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
	if j := e.journal.Load(); j != nil && len(sc.subs) > 0 {
		if lsn, err := (*j).Delivered(seq, doc, sc.subs, sc.cursors, sc.comms); err != nil {
			e.noteJournalError()
		} else {
			e.bumpDeliveryLSN(lsn)
		}
	}
	e.scratchPool.Put(sc)
}

// rebuildRoutingLocked rebuilds the routing table from the clustering
// (and its handles, commFH) into its reused backing arrays, so
// steady-state churn does not allocate. Caller holds the registry lock
// and routeMu exclusively.
func (e *Engine) rebuildRoutingLocked() {
	e.groups = e.groups[:0]
	e.members = e.members[:0]
	for g, members := range e.comms.Groups {
		start := len(e.members)
		for _, idx := range members {
			s := e.subs[idx]
			e.members = append(e.members, routeMember{pat: s.pat, id: s.id, mode: s.mode, q: s.q})
		}
		e.groups = append(e.groups, routeGroup{repFH: e.commFH[g], start: start, end: len(e.members)})
	}
}

// editRoutingLocked runs edit — forest Adds/Removes and changes to
// comms/commFH — and rebuilds the routing table in ONE critical section
// no publish can straddle: once a handle is freed or re-issued, a stale
// table would skip the community (freed) or deliver to the old one's
// members (reused by another pattern). Caller holds the registry lock
// exclusively.
func (e *Engine) editRoutingLocked(edit func()) {
	e.routeMu.Lock()
	defer e.routeMu.Unlock()
	edit()
	e.rebuildRoutingLocked()
}

// replaceClusteringLocked installs a freshly built clustering and moves
// the representatives' patterns to match: a representative that still
// stands for a community keeps its handle; every other old handle is
// removed and every other new representative added. Caller holds the
// registry lock exclusively.
func (e *Engine) replaceClusteringLocked(comms *cluster.Communities) {
	e.editRoutingLocked(func() {
		commFH := make([]int, len(comms.Groups))
		newComm := make(map[int]int, len(comms.Reps)) // representative -> new community
		for g, rep := range comms.Reps {
			newComm[rep] = g
			commFH[g] = -1
		}
		for og, rep := range e.comms.Reps {
			if g, ok := newComm[rep]; ok {
				commFH[g] = e.commFH[og]
			} else {
				e.forest.Remove(e.commFH[og])
			}
		}
		for g, rep := range comms.Reps {
			if commFH[g] < 0 {
				commFH[g] = e.forest.Add(e.subs[rep].pat)
			}
		}
		e.comms, e.commFH = comms, commFH
	})
}
