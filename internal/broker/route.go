package broker

import (
	"sync"
	"time"

	"treesim/internal/cluster"
	"treesim/internal/pattern"
	"treesim/internal/persist"
	"treesim/internal/xmltree"
)

// This file is the matching plane: one forest, one routing table, one
// lock. The forest holds exactly one pattern per community — its
// representative's — so a publish evaluates what routes and nothing
// else, and one walk of the document decides every community. What a
// community shares is its own, not a subscription's: its forest handle
// (Engine.commFH) and its at-most-once delivery log (Engine.commLogs,
// commlog.go) are set up when it is founded, stay when the
// representative leaves — the handle re-pointed at the successor's
// pattern — and go when it dissolves or a rebuild re-seeds it, always in
// the critical section that rebuilds the routing table, which is also
// where a subscription's cursor is put on its community's log.
//
// Locking: Engine.routeMu is held shared by a publish across its match
// and fan-out, on the publishing goroutine — concurrent publishers
// share it, and Forest.Match is re-entrant — and exclusively by forest
// and routing-table maintenance and by Close. The registry lock
// (Engine.mu) is always acquired first when both are held; publishes
// never take it.

// routeGroup is one community in the routing table, at its index in the
// clustering (reported in deliveries): its representative's forest
// handle, its delivery log, and its member range in the member arena —
// at-most-once members in [start, amo), at-least-once in [amo, end).
type routeGroup struct {
	repFH           int
	log             *commLog
	start, amo, end int
}

// routeMember is one receiving subscription: its own pattern (for the
// precision sample) and, for an at-least-once member, its stable id (for
// the journal) and cursor log.
type routeMember struct {
	pat *pattern.Pattern
	id  uint64
	q   *queue
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
	sc := e.getScratch()
	flat := &sc.flat
	flat.Load(t, e.forest.Table())
	matchStart := time.Now()
	ms := e.forest.MatchFlat(t, flat)
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
					fm.LoadFlat(flat)
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
		if !ms.Has(g.repFH) {
			continue
		}
		res.Matched++
		if n := g.amo - g.start; n > 0 {
			dropped(g.log.append(seq, comm))
			delivered(g.start, n)
		}
		for i := g.amo; i < g.end; i++ {
			m := &e.members[i]
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

// rebuildRoutingLocked rebuilds the routing table from the clustering
// (and its handles and logs, commFH and commLogs) into its reused
// backing arrays, so steady-state churn does not allocate, and puts
// every at-most-once cursor that is not on its community's log — a new
// subscription's, or one a re-clustering moved — on it. Caller holds the
// registry lock and routeMu exclusively.
func (e *Engine) rebuildRoutingLocked() {
	e.groups = e.groups[:0]
	e.members = e.members[:0]
	for g, members := range e.comms.Groups {
		start, log := len(e.members), e.commLogs[g]
		for _, idx := range members {
			if s := e.subs[idx]; s.q == nil {
				e.members = append(e.members, routeMember{pat: s.pat})
				if s.cur.log != log {
					e.counters.dropped.Add(uint64(s.cur.move(log)))
				}
			}
		}
		amo := len(e.members)
		for _, idx := range members {
			if s := e.subs[idx]; s.q != nil {
				e.members = append(e.members, routeMember{pat: s.pat, id: s.id, q: s.q})
			}
		}
		e.groups = append(e.groups, routeGroup{repFH: e.commFH[g], log: log, start: start, amo: amo, end: len(e.members)})
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
// stands for a community keeps its handle and the community its log;
// every other old handle is removed and every other new representative
// added, with a new log. Caller holds the registry lock exclusively.
func (e *Engine) replaceClusteringLocked(comms *cluster.Communities) {
	e.editRoutingLocked(func() {
		commFH := make([]int, len(comms.Groups))
		commLogs := make([]*commLog, len(comms.Groups))
		newComm := make(map[int]int, len(comms.Reps)) // representative -> new community
		for g, rep := range comms.Reps {
			newComm[rep] = g
			commFH[g] = -1
		}
		for og, rep := range e.comms.Reps {
			if g, ok := newComm[rep]; ok {
				commFH[g], commLogs[g] = e.commFH[og], e.commLogs[og]
			} else {
				e.forest.Remove(e.commFH[og])
			}
		}
		for g, rep := range comms.Reps {
			if commFH[g] < 0 {
				commFH[g], commLogs[g] = e.forest.Add(e.subs[rep].pat), e.newCommLog()
			}
		}
		e.comms, e.commFH, e.commLogs = comms, commFH, commLogs
	})
}
