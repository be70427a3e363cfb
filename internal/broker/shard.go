package broker

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"treesim/internal/cluster"
	"treesim/internal/matching"
	"treesim/internal/pattern"
	"treesim/internal/telemetry"
	"treesim/internal/xmltree"
)

// shard is one slice of the broker's matching + delivery plane. Every
// community is pinned to exactly one shard (community-aware placement:
// co-clustered subscribers land together, so a community that matches
// fans out entirely behind one shard lock), and each shard owns a
// matching.Forest holding exactly one pattern per resident community —
// its representative's — so a publish evaluates what routes and nothing
// else. The handle belongs to the community (Engine.commFH), not to a
// subscription: Added when the community is founded, re-pointed at the
// successor's pattern when the representative leaves, moved when a
// rebuild re-pins or re-seeds the community, Removed when it dissolves
// — always in the critical section that swaps the routing table. A
// publish loads the document into one pooled Flat arena and matches it
// against all shards in parallel; shards share no mutable state on that
// path, so the fan-out scales with cores.
//
// Locking: sh.mu is held shared by the publish fan-out (forest Match +
// group iteration) and exclusively by forest/routing maintenance. The
// registry lock (Engine.mu) is always acquired first when both are
// held, and publishes take neither the registry lock nor other shards'
// locks — subscribing on one shard never stalls matching on another.
type shard struct {
	mu     sync.RWMutex
	forest *matching.Forest

	// matchNS is the shard's telemetry histogram (labelled shard=i):
	// time to match one document and fan it out. Observing is two
	// atomics — no allocation on the match path.
	matchNS *telemetry.Histogram

	// groups/members are the shard's routing table, rebuilt by the
	// registry mutators into reused backing arrays (the swap happens
	// under mu held exclusively, so readers never observe a partial
	// rebuild and steady-state churn does not allocate).
	groups  []shardGroup
	members []shardMember

	// nGroups mirrors len(groups) for the fan-out's lock-free skip:
	// with default sizing (one shard per core) most shards of a lightly
	// subscribed engine are empty, and spawning a goroutine just to
	// take a lock and return would be the hot path's dominant cost.
	nGroups atomic.Int64
}

// shardGroup is one community resident on the shard: the global
// community index (reported in deliveries), its representative's
// forest handle, and the member range in the shard's member arena.
type shardGroup struct {
	comm       int
	repFH      int
	start, end int
}

// shardMember is one receiving subscription: its own pattern (for the
// precision sample), stable id and delivery mode (for the at-least-once
// journal), and delivery queue.
type shardMember struct {
	pat  *pattern.Pattern
	id   uint64
	mode DeliveryMode
	q    *queue
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

// ackedDelivery is one at-least-once enqueue the fan-out committed —
// the unit the publish journals (OpDeliver) so the delivery survives a
// crash.
type ackedDelivery struct {
	sub    uint64
	cursor uint64
	comm   int
}

// route matches one document (pre-loaded into flat with the shared
// label table) against the shard's forest and fans it out to the
// members of every community whose representative matched. Counter
// updates go straight to the engine's atomic counters; the return
// values feed the publish's result merge. At-least-once members get a
// cursor-log append instead of a ring push: the document is pinned in
// retention until acked, the assigned cursor is collected into acked
// (appended to the passed slice, typically a pooled scratch) for the
// publish's OpDeliver journal record, and a full log sheds its oldest
// entry — counted, and its pin released. Every sample-th delivery is
// checked exactly, against the receiving member's own pattern.
func (sh *shard) route(t *xmltree.Tree, flat *xmltree.Flat, seq uint64, sample int, c *counters, ring *docRing, acked []ackedDelivery) (matched, deliveries, dropped int, outAcked []ackedDelivery) {
	outAcked = acked
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if len(sh.groups) == 0 {
		return 0, 0, 0, outAcked
	}
	matchStart := time.Now()
	ms := sh.forest.MatchFlat(t, flat)
	c.filterEvals.Add(uint64(len(sh.groups)))
	var fm *pattern.FlatMatcher
	for _, g := range sh.groups {
		if !ms.Has(g.repFH) {
			continue
		}
		matched++
		for _, m := range sh.members[g.start:g.end] {
			var enqueued, evicted bool
			if m.mode == AtLeastOnce {
				var cursor, shedDoc uint64
				cursor, shedDoc, evicted, enqueued = m.q.pushAcked(seq, g.comm)
				if evicted {
					c.ackShed.Add(1)
					ring.unpinOne(shedDoc)
				}
				if enqueued {
					ring.pin(seq, t)
					outAcked = append(outAcked, ackedDelivery{sub: m.id, cursor: cursor, comm: g.comm})
				}
			} else {
				enqueued, evicted = m.q.push(Delivery{Doc: seq, Community: g.comm})
			}
			if evicted || !enqueued {
				// Evictions charge the publish that forced them; the
				// lost delivery belongs to an older document.
				dropped++
				c.dropped.Add(1)
			}
			if !enqueued {
				continue
			}
			deliveries++
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
	sh.matchNS.ObserveDuration(time.Since(matchStart).Nanoseconds())
	return matched, deliveries, dropped, outAcked
}

// routeDoc fans one document out to every shard — in parallel when
// both the shard count and GOMAXPROCS allow it — and merges the
// per-shard tallies into res. Caller holds routeMu shared.
func (e *Engine) routeDoc(t *xmltree.Tree, res *PublishResult) {
	flat, _ := e.flatPool.Get().(*xmltree.Flat)
	if flat == nil {
		flat = &xmltree.Flat{}
	}
	flat.Load(t, e.tbl)
	sample := e.cfg.PrecisionSample
	fan, _ := e.fanPool.Get().(*fanState)
	if fan == nil {
		fan = &fanState{}
	}
	// Fan out only to populated shards (advisory snapshot: a publish
	// that started before a subscribe committed need not see it).
	active := fan.active[:0]
	for _, sh := range e.shards {
		if sh.nGroups.Load() > 0 {
			active = append(active, sh)
		}
	}
	fan.active = active
	allAcked := fan.acked[:0]
	if len(active) <= 1 || e.procs == 1 {
		for _, sh := range active {
			var m, d, dr int
			m, d, dr, allAcked = sh.route(t, flat, res.Seq, sample, &e.counters, e.docs, allAcked)
			res.Matched += m
			res.Deliveries += d
			res.Dropped += dr
		}
	} else {
		if cap(fan.res) < len(active) {
			fan.res = make([]shardResult, len(active))
		}
		fan.res = fan.res[:len(active)]
		for i := 1; i < len(active); i++ {
			fan.wg.Add(1)
			go func(i int) {
				defer fan.wg.Done()
				r := &fan.res[i]
				r.matched, r.deliveries, r.dropped, r.acked = active[i].route(t, flat, res.Seq, sample, &e.counters, e.docs, r.acked[:0])
			}(i)
		}
		r0 := &fan.res[0]
		r0.matched, r0.deliveries, r0.dropped, r0.acked = active[0].route(t, flat, res.Seq, sample, &e.counters, e.docs, r0.acked[:0])
		fan.wg.Wait()
		for i := range fan.res {
			res.Matched += fan.res[i].matched
			res.Deliveries += fan.res[i].deliveries
			res.Dropped += fan.res[i].dropped
			allAcked = append(allAcked, fan.res[i].acked...)
		}
	}
	// Journal the at-least-once deliveries before the publish returns:
	// once the publisher sees success, the acked-mode fan-out is durable
	// (the WAL record carries the document itself, so recovery can repin
	// content the retention ring lost with the process).
	if len(allAcked) > 0 {
		e.journalDelivered(res.Seq, t, allAcked)
	}
	fan.acked = allAcked[:0]
	e.fanPool.Put(fan)
	e.flatPool.Put(flat)
}

// fanState is the pooled scratch of one parallel fan-out.
type fanState struct {
	wg     sync.WaitGroup
	active []*shard
	res    []shardResult
	acked  []ackedDelivery
}

type shardResult struct {
	matched, deliveries, dropped int
	acked                        []ackedDelivery
}

// resolveShards turns the configured shard count into an actual one:
// 0 scales with GOMAXPROCS (capped — beyond the core count extra
// shards only shrink per-forest sharing), negative forces the
// unsharded single-forest layout.
func resolveShards(n int) int {
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	if n > 64 {
		n = 64
	}
	return n
}

// placeCommunityLocked picks the shard for a newly founded community:
// the one with the fewest live subscriptions (ties toward the lower
// index, keeping placement deterministic). Caller holds the registry
// lock exclusively.
func (e *Engine) placeCommunityLocked() int {
	best := 0
	for s := 1; s < len(e.shardLive); s++ {
		if e.shardLive[s] < e.shardLive[best] {
			best = s
		}
	}
	return best
}

// rebuildShardRoutingInner rebuilds one shard's routing table from the
// global clustering (and its handles, commFH) into the shard's reused
// backing arrays. The caller holds the registry lock exclusively AND
// the shard's lock exclusively — forest mutations and the table swap
// must share one critical section, or a concurrent publish could match
// a stale table whose forest handles have been freed (silently skipping
// a community) or reused by a different pattern (misdelivering to the
// old community's members).
func (e *Engine) rebuildShardRoutingInner(si int) {
	sh := e.shards[si]
	sh.groups = sh.groups[:0]
	sh.members = sh.members[:0]
	for g, members := range e.comms.Groups {
		if e.commShard[g] != si {
			continue
		}
		start := len(sh.members)
		for _, idx := range members {
			s := e.subs[idx]
			sh.members = append(sh.members, shardMember{pat: s.pat, id: s.id, mode: s.mode, q: s.q})
		}
		sh.groups = append(sh.groups, shardGroup{
			comm:  g,
			repFH: e.commFH[g],
			start: start,
			end:   len(sh.members),
		})
	}
	sh.nGroups.Store(int64(len(sh.groups)))
}

// swapAllRoutingLocked runs edit and rebuilds every shard's routing
// table in one critical section no publish can straddle: routeMu
// exclusively — a publish keeps it shared across its WHOLE multi-shard
// fan-out, so without it a publish could route shard A before a
// community moved off it (or its index shifted) and shard B after:
// double delivery, lost delivery, or a stale community id — then every
// shard lock (ordering: registry → routeMu → shard), so the tables'
// writer invariant stays uniform with the single-shard churn paths.
// Caller holds the registry lock exclusively.
func (e *Engine) swapAllRoutingLocked(edit func()) {
	e.routeMu.Lock()
	defer e.routeMu.Unlock()
	for _, sh := range e.shards {
		sh.mu.Lock()
	}
	edit()
	for si := range e.shards {
		e.rebuildShardRoutingInner(si)
	}
	for _, sh := range e.shards {
		sh.mu.Unlock()
	}
}

// replaceClusteringLocked installs a freshly built clustering: it
// re-balances communities across shards (largest first onto the least
// loaded) and moves the representatives' patterns to match — a
// community whose representative already stood for one on the same
// shard keeps that handle; every other old handle is removed and every
// other new representative added. Caller holds the registry lock
// exclusively. Rebuilds are policy-amortized, so the global stall is
// rare and bounded by the move work.
func (e *Engine) replaceClusteringLocked(comms *cluster.Communities) {
	e.swapAllRoutingLocked(func() {
		commShard := cluster.BalanceShards(comms.Groups, len(e.shards))
		commFH := make([]int, len(comms.Groups))
		newComm := make(map[int]int, len(comms.Reps)) // representative -> new community
		for g, rep := range comms.Reps {
			newComm[rep] = g
			commFH[g] = -1
		}
		for og, rep := range e.comms.Reps {
			if g, ok := newComm[rep]; ok && commShard[g] == e.commShard[og] {
				commFH[g] = e.commFH[og]
			} else {
				e.shards[e.commShard[og]].forest.Remove(e.commFH[og])
			}
		}
		for i := range e.shardLive {
			e.shardLive[i] = 0
		}
		for g, members := range comms.Groups {
			si := commShard[g]
			e.shardLive[si] += len(members)
			for _, idx := range members {
				e.subs[idx].shard = si
			}
			if commFH[g] < 0 {
				commFH[g] = e.shards[si].forest.Add(e.subs[comms.Reps[g]].pat)
			}
		}
		e.comms, e.commShard, e.commFH = comms, commShard, commFH
	})
}
