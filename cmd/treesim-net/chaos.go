package main

// Chaos mode (-chaos): the fault-injection counterpart to the
// steady-state benchmark. One run exercises the full robustness stack
// end to end on a live in-process federation:
//
//	phase 1  all brokers up — exact delivery is required. The victim's
//	         subscriptions run at-least-once: drains are leased and
//	         explicitly acked.
//	fault    one broker is snapshotted, mutated (post-snapshot churn
//	         lands only in its WAL), then killed without any shutdown
//	         path — its persist store is deliberately left open, the
//	         in-process analogue of SIGKILL. Simultaneously one
//	         survivor↔survivor link is severed in both directions.
//	         Before the kill, a consumer-kill batch is published and
//	         the victim's consumers drain it WITHOUT acking — the
//	         in-process analogue of consumers that took delivery and
//	         crashed before committing. Those hand-outs exist only as
//	         OpDeliver/OpDrained records in the WAL tail.
//	phase 2  publishing continues from the survivors. Soft-state TTLs
//	         must evict the dead broker's adverts from every routing
//	         table (lost deliveries to its subscribers are the expected
//	         cost and are reported, not hidden); severed-link endpoints
//	         must mark each other down and keep probing.
//	heal     the broker is recovered from its data directory
//	         (snapshot + WAL tail, stable subscription IDs, epoch
//	         watermark) and rewired; the severed link comes back. The
//	         run waits for convergence: no down links anywhere and every
//	         node routing for every other.
//	phase 3  before new traffic, the recovered broker must redeliver
//	         the entire unacked window — recall 1.0 over the
//	         consumer-kill batch, zero lost documents, duplicates
//	         bounded by the in-flight window — and then exact delivery
//	         is required again: recall 1.0 against pattern.Matches
//	         ground truth, zero extras — proving the overlay healed to
//	         exactly-correct routing, not merely to connectivity.
//
// Requires -threshold 2 (exact mode): with similarity clustering on,
// "recall 1.0" is not a sound invariant to assert against.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"treesim/internal/broker"
	"treesim/internal/overlay"
	"treesim/internal/overlay/wire"
	"treesim/internal/pattern"
	"treesim/internal/persist"
	"treesim/internal/xmltree"
)

// severable wraps a transport with a kill switch; severed sends fail
// like a cut cable, feeding the receiving end nothing and the sending
// end an error (which is what trips link-down marking).
type severable struct {
	inner overlay.Transport
	down  atomic.Bool
}

var errSevered = fmt.Errorf("chaos: link severed")

func (s *severable) SendAdvert(b wire.AdvertBatch) error {
	if s.down.Load() {
		return errSevered
	}
	return s.inner.SendAdvert(b)
}

func (s *severable) SendPublish(p wire.Publication) error {
	if s.down.Load() {
		return errSevered
	}
	return s.inner.SendPublish(p)
}

// chaosSub is one subscription's whole life: its pattern, home broker,
// stable ID (which must survive the victim's recovery), whether it is
// still registered, and its delivery contract (victim subscriptions run
// at-least-once so the recovery owes them their unacked window).
type chaosSub struct {
	pat   *pattern.Pattern
	node  int
	id    uint64
	live  bool
	acked bool
}

// victim is the broker that gets killed and recovered. Not node 0 (the
// star hub — killing it would partition everything, a different
// scenario) and not the last node, so severable survivor↔survivor
// edges exist in every topology with at least 4 nodes.
const victim = 1

func runChaos(o options) error {
	if o.threshold != 2 {
		return fmt.Errorf("-chaos requires -threshold 2 (exact mode): recall 1.0 is only an invariant without similarity clustering")
	}
	if o.nodes < 4 {
		return fmt.Errorf("-chaos needs at least 4 nodes (have %d): one victim plus a severable survivor link", o.nodes)
	}
	if o.publish < 12 {
		return fmt.Errorf("-chaos needs at least 12 documents (have %d) for four publish phases", o.publish)
	}

	w, err := buildWorkload(o)
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "treesim-chaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dataDir := filepath.Join(dir, "victim")

	store, err := persist.Open(dataDir, persist.Options{})
	if err != nil {
		return err
	}

	engines := make([]*broker.Engine, o.nodes)
	nodes := make([]*overlay.Node, o.nodes)
	for i := range nodes {
		engines[i] = broker.New(brokerConfig(o))
		if i == victim {
			engines[i].SetJournal(store)
		}
		nodes[i] = overlay.New(engines[i], nodeConfig(o, i, 0))
	}
	defer func() {
		for i := range nodes {
			nodes[i].Close()
			engines[i].Close()
		}
	}()

	// Wire the topology through severable wrappers so any edge can be
	// cut later; remember each edge's pair of directional switches.
	type linkPair struct{ ab, ba *severable }
	links := make([]linkPair, len(w.edges))
	for ei, e := range w.edges {
		ab := &severable{inner: overlay.Inproc{Peer: nodes[e[1]]}}
		ba := &severable{inner: overlay.Inproc{Peer: nodes[e[0]]}}
		if err := overlay.ConnectTransports(nodes[e[0]], nodes[e[1]], ab, ba); err != nil {
			return err
		}
		links[ei] = linkPair{ab: ab, ba: ba}
	}
	severIdx := -1
	for ei, e := range w.edges {
		if e[0] != victim && e[1] != victim {
			severIdx = ei
			break
		}
	}
	if severIdx < 0 {
		return fmt.Errorf("no survivor↔survivor edge to sever in this topology")
	}

	// Load the workload's subscriptions onto their placed brokers.
	subs := make([]*chaosSub, 0, len(w.subs)+2)
	victimSubs := 0
	// Victim subscriptions are at-least-once: their delivery logs, acks,
	// and leases are exactly the state the crash must not lose.
	subscribeAt := func(n int, expr string) (uint64, bool, error) {
		if n == victim {
			id, err := engines[n].SubscribeOpts(expr, broker.SubscribeOptions{Mode: broker.AtLeastOnce})
			return id, true, err
		}
		id, err := engines[n].Subscribe(expr)
		return id, false, err
	}
	for i, p := range w.subs {
		n := w.nodeOf[i]
		id, acked, err := subscribeAt(n, w.exprs[i])
		if err != nil {
			return fmt.Errorf("subscribe %q: %w", w.exprs[i], err)
		}
		if n == victim {
			victimSubs++
		}
		subs = append(subs, &chaosSub{pat: p, node: n, id: id, live: true, acked: acked})
	}
	if victimSubs == 0 {
		// Clustered placement can leave a node empty; give the victim a
		// subscription so its recovery is observable in deliveries.
		p := w.qg.Generate()
		id, acked, err := subscribeAt(victim, p.String())
		if err != nil {
			return err
		}
		subs = append(subs, &chaosSub{pat: p, node: victim, id: id, live: true, acked: acked})
		victimSubs++
	}
	for _, n := range nodes {
		if err := n.Advertise(); err != nil {
			return err
		}
	}

	// expect computes ground truth directly from the patterns: every
	// (live subscription, matching document) pair exactly once.
	expect := func(docs []*xmltree.Tree) (map[pairKey]int, int) {
		m := make(map[pairKey]int)
		total := 0
		for _, d := range docs {
			key := d.Clone().Canonicalize().String()
			for si, s := range subs {
				if s.live && pattern.Matches(d, s.pat) {
					m[pairKey{sub: si, doc: key}]++
					total++
				}
			}
		}
		return m, total
	}
	publish := func(docs []*xmltree.Tree, origins []int) error {
		for i, d := range docs {
			if _, _, err := nodes[origins[i%len(origins)]].Publish(d); err != nil {
				return fmt.Errorf("publish via n%02d: %w", origins[i%len(origins)], err)
			}
		}
		return nil
	}
	// drainSub empties one subscription's delivery queue into m. For
	// at-least-once subscriptions the batch is leased; the cursor is
	// acked afterwards unless ack is false (a consumer that crashed
	// before committing). Returns deliveries taken and how many were
	// flagged Redelivered.
	drainSub := func(si int, s *chaosSub, ack bool, m map[pairKey]int) (int, int, error) {
		eng := engines[s.node]
		r, err := eng.DrainBatch(s.id, 0, 0)
		if err != nil {
			return 0, 0, fmt.Errorf("drain sub %d at n%02d: %w", si, s.node, err)
		}
		redeliv := 0
		for _, dv := range r.Deliveries {
			t := eng.Document(dv.Doc)
			if t == nil {
				return 0, 0, fmt.Errorf("delivered doc %d not retained at n%02d", dv.Doc, s.node)
			}
			m[pairKey{sub: si, doc: t.Clone().Canonicalize().String()}]++
			if dv.Redelivered {
				redeliv++
			}
		}
		if s.acked && ack && len(r.Deliveries) > 0 {
			if _, err := eng.Ack(s.id, r.Cursor); err != nil {
				return 0, 0, fmt.Errorf("ack sub %d at n%02d (cursor %d): %w", si, s.node, r.Cursor, err)
			}
		}
		return len(r.Deliveries), redeliv, nil
	}
	// drain empties every live subscription's delivery queue into one
	// multiset; sends are synchronous, so after publish returns this is
	// the complete delivery picture. At-least-once batches are acked.
	// skipVictim covers the outage window when the victim's engine is
	// closed.
	drain := func(skipVictim bool) (map[pairKey]int, int, error) {
		m := make(map[pairKey]int)
		total := 0
		for si, s := range subs {
			if !s.live || (skipVictim && s.node == victim) {
				continue
			}
			n, _, err := drainSub(si, s, true, m)
			if err != nil {
				return nil, 0, err
			}
			total += n
		}
		return m, total, nil
	}
	waitFor := func(what string, timeout time.Duration, cond func() bool) error {
		deadline := time.Now().Add(timeout)
		for !cond() {
			if time.Now().After(deadline) {
				return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
			}
			time.Sleep(25 * time.Millisecond)
		}
		return nil
	}

	quarter := len(w.docs) / 4
	p1, pk, p2, p3 := w.docs[:quarter], w.docs[quarter:2*quarter],
		w.docs[2*quarter:3*quarter], w.docs[3*quarter:]
	allOrigins := make([]int, o.nodes)
	for i := range allOrigins {
		allOrigins[i] = i
	}
	survivors := make([]int, 0, o.nodes-1)
	for i := 0; i < o.nodes; i++ {
		if i != victim {
			survivors = append(survivors, i)
		}
	}
	start := time.Now()

	// Phase 1: healthy federation, exact delivery required.
	exp1, exp1Total := expect(p1)
	if err := publish(p1, allOrigins); err != nil {
		return err
	}
	got1, got1Total, err := drain(false)
	if err != nil {
		return err
	}
	_, lost1, extra1 := compare(exp1, got1)
	fmt.Printf("# phase 1 (healthy): %d docs, %d/%d deliveries, %d lost, %d extra\n",
		len(p1), got1Total, exp1Total, lost1, extra1)

	// Fault injection. Snapshot the victim first, then churn it so the
	// WAL tail beyond the snapshot carries real decisions into recovery:
	// two fresh subscriptions and one unsubscription.
	advertVersion, pubSeq := nodes[victim].Epoch()
	if err := engines[victim].WriteSnapshot(store, advertVersion, pubSeq); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		p := w.qg.Generate()
		id, acked, err := subscribeAt(victim, p.String())
		if err != nil {
			return err
		}
		subs = append(subs, &chaosSub{pat: p, node: victim, id: id, live: true, acked: acked})
		victimSubs++
	}
	for _, s := range subs {
		if s.node == victim && s.live {
			engines[victim].Unsubscribe(s.id)
			s.live = false
			victimSubs--
			break
		}
	}
	if err := nodes[victim].Advertise(); err != nil {
		return err
	}

	// Consumer kill: publish a batch, let the victim's at-least-once
	// consumers drain it, and never ack — the consumers "crashed" with
	// the window in flight. Every one of these hand-outs lives only as
	// OpDeliver/OpDrained records in the WAL tail beyond the snapshot;
	// recovery owes them all back. Survivor subscribers process the same
	// batch normally and must be exact.
	expK, _ := expect(pk)
	if err := publish(pk, allOrigins); err != nil {
		return err
	}
	preKill := make(map[pairKey]int)
	gotKSurv := make(map[pairKey]int)
	inFlight := 0
	for si, s := range subs {
		if !s.live {
			continue
		}
		if s.node == victim {
			n, _, err := drainSub(si, s, false, preKill)
			if err != nil {
				return err
			}
			inFlight += n
		} else if _, _, err := drainSub(si, s, true, gotKSurv); err != nil {
			return err
		}
	}
	expKVict := make(map[pairKey]int)
	expKSurv := make(map[pairKey]int)
	for k, v := range expK {
		if subs[k.sub].node == victim {
			expKVict[k] = v
		} else {
			expKSurv[k] = v
		}
	}
	_, lostKSurv, extraKSurv := compare(expKSurv, gotKSurv)
	_, lostKVict, extraKVict := compare(expKVict, preKill)
	fmt.Printf("# consumer kill: %d docs, %d deliveries in flight (leased, never acked), survivors %d lost %d extra\n",
		len(pk), inFlight, lostKSurv, extraKSurv)

	// Kill. No shutdown path runs: the store stays open with whatever
	// the WAL already holds — exactly a SIGKILL's view of disk.
	nodes[victim].Close()
	engines[victim].Close()
	sever := w.edges[severIdx]
	links[severIdx].ab.down.Store(true)
	links[severIdx].ba.down.Store(true)
	fmt.Printf("# fault: killed n%02d (snapshot + WAL-tail churn and unacked delivery window), severed n%02d—n%02d\n",
		victim, sever[0], sever[1])

	// Survivors must notice on their own: the victim's origin expires
	// from every routing table via the advert TTL.
	victimID := nodes[victim].ID()
	if err := waitFor("victim adverts to expire on all survivors", 15*time.Second, func() bool {
		for _, i := range survivors {
			for _, og := range nodes[i].Info().Origins {
				if og.Origin == victimID {
					return false
				}
			}
		}
		return true
	}); err != nil {
		return err
	}

	// Phase 2: degraded. Losses to the dead broker's subscribers (and
	// across the cut, if it partitioned the graph) are expected and
	// reported; phantom deliveries are still a failure.
	exp2, exp2Total := expect(p2)
	if err := publish(p2, survivors); err != nil {
		return err
	}
	got2, got2Total, err := drain(true)
	if err != nil {
		return err
	}
	_, lost2, extra2 := compare(exp2, got2)
	fmt.Printf("# phase 2 (degraded): %d docs, %d/%d deliveries, %d lost to the outage, %d extra\n",
		len(p2), got2Total, exp2Total, lost2, extra2)

	// Heal. Recover the victim from its data directory the way a
	// restarted daemon does (broker.Recover): snapshot, WAL tail above
	// the watermark, journal re-attached only after replay, epoch floored
	// by the persisted watermarks.
	store2, err := persist.Open(dataDir, persist.Options{})
	if err != nil {
		return err
	}
	defer store2.Close()
	eng2, minEpoch, err := broker.Recover(brokerConfig(o), store2)
	if err != nil {
		return err
	}
	if eng2.Live() != victimSubs {
		return fmt.Errorf("recovery: %d live subscriptions, want %d", eng2.Live(), victimSubs)
	}
	engines[victim] = eng2
	nodes[victim] = overlay.New(eng2, nodeConfig(o, victim, minEpoch))
	for ei, e := range w.edges {
		if e[0] != victim && e[1] != victim {
			continue
		}
		ab := &severable{inner: overlay.Inproc{Peer: nodes[e[1]]}}
		ba := &severable{inner: overlay.Inproc{Peer: nodes[e[0]]}}
		if err := overlay.ConnectTransports(nodes[e[0]], nodes[e[1]], ab, ba); err != nil {
			return err
		}
		links[ei] = linkPair{ab: ab, ba: ba}
	}
	links[severIdx].ab.down.Store(false)
	links[severIdx].ba.down.Store(false)
	if err := nodes[victim].Advertise(); err != nil {
		return err
	}
	fmt.Printf("# heal: n%02d restored from %s (%d live subs, epoch floor %d), link n%02d—n%02d reopened\n",
		victim, dataDir, eng2.Live(), minEpoch, sever[0], sever[1])

	// Convergence: retry probes must rediscover the healed link (the
	// probe doubles as a full-state resync) and every node must route
	// for every other again.
	if err := waitFor("all links up and all origins routed", 30*time.Second, func() bool {
		for _, n := range nodes {
			info := n.Info()
			if len(info.DownPeers) != 0 || len(info.Origins) != o.nodes-1 {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}
	// Redelivery: the recovered broker owes the crashed consumers their
	// entire unacked window. Drain the victim's subscriptions again —
	// acking this time, the consumers are "back" — and compare against
	// what was in flight at the kill: zero lost documents is the
	// at-least-once contract; every repeat of a delivery the dead
	// consumers already saw is a duplicate, bounded by that window.
	postHeal := make(map[pairKey]int)
	postHealTotal, redelivered := 0, 0
	for si, s := range subs {
		if !s.live || s.node != victim {
			continue
		}
		n, rd, err := drainSub(si, s, true, postHeal)
		if err != nil {
			return err
		}
		postHealTotal += n
		redelivered += rd
	}
	dupes, lostUnacked, extraUnacked := compare(preKill, postHeal)
	fmt.Printf("# redelivery: %d of %d unacked deliveries returned after recovery (%d lost, %d beyond the window, %d flagged redelivered, %d duplicates for the crashed consumers)\n",
		postHealTotal, inFlight, lostUnacked, extraUnacked, redelivered, dupes)
	if _, residue, err := drain(false); err != nil {
		return err
	} else if residue > 0 {
		fmt.Printf("# drained %d straggler deliveries before phase 3\n", residue)
	}

	// Phase 3: healed federation, exact delivery required again —
	// including to the recovered broker's (post-snapshot!) subscribers.
	exp3, exp3Total := expect(p3)
	if err := publish(p3, allOrigins); err != nil {
		return err
	}
	got3, _, err := drain(false)
	if err != nil {
		return err
	}
	matched3, lost3, extra3 := compare(exp3, got3)
	recall3 := 1.0
	if exp3Total > 0 {
		recall3 = float64(matched3) / float64(exp3Total)
	}
	elapsed := time.Since(start)

	var expired, downs, recoveries, resyncs uint64
	for _, n := range nodes {
		info := n.Info()
		expired += info.AdvertsExpired
		downs += info.LinkDowns
		recoveries += info.LinkRecoveries
		resyncs += info.Resyncs
	}

	name := fmt.Sprintf("topo=%s/nodes=%d/subs=%d/docs=%d", o.topology, o.nodes, len(subs), o.publish)
	fmt.Printf("BenchmarkOverlayChaos/%s \t%d\t%d ns/op\t%.4f recall_healed\t%d lost_healed\t%d extra_healed\t%d lost_outage\t%d lost_unacked\t%d redelivered\t%d duplicates\t%d adverts_expired\t%d link_downs\t%d link_recoveries\t%d resyncs\n",
		name, o.publish, elapsed.Nanoseconds()/int64(o.publish), recall3, lost3, extra3, lost2, lostUnacked, redelivered, dupes, expired, downs, recoveries, resyncs)
	fmt.Printf("# chaos: phase-3 recall %.4f (%d lost, %d extra of %d expected) after losing broker n%02d, its consumers (%d deliveries in flight), and link n%02d—n%02d mid-run; %d redelivered with %d lost, %d adverts expired, %d link downs, %d recoveries, %d resyncs\n",
		recall3, lost3, extra3, exp3Total, victim, inFlight, sever[0], sever[1], redelivered, lostUnacked, expired, downs, recoveries, resyncs)

	if o.check {
		if lost1 != 0 || extra1 != 0 {
			return fmt.Errorf("phase 1 (healthy) delivery mismatch: %d lost, %d extra", lost1, extra1)
		}
		if lostKSurv != 0 || extraKSurv != 0 {
			return fmt.Errorf("consumer-kill batch mismatch at survivors: %d lost, %d extra", lostKSurv, extraKSurv)
		}
		if lostKVict != 0 || extraKVict != 0 {
			return fmt.Errorf("consumer-kill batch mismatch at the victim's consumers: %d lost, %d extra", lostKVict, extraKVict)
		}
		if inFlight == 0 {
			return fmt.Errorf("consumer kill left nothing in flight: the workload routed no documents to the victim (rerun with more subs/docs)")
		}
		if extra2 != 0 {
			return fmt.Errorf("phase 2 (degraded) produced %d phantom deliveries", extra2)
		}
		if lostUnacked != 0 || extraUnacked != 0 {
			return fmt.Errorf("at-least-once contract broken across the crash: %d unacked deliveries lost, %d beyond the window", lostUnacked, extraUnacked)
		}
		if redelivered == 0 {
			return fmt.Errorf("recovery redelivered the window without Redelivered flags (got %d deliveries, 0 flagged)", postHealTotal)
		}
		if lost3 != 0 || extra3 != 0 {
			return fmt.Errorf("phase 3 (healed) delivery mismatch: %d lost, %d extra (recall %.4f)", lost3, extra3, recall3)
		}
		if expired == 0 {
			return fmt.Errorf("no adverts expired: soft-state eviction never fired")
		}
		if recoveries == 0 || resyncs == 0 {
			return fmt.Errorf("no link recoveries/resyncs recorded (recoveries %d, resyncs %d)", recoveries, resyncs)
		}
	}
	return nil
}
