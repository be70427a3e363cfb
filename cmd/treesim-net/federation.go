package main

// The federation is the one in-process overlay every schedule runs on:
// steady (steady.go) publishes the whole stream once, -chaos (chaos.go)
// plays a fixed list of its steps, -faults (faults.go) a seeded random
// one. K brokers are wired per the topology through fault.Transport
// links (clean for steady and -chaos; duplicating, reordering and
// delaying for -faults), the workload's subscriptions are
// loaded, and one broker, the victim, journals into a data directory
// through a fault-injectable filesystem. One subscription ledger is the
// ground-truth model, and the steps check the contract as they go:
//
//   - routing equivalence: a verified batch reaches exactly the
//     subscriptions whose patterns match (pattern.Matches), recall 1.0
//     and zero extras over every up node in the origin's component —
//     duplicated and reordered wire messages must die in the seen-set,
//     never in the delivery log;
//   - fail-stop persistence: an injected disk fault latches the
//     victim's store, further at-least-once subscribes are refused with
//     ErrDegraded, and at-most-once traffic keeps flowing;
//   - durable-churn recovery: the victim restarts with exactly the
//     journaled subscription set — churn lost to a failed journal is
//     resurrected or forgotten per the fail-stop contract, never
//     half-applied;
//   - ledger conservation: every at-least-once delivery journaled before
//     the crash and never acked comes back exactly once (flagged
//     Redelivered), and nothing journal-acked ever does.
//
// The fault schedules require -threshold 2 (exact mode): recall 1.0 is
// only an invariant without similarity clustering. Steady below
// threshold 1 publishes unverified and reports the recall it got.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"treesim/internal/broker"
	"treesim/internal/fault"
	"treesim/internal/overlay"
	"treesim/internal/pattern"
	"treesim/internal/persist"
	"treesim/internal/xmltree"
)

// victim is the broker that is faulted, killed and recovered. Not node 0
// (the star hub — killing it partitions everything, a different
// scenario) and not the last node, so survivor↔survivor edges exist in
// every topology with at least 4 nodes.
const victim = 1

// sub is one subscription's ground truth across a schedule.
type sub struct {
	pat  *pattern.Pattern
	node int
	id   uint64
	live bool
	alo  bool // at-least-once: victim-homed, subscribed while its store was healthy
	// durable: the subscribe was journaled, so recovery restores it.
	durable bool
	// tomb: unsubscribed while the journal was failed — the removal was
	// lost, so recovery resurrects the subscription.
	tomb bool
	// outstanding: per-document deliveries journaled while the store was
	// healthy and not yet acked, keyed by docKey — what a crash owes back.
	outstanding map[string]int
}

// tally counts what a schedule did.
type tally struct {
	published, delivered, faults, crashes, recoveries, redelivered int
}

// federation is one schedule's live overlay and its subscription ledger.
type federation struct {
	o     options
	w     *workload
	mode  string // the schedule's flag (steady's: the command), for replay hints
	tmp   string
	dir   string // the victim's data directory
	popts persist.Options
	inj   *fault.Injector
	store *persist.Store

	engines  []*broker.Engine
	nodes    []*overlay.Node
	links    [][2]*fault.Transport // per topology edge: a→b, b→a
	wired    []*fault.Transport    // every transport ever wired, for Stats
	linkOpts fault.TransportOptions
	gen      int64 // victim recoveries so far; seeds its rewired links

	subs     []*sub
	next     int // the next unpublished document of the stream
	victimUp bool
	faulted  bool // the victim's store has latched failed
	tally
}

// newFederation builds the overlay for one schedule: every node, the
// victim journaling, every edge wired, the workload's subscriptions
// loaded and advertised, and an initial snapshot — so every recovery has
// an epoch watermark to floor the restarted node's clock against.
func newFederation(o options, mode string, linkOpts fault.TransportOptions) (f *federation, err error) {
	w, err := buildWorkload(o)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "treesim-net-*")
	if err != nil {
		return nil, err
	}
	inj := fault.NewInjector()
	f = &federation{o: o, w: w, mode: mode, tmp: tmp, dir: filepath.Join(tmp, "victim"),
		// Sync every append, so an armed failpoint fires on the very next
		// journaled mutation and the schedule stays deterministic.
		popts: persist.Options{FS: fault.NewFS(inj), SyncEveryAppend: true},
		inj:   inj, linkOpts: linkOpts, victimUp: true,
		engines: make([]*broker.Engine, o.nodes),
		nodes:   make([]*overlay.Node, o.nodes),
		links:   make([][2]*fault.Transport, len(w.edges)),
	}
	for i := range f.nodes {
		f.engines[i], f.nodes[i] = newNode(o, w, nodeConfig(o, i, 0))
	}
	defer func() {
		if err != nil {
			f.close()
			f = nil
		}
	}()
	if f.store, err = persist.Open(f.dir, f.popts); err != nil {
		return f, err
	}
	f.engines[victim].SetJournal(f.store)
	for ei := range w.edges {
		if err := f.wire(ei); err != nil {
			return f, err
		}
	}
	onVictim := false
	for i, p := range w.subs {
		if err := f.subscribe(p, w.nodeOf[i]); err != nil {
			return f, err
		}
		onVictim = onVictim || w.nodeOf[i] == victim
	}
	if !onVictim {
		// Clustered placement can leave a node empty; give the victim a
		// subscription so its crash shows in deliveries.
		if err := f.subscribe(w.qg.Generate(), victim); err != nil {
			return f, err
		}
	}
	for _, n := range f.nodes {
		if err := n.Advertise(); err != nil {
			return f, err
		}
	}
	f.flush()
	return f, f.snapshot()
}

// close stops every running node and removes the data directory.
func (f *federation) close() {
	for i, n := range f.nodes {
		if f.up(i) {
			n.Close()
			f.engines[i].Close()
		}
	}
	if f.store != nil {
		f.store.Close()
	}
	os.RemoveAll(f.tmp)
}

// up reports whether node i is running.
func (f *federation) up(i int) bool { return i != victim || f.victimUp }

// failf is a contract violation, with the command that reruns it.
func (f *federation) failf(format string, args ...any) error {
	return fmt.Errorf(format+" — rerun with: %s -seed %d", append(args, f.mode, f.o.seed)...)
}

// wire (re)connects topology edge ei through a fresh pair of transports
// seeded by the schedule's seed, the victim's recoveries and the edge.
func (f *federation) wire(ei int) error {
	e := f.w.edges[ei]
	seed := f.o.seed*1_000_000 + f.gen*1000 + int64(ei)*2
	ab := fault.NewTransport(overlay.Inproc{Peer: f.nodes[e[1]]}, seed, f.linkOpts)
	ba := fault.NewTransport(overlay.Inproc{Peer: f.nodes[e[0]]}, seed+1, f.linkOpts)
	if err := overlay.ConnectTransports(f.nodes[e[0]], f.nodes[e[1]], ab, ba); err != nil {
		return err
	}
	f.links[ei] = [2]*fault.Transport{ab, ba}
	f.wired = append(f.wired, ab, ba)
	return nil
}

// flush quiesces the mesh: release reorder-held messages and wait until
// no link has a delivery mid-execution. Releases can re-hold on
// downstream links, and background keepalive senders can release a held
// publication and still be mid-delivery when a single pass returns — so
// pass until one full sweep observes every link idle. Errors are
// ignored: a held message bound for a crashed victim fails like a cut
// cable.
func (f *federation) flush() {
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, l := range f.links {
			_ = l[0].Flush()
			_ = l[1].Flush()
		}
		idle := true
		for _, l := range f.links {
			idle = idle && l[0].Idle() && l[1].Idle()
		}
		if idle || time.Now().After(deadline) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// subscribe registers p at node: at-least-once on the victim, whose
// ledger a crash must conserve, at-most-once elsewhere — and at-most-once
// on a victim whose store has failed, where fail-stop refuses new
// at-least-once work rather than promise durability it cannot journal.
func (f *federation) subscribe(p *pattern.Pattern, node int) error {
	s := &sub{pat: p, node: node, live: true}
	eng := f.engines[node]
	alo := broker.SubscribeOptions{Mode: broker.AtLeastOnce}
	var err error
	switch {
	case node != victim:
		s.id, err = eng.Subscribe(p.String())
	case f.faulted:
		if _, err := eng.SubscribeOpts(p.String(), alo); !errors.Is(err, broker.ErrDegraded) {
			return f.failf("degraded victim accepted an at-least-once subscribe (err=%v), want ErrDegraded", err)
		}
		s.id, err = eng.Subscribe(p.String())
	default:
		s.alo, s.durable, s.outstanding = true, true, map[string]int{}
		s.id, err = eng.SubscribeOpts(p.String(), alo)
	}
	if err != nil {
		return fmt.Errorf("subscribe %q at n%02d: %w", p, node, err)
	}
	f.subs = append(f.subs, s)
	return nil
}

// unsubscribe removes subscription si.
func (f *federation) unsubscribe(si int) error {
	s := f.subs[si]
	if !f.engines[s.node].Unsubscribe(s.id) {
		return fmt.Errorf("unsubscribe %d at n%02d: not live", s.id, s.node)
	}
	s.live = false
	if s.node == victim && f.faulted && s.durable {
		s.tomb = true // the unsub was never journaled; recovery revives it
	} else {
		s.durable = false
	}
	return nil
}

// advertise runs an advert round at node n and quiesces the links.
func (f *federation) advertise(n int) error {
	if err := f.nodes[n].Advertise(); err != nil {
		return err
	}
	f.flush()
	return nil
}

// snapshot writes the victim's snapshot under its overlay epoch.
func (f *federation) snapshot() error {
	advertVersion, pubSeq := f.nodes[victim].Epoch()
	return f.engines[victim].WriteSnapshot(f.store, advertVersion, pubSeq)
}

// batch is one published batch against its ground truth, with each
// document's trace id and the time publishing took until the links were
// quiet.
type batch struct {
	docs, want, got, lost, extra int
	trace                        []string
	elapsed                      time.Duration
}

// recall is the share of ground-truth deliveries that arrived.
func (b batch) recall() float64 {
	if b.want == 0 {
		return 1
	}
	return float64(b.want-b.lost) / float64(b.want)
}

// publish publishes the next n documents of the stream round-robin from
// the up nodes, quiesces the links, drains every live subscription on an
// up node and compares what arrived with ground truth. ack decides, per
// non-empty at-least-once batch, whether the consumer commits it; what
// the victim journaled and nobody acked is its ledger. A verified batch
// counts only the subscriptions the overlay can reach — on an up node in
// the origin's component (the victim may be a cut vertex) — and fails
// the run on any lost or extra delivery; an unverified one (an outage a
// schedule reports rather than forbids) counts every live subscription.
func (f *federation) publish(n int, ack func() bool, verify bool) (batch, error) {
	docs := f.w.docs[f.next:min(f.next+n, len(f.w.docs))]
	f.next += len(docs)
	var up []int
	for i := range f.nodes {
		if f.up(i) {
			up = append(up, i)
		}
	}
	origin := make([]int, len(docs))
	trace := make([]string, len(docs))
	start := time.Now()
	for i, d := range docs {
		origin[i] = up[i%len(up)]
		var err error
		if _, _, trace[i], err = f.nodes[origin[i]].PublishTraced(d); err != nil {
			return batch{}, fmt.Errorf("publish via n%02d: %w", origin[i], err)
		}
	}
	f.published += len(docs)
	f.flush()

	b := batch{docs: len(docs), trace: trace, elapsed: time.Since(start)}
	comp := f.component()
	want, got := map[pairKey]int{}, map[pairKey]int{}
	for di, d := range docs {
		key := docKey(d)
		for si, s := range f.subs {
			reach := f.up(s.node) && comp[s.node] == comp[origin[di]]
			if s.live && (reach || !verify) && pattern.Matches(d, s.pat) {
				want[pairKey{sub: si, doc: key}]++
				b.want++
			}
		}
	}
	for si, s := range f.subs {
		if !s.live || !f.up(s.node) {
			continue
		}
		keys, r, err := drainKeys(f.engines[s.node], s.id)
		if err != nil {
			return b, err
		}
		if r.Redelivered > 0 {
			return b, f.failf("sub %d saw a Redelivered flag outside a recovery window", si)
		}
		for _, k := range keys {
			got[pairKey{sub: si, doc: k}]++
			if s.alo && !f.faulted {
				s.outstanding[k]++
			}
		}
		b.got += len(keys)
		if s.alo && len(keys) > 0 && ack() {
			if _, err := f.engines[s.node].Ack(s.id, r.Cursor); err != nil {
				return b, fmt.Errorf("ack sub %d: %w", si, err)
			}
			if !f.faulted {
				clear(s.outstanding)
			}
		}
	}
	f.delivered += b.got
	_, b.lost, b.extra = compare(want, got)
	if verify && (b.lost != 0 || b.extra != 0) {
		f.dump(docs, origin, trace, want, got)
		return b, f.failf("routing divergence on batch ending at doc %d: %d lost, %d extra", f.next, b.lost, b.extra)
	}
	return b, nil
}

// dump prints what localises a divergent batch: the subscriptions that
// lost or gained deliveries, each lost document's origin and hop spans,
// and every up node's overlay counters.
func (f *federation) dump(docs []*xmltree.Tree, origin []int, trace []string, want, got map[pairKey]int) {
	lostDocs := map[string]int{}
	for k, n := range want {
		if s := f.subs[k.sub]; got[k] < n {
			lostDocs[k.doc] += n - got[k]
			fmt.Printf("## lost: sub %d node n%02d expr %q (alo=%v)\n", k.sub, s.node, s.pat, s.alo)
		}
	}
	for k, n := range got {
		if s := f.subs[k.sub]; want[k] < n {
			fmt.Printf("## extra: sub %d node n%02d expr %q\n", k.sub, s.node, s.pat)
		}
	}
	for di, d := range docs {
		// Two docs in one batch can canonicalize identically; each is
		// reported with the key's count.
		pairs := lostDocs[docKey(d)]
		if pairs == 0 {
			continue
		}
		fmt.Printf("## lost doc %d@n%02d pairs=%d\n", di, origin[di], pairs)
		for i, n := range f.nodes {
			if !f.up(i) {
				continue
			}
			for _, sp := range n.TraceSpans(trace[di]) {
				fmt.Printf("## span doc=%d n%02d from=%q seq=%d deliveries=%d fwd=%v at=%d\n",
					di, i, sp.From, sp.Seq, sp.Deliveries, sp.ForwardedTo, sp.StartUnixNS)
			}
		}
	}
	for i, n := range f.nodes {
		if !f.up(i) {
			continue
		}
		inf := n.Info()
		fmt.Printf("## n%02d ttlDrops=%d sendErr=%d expired=%d linkDowns=%d downPeers=%v busyRej=%d peerBusy=%d dups=%d\n",
			i, inf.TTLDrops, inf.SendErrors, inf.AdvertsExpired, inf.LinkDowns, inf.DownPeers, inf.BusyRejected, inf.PeerBusy, inf.Duplicates)
	}
}

// injectFault arms a disk fault at point and trips it with a throwaway
// at-most-once subscribe at the victim: its journal append hits the
// failpoint and latches the store fail-stop.
func (f *federation) injectFault(point string, mode fault.Mode) error {
	f.inj.Arm(point, fault.Rule{Mode: mode})
	p, err := pattern.Parse("/zz/fault-trigger")
	if err != nil {
		return err
	}
	id, err := f.engines[victim].Subscribe(p.String())
	if err != nil {
		return fmt.Errorf("trigger subscribe: %w", err)
	}
	if !f.store.Failed() {
		return f.failf("armed %s but the store is still healthy", point)
	}
	if !f.engines[victim].Degraded() {
		return f.failf("store failed but the victim engine is not degraded")
	}
	// A sync-point fault means the frame hit the file intact — the
	// schedules crash the process, not the power — so the trigger
	// subscribe itself replays on recovery.
	f.subs = append(f.subs, &sub{pat: p, node: victim, id: id, live: true, durable: point == fault.PointWALSync})
	f.faulted = true
	f.faults++
	return nil
}

// crash kills the victim with no shutdown path: its store stays open
// with whatever the WAL already holds — a SIGKILL's view of disk.
func (f *federation) crash() {
	f.nodes[victim].Close()
	f.engines[victim].Close()
	f.victimUp = false
	f.crashes++
}

// ledger is what a recovery's at-least-once check counted: deliveries
// owed (journaled, never acked), returned, and flagged Redelivered.
type ledger struct{ owed, returned, flagged int }

// recover restarts the victim from its data directory the way the
// daemon does (broker.Recover: snapshot, WAL tail, epoch floor, then the
// boot epoch journaled), rewires its links, and checks the two recovery
// contracts: the live set is exactly the journaled one, and every
// at-least-once subscription gets its journaled-unacked window back
// exactly once, flagged Redelivered, with nothing journal-acked
// resurrected.
func (f *federation) recover() (ledger, error) {
	var l ledger
	store, err := persist.Open(f.dir, f.popts)
	if err != nil {
		return l, err
	}
	eng, minEpoch, err := broker.Recover(brokerConfig(f.o), store)
	if err != nil {
		store.Close()
		return l, err
	}
	f.store, f.engines[victim] = store, eng
	f.nodes[victim] = overlay.New(eng, nodeConfig(f.o, victim, minEpoch))
	// A second recovery from the same snapshot must boot above this one.
	advertVersion, pubSeq := f.nodes[victim].Epoch()
	if _, err := store.Append(persist.Record{Op: persist.OpBootEpoch, Seq: max(advertVersion, pubSeq)}); err != nil {
		return l, fmt.Errorf("journal boot epoch: %w", err)
	}
	f.gen++
	for ei, e := range f.w.edges {
		if e[0] == victim || e[1] == victim {
			if err := f.wire(ei); err != nil {
				return l, err
			}
		}
	}
	f.victimUp, f.faulted = true, false
	f.recoveries++

	// Durable churn comes back exactly: tombstoned unsubs revive,
	// unjournaled subs are forgotten.
	var wantIDs, gotIDs []uint64
	for _, s := range f.subs {
		if s.node != victim {
			continue
		}
		if !s.durable {
			s.live = false
			continue
		}
		if s.tomb {
			s.tomb, s.live = false, true
		}
		if s.live {
			wantIDs = append(wantIDs, s.id)
		}
	}
	for _, g := range eng.CommunityIDs() {
		gotIDs = append(gotIDs, g...)
	}
	slices.Sort(wantIDs)
	slices.Sort(gotIDs)
	if !slices.Equal(gotIDs, wantIDs) {
		return l, f.failf("recovered live set %v, want %v (fired: %v)", gotIDs, wantIDs, f.inj.Fired())
	}

	for si, s := range f.subs {
		if !s.alo || !s.live {
			continue
		}
		owed, got := map[pairKey]int{}, map[pairKey]int{}
		n, flagged := 0, 0
		for k, c := range s.outstanding {
			owed[pairKey{sub: si, doc: k}] = c
			n += c
		}
		for {
			keys, r, err := drainKeys(eng, s.id)
			if err != nil {
				return l, fmt.Errorf("post-recovery: %w", err)
			}
			if len(keys) == 0 {
				break
			}
			for _, k := range keys {
				got[pairKey{sub: si, doc: k}]++
			}
			l.returned += len(keys)
			flagged += r.Redelivered
			if _, err := eng.Ack(s.id, r.Cursor); err != nil {
				return l, fmt.Errorf("post-recovery ack sub %d: %w", si, err)
			}
		}
		if _, lost, extra := compare(owed, got); lost != 0 || extra != 0 {
			return l, f.failf("ledger conservation broken for sub %d: %d unacked deliveries lost, %d beyond the window (acked resurrected or phantom)", si, lost, extra)
		}
		if n > 0 && flagged == 0 {
			return l, f.failf("sub %d's recovered window (%d deliveries) carried no Redelivered flags", si, n)
		}
		l.owed += n
		l.flagged += flagged
		clear(s.outstanding)
	}
	f.redelivered += l.returned
	return l, nil
}

// component labels every node with its connected component in the
// topology minus the victim while it is down — then a document can only
// reach subscribers in its origin's component.
func (f *federation) component() []int {
	parent := make([]int, len(f.nodes))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range f.w.edges {
		if f.up(e[0]) && f.up(e[1]) {
			parent[find(e[0])] = find(e[1])
		}
	}
	comp := make([]int, len(f.nodes))
	for i := range comp {
		comp[i] = find(i)
	}
	return comp
}

// waitRouted restores routing after a membership change. The table
// keeps a single next hop per origin, so routes through a dead node
// black-hole documents until the dead link is marked down and a fresher
// advert moves them to a live one. One explicit advert round from every
// up node floods fresh versions along live links; the barrier then
// demands, for every up node and every same-component subscribing
// origin, both freshness (that round's version or newer) and usability —
// following the via chain hop by hop must reach the origin over up nodes
// and healthy links, with live aggregates at every hop and no cycle.
// Version freshness alone is not enough: next-hop stickiness can hold a
// route on a link to the dead node until link health catches up, with
// versions fully current the whole time.
func (f *federation) waitRouted(label string) error {
	comp := f.component()
	fresh := map[int]uint64{}
	for i, n := range f.nodes {
		if !f.up(i) {
			continue
		}
		if err := n.Advertise(); err != nil {
			return err
		}
		fresh[i] = n.Info().LocalAdvert.Version
	}
	needed := map[int]bool{}
	for _, s := range f.subs {
		if s.live && f.up(s.node) {
			needed[s.node] = true
		}
	}
	idx := map[string]int{}
	for i, n := range f.nodes {
		idx[n.ID()] = i
	}
	type route struct {
		version uint64
		via     int // -1 when the via id is not a node
		pats    int
	}
	type view struct {
		routes map[int]route // origin index -> route
		down   map[int]bool  // peer index -> link marked down
	}
	converged := func() bool {
		f.flush()
		views := make([]*view, len(f.nodes))
		for i, n := range f.nodes {
			if !f.up(i) {
				continue
			}
			inf := n.Info()
			v := &view{routes: map[int]route{}, down: map[int]bool{}}
			for _, og := range inf.Origins {
				if oi, ok := idx[og.Origin]; ok {
					vi, ok := idx[og.Via]
					if !ok {
						vi = -1
					}
					v.routes[oi] = route{version: og.Version, via: vi, pats: og.Patterns}
				}
			}
			for _, p := range inf.DownPeers {
				if pi, ok := idx[p]; ok {
					v.down[pi] = true
				}
			}
			views[i] = v
		}
		// routed walks i's via chain for origin j: every hop must be an up
		// node holding j fresh with live aggregates, over a link not
		// marked down, reaching j without a cycle.
		routed := func(i, j int) bool {
			for steps := 0; i != j; steps++ {
				v := views[i]
				if steps > len(f.nodes) || v == nil {
					return false // a via cycle, or the chain enters a dead node
				}
				r, ok := v.routes[j]
				if !ok || r.version < fresh[j] || r.pats == 0 || r.via < 0 || v.down[r.via] {
					return false // missing, stale, tombstoned, or next hop unusable
				}
				i = r.via
			}
			return true
		}
		for i := range f.nodes {
			for j := range needed {
				if views[i] != nil && j != i && comp[j] == comp[i] && !routed(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := waitFor(label+" routing convergence", 15*time.Second, converged); err != nil {
		return f.failf("%v", err)
	}
	return nil
}

// waitFor polls cond until it holds or timeout passes.
func waitFor(what string, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(25 * time.Millisecond)
	}
	return nil
}
