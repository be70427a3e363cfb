package main

// Faults mode (-faults): the seeded crash-schedule checker. Where
// -chaos plays one fixed kill/sever/heal scenario, -faults replays a
// randomized interleaving of fault operations drawn from -seed against
// a live federation whose every link misbehaves at the message level
// (seeded duplicate + reorder + delay via fault.Transport), and checks
// the full correctness contract after every step:
//
//   - routing equivalence: each published batch reaches exactly the
//     subscriptions whose patterns match (ground truth recomputed from
//     pattern.Matches), recall 1.0 and zero extras over every node that
//     is up — duplicated and reordered wire messages must die in the
//     seen-set, never in the delivery log;
//   - fail-stop persistence: an injected disk fault latches the
//     victim's store, further at-least-once subscribes are refused with
//     ErrDegraded, and at-most-once traffic keeps flowing;
//   - ledger conservation across crashes: every at-least-once delivery
//     journaled before the crash and never acked comes back exactly
//     once (flagged Redelivered), and nothing journal-acked ever does;
//   - durable-churn recovery: the victim restarts with exactly the
//     journaled subscription set — churn lost to a failed journal is
//     resurrected or forgotten per the fail-stop contract, never
//     half-applied.
//
// Any failure prints the seed; rerunning with -faults -seed N replays
// the identical schedule, message for message. Drops are deliberately
// excluded here: with synchronous gossip and explicit advertisement
// rounds, a dropped message makes recall 1.0 unsound to assert. The
// drop fault is exercised by the fault package's own tests.
//
// Requires -threshold 2 (exact mode), like -chaos.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"treesim/internal/broker"
	"treesim/internal/fault"
	"treesim/internal/overlay"
	"treesim/internal/pattern"
	"treesim/internal/persist"
)

// fSub is one subscription's ground truth across the schedule.
type fSub struct {
	pat  *pattern.Pattern
	expr string
	node int
	id   uint64
	live bool
	alo  bool // at-least-once (victim-homed)
	// durable: the subscribe was journaled, so recovery restores it.
	durable bool
	// tomb: unsubscribed while the journal was failed — the removal was
	// lost, so recovery resurrects the subscription.
	tomb bool
	// outstanding/acked: per-document delivery counts journaled while
	// the store was healthy, keyed by canonical form. outstanding is
	// what a crash owes back; acked must never reappear.
	outstanding map[string]int
	acked       map[string]int
}

func runFaults(o options) error {
	if o.threshold != 2 {
		return fmt.Errorf("-faults requires -threshold 2 (exact mode): recall 1.0 is only an invariant without similarity clustering")
	}
	if o.nodes < 3 {
		return fmt.Errorf("-faults needs at least 3 nodes (have %d)", o.nodes)
	}
	const batch = 8
	const rounds = 30
	if o.publish < rounds*batch+batch {
		return fmt.Errorf("-faults needs at least %d documents (have %d)", rounds*batch+batch, o.publish)
	}
	failf := func(format string, args ...any) error {
		return fmt.Errorf(format+" — reproduce with: -faults -seed %d", append(args, o.seed)...)
	}

	w, err := buildWorkload(o)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(o.seed + 7))

	dir, err := os.MkdirTemp("", "treesim-faults-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dataDir := filepath.Join(dir, "victim")

	// The victim journals through a fault-injectable filesystem with
	// sync-every-append, so an armed failpoint fires on the very next
	// journaled mutation — the schedule stays deterministic.
	inj := fault.NewInjector()
	fsys := fault.NewFS(inj)
	store, err := persist.Open(dataDir, persist.Options{FS: fsys, SyncEveryAppend: true})
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
	victimUp := true
	defer func() {
		for i := range nodes {
			if i == victim && !victimUp {
				continue
			}
			nodes[i].Close()
			engines[i].Close()
		}
		store.Close()
	}()

	// Every link runs through a faulty transport: seeded duplication,
	// reordering, and delay on both adverts and publications. Victim
	// edges are rewired with fresh transports after each recovery;
	// retired ones stay in allFaulty so the final stats cover the run.
	chaosOpts := fault.TransportOptions{Duplicate: 0.35, Reorder: 0.35, DelayMax: 200 * time.Microsecond}
	type edgeLink struct{ ab, ba *fault.Transport }
	links := make([]edgeLink, len(w.edges))
	var allFaulty []*fault.Transport
	generation := int64(0)
	wire := func(ei int) error {
		e := w.edges[ei]
		seed := o.seed*1_000_000 + generation*1000 + int64(ei)*2
		ab := fault.NewTransport(overlay.Inproc{Peer: nodes[e[1]]}, seed, chaosOpts)
		ba := fault.NewTransport(overlay.Inproc{Peer: nodes[e[0]]}, seed+1, chaosOpts)
		if err := overlay.ConnectTransports(nodes[e[0]], nodes[e[1]], ab, ba); err != nil {
			return err
		}
		links[ei] = edgeLink{ab: ab, ba: ba}
		allFaulty = append(allFaulty, ab, ba)
		return nil
	}
	for ei := range w.edges {
		if err := wire(ei); err != nil {
			return err
		}
	}
	// flushAll quiesces the mesh: release reorder-held messages and wait
	// until no link has a delivery mid-execution. Releases can re-hold
	// on downstream links, and background keepalive senders can release
	// a held publication and still be mid-delivery when a single pass
	// returns — so pass until one full sweep observes every link idle.
	// Errors are ignored: a held message bound for a crashed victim
	// fails like a cut cable.
	flushAll := func() {
		deadline := time.Now().Add(10 * time.Second)
		for {
			for _, l := range links {
				if l.ab != nil {
					_ = l.ab.Flush()
					_ = l.ba.Flush()
				}
			}
			idle := true
			for _, l := range links {
				if l.ab != nil && (!l.ab.Idle() || !l.ba.Idle()) {
					idle = false
				}
			}
			if idle || time.Now().After(deadline) {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}

	subs := make([]*fSub, 0, len(w.subs)+8)
	addSub := func(p *pattern.Pattern, node int, faulted bool) error {
		expr := p.String()
		s := &fSub{pat: p, expr: expr, node: node, live: true}
		if node == victim {
			s.alo = true
			s.durable = !faulted
			s.outstanding = map[string]int{}
			s.acked = map[string]int{}
			id, err := engines[node].SubscribeOpts(expr, broker.SubscribeOptions{Mode: broker.AtLeastOnce})
			if err != nil {
				return err
			}
			s.id = id
		} else {
			id, err := engines[node].Subscribe(expr)
			if err != nil {
				return err
			}
			s.id = id
		}
		subs = append(subs, s)
		return nil
	}
	victimSubs := 0
	for i, p := range w.subs {
		if err := addSub(p, w.nodeOf[i], false); err != nil {
			return fmt.Errorf("subscribe %q: %w", w.exprs[i], err)
		}
		if w.nodeOf[i] == victim {
			victimSubs++
		}
	}
	if victimSubs == 0 {
		if err := addSub(w.qg.Generate(), victim, false); err != nil {
			return err
		}
	}
	for _, n := range nodes {
		if err := n.Advertise(); err != nil {
			return err
		}
	}
	flushAll()

	faulted := false
	docIdx := 0
	var published, delivered, faultsFired, crashes, recoveries, redeliveries int

	snapshot := func() error {
		advertVersion, pubSeq := nodes[victim].Epoch()
		return engines[victim].WriteSnapshot(store, advertVersion, pubSeq)
	}
	// An initial snapshot guarantees every recovery has an epoch
	// watermark to floor the restarted node's clock against.
	if err := snapshot(); err != nil {
		return err
	}

	// component labels every node with its connected component in the
	// topology minus the victim — while the victim is down, a document
	// can only reach subscribers in its origin's component (the victim
	// may be a cut vertex).
	component := func() []int {
		parent := make([]int, o.nodes)
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		for _, e := range w.edges {
			if !victimUp && (e[0] == victim || e[1] == victim) {
				continue
			}
			parent[find(e[0])] = find(e[1])
		}
		comp := make([]int, o.nodes)
		for i := range comp {
			comp[i] = find(i)
		}
		return comp
	}

	// waitRouted restores routing after a membership change. The table
	// keeps a single next hop per origin, so routes through a dead node
	// black-hole documents until the dead link is marked down and a
	// fresher advert moves them to a live one. One explicit advert round
	// from every up node floods fresh versions along live links; the
	// barrier then demands, for every up node and every same-component
	// subscribing origin, both freshness (that round's version or newer)
	// and usability — following the via chain hop by hop must reach the
	// origin over up nodes and healthy links, with live aggregates at
	// every hop and no cycle. Version freshness alone is not enough:
	// next-hop stickiness can hold a route on a link to the dead node
	// until link health catches up, with versions fully current the
	// whole time.
	waitRouted := func(label string) error {
		comp := component()
		want := map[int]uint64{}
		for i, n := range nodes {
			if i == victim && !victimUp {
				continue
			}
			if err := n.Advertise(); err != nil {
				return err
			}
			want[i] = n.Info().LocalAdvert.Version
		}
		needed := map[int]bool{}
		for _, s := range subs {
			if s.live && (s.node != victim || victimUp) {
				needed[s.node] = true
			}
		}
		type route struct {
			version uint64
			via     int // -1 when the via id is unknown or not a node
			pats    int
		}
		type nodeView struct {
			routes map[int]route // origin index -> route
			down   map[int]bool  // peer index -> link marked down
		}
		idx := map[string]int{}
		for i := 0; i < o.nodes; i++ {
			idx[fmt.Sprintf("n%02d", i)] = i
		}
		deadline := time.Now().Add(15 * time.Second)
		for {
			flushAll()
			views := make([]*nodeView, o.nodes)
			for i := range nodes {
				if i == victim && !victimUp {
					continue
				}
				inf := nodes[i].Info()
				v := &nodeView{routes: map[int]route{}, down: map[int]bool{}}
				for _, og := range inf.Origins {
					oi, ok := idx[og.Origin]
					if !ok {
						continue
					}
					vi, ok := idx[og.Via]
					if !ok {
						vi = -1
					}
					v.routes[oi] = route{version: og.Version, via: vi, pats: og.Patterns}
				}
				for _, p := range inf.DownPeers {
					if pi, ok := idx[p]; ok {
						v.down[pi] = true
					}
				}
				views[i] = v
			}
			// routed walks i's via chain for origin j: every hop must be
			// an up node holding j fresh with live aggregates, over a
			// link not marked down, reaching j without a cycle.
			routed := func(i, j int) bool {
				cur := i
				for steps := 0; cur != j; steps++ {
					if steps > o.nodes {
						return false // via cycle
					}
					v := views[cur]
					if v == nil {
						return false // chain enters a dead node
					}
					r, ok := v.routes[j]
					if !ok || r.version < want[j] || r.pats == 0 {
						return false // missing, stale, or tombstoned
					}
					if r.via < 0 || v.down[r.via] {
						return false // next hop unusable
					}
					cur = r.via
				}
				return true
			}
			converged := true
		check:
			for i := range nodes {
				if views[i] == nil {
					continue
				}
				for j := range needed {
					if j == i || comp[j] != comp[i] {
						continue
					}
					if !routed(i, j) {
						converged = false
						break check
					}
				}
			}
			if converged {
				return nil
			}
			if time.Now().After(deadline) {
				return failf("%s: routing convergence timed out", label)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	publishBatch := func() error {
		if docIdx+batch > len(w.docs) {
			return nil
		}
		docs := w.docs[docIdx : docIdx+batch]
		docIdx += batch
		origins := make([]int, 0, o.nodes)
		for i := 0; i < o.nodes; i++ {
			if i != victim || victimUp {
				origins = append(origins, i)
			}
		}
		docOrigin := make([]int, len(docs))
		docTrace := make([]string, len(docs))
		for i, d := range docs {
			docOrigin[i] = origins[i%len(origins)]
			_, _, tid, err := nodes[docOrigin[i]].PublishTraced(d)
			if err != nil {
				return fmt.Errorf("publish via n%02d: %w", docOrigin[i], err)
			}
			docTrace[i] = tid
		}
		published += len(docs)
		flushAll()

		// Ground truth for this batch: every (reachable live sub,
		// matching doc) pair exactly once. Reachable means the sub's
		// node is up and in the same component as the doc's origin.
		comp := component()
		exp := make(map[pairKey]int)
		for di, d := range docs {
			key := d.Clone().Canonicalize().String()
			for si, s := range subs {
				if s.live && (s.node != victim || victimUp) &&
					comp[s.node] == comp[docOrigin[di]] && pattern.Matches(d, s.pat) {
					exp[pairKey{sub: si, doc: key}]++
				}
			}
		}
		got := make(map[pairKey]int)
		for si, s := range subs {
			if !s.live || (s.node == victim && !victimUp) {
				continue
			}
			r, err := engines[s.node].DrainBatch(s.id, 0, 0)
			if err != nil {
				return fmt.Errorf("drain sub %d at n%02d: %w", si, s.node, err)
			}
			for _, dv := range r.Deliveries {
				t := engines[s.node].Document(dv.Doc)
				if t == nil {
					return fmt.Errorf("delivered doc %d not retained at n%02d", dv.Doc, s.node)
				}
				key := t.Clone().Canonicalize().String()
				got[pairKey{sub: si, doc: key}]++
				delivered++
				if dv.Redelivered {
					return failf("sub %d saw a Redelivered flag outside a recovery window", si)
				}
				if s.node == victim && s.alo && !faulted {
					s.outstanding[key]++
				}
			}
			if s.alo && len(r.Deliveries) > 0 && rng.Float64() < 0.6 {
				if _, err := engines[s.node].Ack(s.id, r.Cursor); err != nil {
					return fmt.Errorf("ack sub %d: %w", si, err)
				}
				if s.node == victim && !faulted {
					for k, n := range s.outstanding {
						s.acked[k] += n
					}
					s.outstanding = map[string]int{}
				}
			}
		}
		if _, lost, extra := compare(exp, got); lost != 0 || extra != 0 {
			// The divergence dump. Two docs in one batch can canonicalize
			// identically, so a key maps to every doc index (and origin)
			// sharing it.
			keyDocs := map[string][]int{}
			for di, d := range docs {
				k := d.Clone().Canonicalize().String()
				keyDocs[k] = append(keyDocs[k], di)
			}
			perDoc := map[string]int{}
			for k, n := range exp {
				if got[k] < n {
					perDoc[k.doc] += n - got[k]
				}
			}
			for k, n := range perDoc {
				var origins []string
				for _, di := range keyDocs[k] {
					origins = append(origins, fmt.Sprintf("doc %d@n%02d", di, docOrigin[di]))
				}
				fmt.Printf("## lost doc %s pairs=%d key=%.40q\n", strings.Join(origins, ", "), n, k)
			}
			for di, d := range docs {
				if perDoc[d.Clone().Canonicalize().String()] == 0 {
					continue
				}
				for i := range nodes {
					if i == victim && !victimUp {
						continue
					}
					for _, sp := range nodes[i].TraceSpans(docTrace[di]) {
						fmt.Printf("## span doc=%d n%02d from=%q seq=%d deliveries=%d fwd=%v at=%d\n",
							di, i, sp.From, sp.Seq, sp.Deliveries, sp.ForwardedTo, sp.StartUnixNS)
					}
				}
			}
			for k, n := range exp {
				if got[k] < n {
					s := subs[k.sub]
					fmt.Printf("## lost: sub %d node n%02d expr %q (alo=%v live=%v)\n", k.sub, s.node, s.expr, s.alo, s.live)
				}
			}
			for k, n := range got {
				if exp[k] < n {
					s := subs[k.sub]
					fmt.Printf("## extra: sub %d node n%02d expr %q\n", k.sub, s.node, s.expr)
				}
			}
			for i := range nodes {
				if i == victim && !victimUp {
					continue
				}
				inf := nodes[i].Info()
				fmt.Printf("## n%02d ttlDrops=%d sendErr=%d expired=%d linkDowns=%d downPeers=%v busyRej=%d peerBusy=%d dups=%d\n",
					i, inf.TTLDrops, inf.SendErrors, inf.AdvertsExpired, inf.LinkDowns, inf.DownPeers, inf.BusyRejected, inf.PeerBusy, inf.Duplicates)
			}
			return failf("routing divergence on batch ending at doc %d: %d lost, %d extra", docIdx, lost, extra)
		}
		return nil
	}

	churn := func() error {
		if rng.Intn(2) == 0 {
			n := rng.Intn(o.nodes)
			if n == victim && !victimUp {
				n = (victim + 1) % o.nodes
			}
			p := w.qg.Generate()
			if n == victim && faulted {
				// Fail-stop contract: a degraded broker refuses new
				// at-least-once work rather than promising durability it
				// cannot journal.
				if _, err := engines[victim].SubscribeOpts(p.String(), broker.SubscribeOptions{Mode: broker.AtLeastOnce}); !errors.Is(err, broker.ErrDegraded) {
					return failf("degraded victim accepted an at-least-once subscribe (err=%v), want ErrDegraded", err)
				}
				id, err := engines[victim].Subscribe(p.String())
				if err != nil {
					return err
				}
				subs = append(subs, &fSub{pat: p, expr: p.String(), node: victim, id: id, live: true})
			} else if err := addSub(p, n, faulted); err != nil {
				return err
			}
			if err := nodes[n].Advertise(); err != nil {
				return err
			}
			flushAll()
			return nil
		}
		var candidates []int
		for si, s := range subs {
			if s.live && (s.node != victim || victimUp) {
				candidates = append(candidates, si)
			}
		}
		if len(candidates) == 0 {
			return nil
		}
		si := candidates[rng.Intn(len(candidates))]
		s := subs[si]
		if !engines[s.node].Unsubscribe(s.id) {
			return fmt.Errorf("unsubscribe %d at n%02d: not live", s.id, s.node)
		}
		s.live = false
		if s.node == victim && faulted && s.durable {
			s.tomb = true // the unsub was never journaled; recovery revives it
		} else {
			s.durable = false
		}
		if err := nodes[s.node].Advertise(); err != nil {
			return err
		}
		flushAll()
		return nil
	}

	injectFault := func() error {
		points := []string{fault.PointWALWrite, fault.PointWALSync}
		modes := []fault.Mode{fault.Fail, fault.Short, fault.NoSpace}
		point := points[rng.Intn(len(points))]
		inj.Arm(point, fault.Rule{Mode: modes[rng.Intn(len(modes))]})
		// Trigger with a throwaway subscribe: its journal append hits the
		// failpoint and latches the store.
		p, err := pattern.Parse("/zz/fault-trigger")
		if err != nil {
			return err
		}
		id, err := engines[victim].Subscribe(p.String())
		if err != nil {
			return fmt.Errorf("trigger subscribe: %w", err)
		}
		if !store.Failed() {
			return failf("armed %s but the store is still healthy", point)
		}
		if !engines[victim].Degraded() {
			return failf("store failed but the victim engine is not degraded")
		}
		// A sync-point fault means the frame hit the file intact — this
		// harness crashes the process, not the power — so the trigger
		// subscribe itself replays on recovery.
		subs = append(subs, &fSub{pat: p, expr: p.String(), node: victim, id: id,
			live: true, durable: point == fault.PointWALSync})
		faulted = true
		faultsFired++
		return nil
	}

	crash := func() error {
		// No shutdown path runs; the store stays open with whatever the
		// WAL already holds — a SIGKILL's view of disk.
		nodes[victim].Close()
		engines[victim].Close()
		victimUp = false
		crashes++
		// Survivors must reroute around the dead node before exactness
		// is asserted again.
		return waitRouted("post-crash")
	}

	recover := func() error {
		store2, err := persist.Open(dataDir, persist.Options{FS: fsys, SyncEveryAppend: true})
		if err != nil {
			return err
		}
		eng2, minEpoch, err := broker.Recover(brokerConfig(o), store2)
		if err != nil {
			store2.Close()
			return err
		}
		store = store2
		engines[victim] = eng2
		nodes[victim] = overlay.New(eng2, nodeConfig(o, victim, minEpoch))
		av, ps := nodes[victim].Epoch()
		if ps > av {
			av = ps
		}
		if _, err := store2.Append(persist.Record{Op: persist.OpBootEpoch, Seq: av}); err != nil {
			return fmt.Errorf("journal boot epoch: %w", err)
		}
		generation++
		for ei, e := range w.edges {
			if e[0] == victim || e[1] == victim {
				if err := wire(ei); err != nil {
					return err
				}
			}
		}
		victimUp = true
		faulted = false
		recoveries++

		// 1. Durable-churn recovery: the journaled subscription set comes
		// back exactly — tombstoned unsubs revive, unjournaled subs are
		// forgotten.
		var wantIDs []uint64
		for _, s := range subs {
			if s.node != victim {
				continue
			}
			if s.durable {
				if s.tomb {
					s.tomb = false
					s.live = true
				}
				if s.live {
					wantIDs = append(wantIDs, s.id)
				}
			} else {
				s.live = false
			}
		}
		sort.Slice(wantIDs, func(i, j int) bool { return wantIDs[i] < wantIDs[j] })
		var gotIDs []uint64
		for _, g := range eng2.CommunityIDs() {
			gotIDs = append(gotIDs, g...)
		}
		sort.Slice(gotIDs, func(i, j int) bool { return gotIDs[i] < gotIDs[j] })
		if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
			return failf("recovered live set %v, want %v (fired: %v)", gotIDs, wantIDs, inj.Fired())
		}

		// Convergence: every node must route for every origin that still
		// holds live subscriptions before exactness is asserted again.
		if err := waitRouted("post-recovery"); err != nil {
			return err
		}

		// 2. Ledger conservation: the recovered broker owes each
		// at-least-once subscription its journaled-unacked window —
		// exactly once per delivery, flagged Redelivered — and must never
		// resurrect anything journal-acked.
		for si, s := range subs {
			if s.node != victim || !s.alo || !s.live {
				continue
			}
			got := map[string]int{}
			flagged, total := 0, 0
			for {
				r, err := eng2.DrainBatch(s.id, 0, 0)
				if err != nil {
					return fmt.Errorf("post-recovery drain sub %d: %w", si, err)
				}
				if len(r.Deliveries) == 0 {
					break
				}
				for _, dv := range r.Deliveries {
					t := eng2.Document(dv.Doc)
					if t == nil {
						return fmt.Errorf("post-recovery doc %d not retained", dv.Doc)
					}
					got[t.Clone().Canonicalize().String()]++
					total++
					if dv.Redelivered {
						flagged++
					}
				}
				if _, err := eng2.Ack(s.id, r.Cursor); err != nil {
					return fmt.Errorf("post-recovery ack sub %d: %w", si, err)
				}
			}
			want, owed := map[pairKey]int{}, 0
			gotPairs := map[pairKey]int{}
			for k, n := range s.outstanding {
				want[pairKey{sub: si, doc: k}] = n
				owed += n
			}
			for k, n := range got {
				gotPairs[pairKey{sub: si, doc: k}] = n
			}
			if _, lost, extra := compare(want, gotPairs); lost != 0 || extra != 0 {
				return failf("ledger conservation broken for sub %d: %d unacked deliveries lost, %d beyond the window (acked resurrected or phantom)", si, lost, extra)
			}
			if owed > 0 && flagged == 0 {
				return failf("sub %d's recovered window (%d deliveries) carried no Redelivered flags", si, owed)
			}
			redeliveries += total
			for k, n := range s.outstanding {
				s.acked[k] += n
			}
			s.outstanding = map[string]int{}
		}
		return nil
	}

	start := time.Now()
	for round := 0; round < rounds; round++ {
		r := rng.Intn(100)
		var err error
		switch {
		case r < 40:
			err = publishBatch()
		case r < 60:
			err = churn()
		case r < 70:
			if victimUp && !faulted {
				err = snapshot()
			} else {
				err = publishBatch()
			}
		case r < 80:
			switch {
			case victimUp && !faulted:
				err = injectFault()
			case victimUp:
				err = crash()
			default:
				err = recover()
			}
		case r < 90:
			if victimUp {
				err = crash()
			} else {
				err = recover()
			}
		default:
			if !victimUp {
				err = recover()
			} else {
				err = publishBatch()
			}
		}
		if err != nil {
			return err
		}
	}
	// Every schedule must exercise the whole contract at least once,
	// whatever the dice said.
	if !victimUp {
		if err := recover(); err != nil {
			return err
		}
	}
	if faultsFired == 0 {
		if err := injectFault(); err != nil {
			return err
		}
	}
	if faulted {
		if err := crash(); err != nil {
			return err
		}
		if err := recover(); err != nil {
			return err
		}
	}
	if crashes == 0 {
		if err := crash(); err != nil {
			return err
		}
		if err := recover(); err != nil {
			return err
		}
	}
	// Final verified batch on the healed federation.
	if err := publishBatch(); err != nil {
		return err
	}
	elapsed := time.Since(start)

	var dups, reorders uint64
	for _, tr := range allFaulty {
		_, d, r := tr.Stats()
		dups += d
		reorders += r
	}
	if dups == 0 || reorders == 0 {
		return failf("fault schedule idle: %d duplicates, %d reorders injected", dups, reorders)
	}

	name := fmt.Sprintf("topo=%s/nodes=%d/subs=%d/seed=%d", o.topology, o.nodes, len(subs), o.seed)
	perPub := int64(0)
	if published > 0 {
		perPub = elapsed.Nanoseconds() / int64(published)
	}
	fmt.Printf("BenchmarkOverlayFaults/%s \t%d\t%d ns/op\t%d deliveries\t%d faults\t%d crashes\t%d recoveries\t%d redelivered\t%d wire_dups\t%d wire_reorders\t%.4f recall\n",
		name, published, perPub, delivered, faultsFired, crashes, recoveries, redeliveries, dups, reorders, 1.0)
	fmt.Printf("# faults: seed %d ran %d rounds clean — %d docs, %d deliveries, %d disk faults, %d crashes, %d recoveries, %d redelivered; links injected %d duplicates and %d reorders\n",
		o.seed, rounds, published, delivered, faultsFired, crashes, recoveries, redeliveries, dups, reorders)
	fmt.Printf("# replay this exact schedule: treesim-net -faults -seed %d -nodes %d -topology %s -subs %d\n",
		o.seed, o.nodes, o.topology, o.subs)
	return nil
}
