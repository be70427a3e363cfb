package main

// Chaos mode (-chaos): the fault-injection counterpart to the
// steady-state benchmark — one fixed schedule of the federation's steps
// (federation.go) on clean links, plus the three things only it does:
// sever and reopen a survivor link, wait out the advert TTL, and wait
// until every link is up and every origin routed.
//
//	phase 1  publish a quarter of the stream, verified exactly; the
//	         victim's at-least-once consumers ack every batch.
//	churn    snapshot the victim, then subscribe twice and unsubscribe
//	         once there: the WAL tail past the snapshot carries real
//	         decisions into recovery.
//	kill     publish the next quarter, verified, but the victim's
//	         consumers never ack it — they took delivery and crashed
//	         before committing. Crash the victim, sever one
//	         survivor↔survivor link, and wait until the survivors' advert
//	         TTL has evicted the victim from every routing table.
//	phase 2  publish the third quarter from the survivors. Losses to the
//	         outage are expected and reported; phantom deliveries fail.
//	heal     recover the victim — its ledger check demands the whole
//	         unacked window back, flagged Redelivered — reopen the link,
//	         and wait until the probes (each a full-state resync) have
//	         brought every link up and every node routes for every other.
//	phase 3  publish the rest, verified exactly again, including to the
//	         recovered broker's post-snapshot subscribers: the overlay
//	         healed to exactly-correct routing, not merely connectivity.

import (
	"fmt"
	"time"

	"treesim/internal/fault"
)

// chaosResult is what one -chaos run measured.
type chaosResult struct {
	healthy, degraded, healed batch
	inFlight                  int // deliveries the killed consumers never acked
	redelivery                ledger

	expired, downs, recoveries, resyncs uint64
}

func runChaos(o options) (chaosResult, error) {
	var res chaosResult
	if o.threshold != 2 {
		return res, fmt.Errorf("-chaos requires -threshold 2 (exact mode): recall 1.0 is only an invariant without similarity clustering")
	}
	if o.nodes < 4 {
		return res, fmt.Errorf("-chaos needs at least 4 nodes (have %d): one victim plus a severable survivor link", o.nodes)
	}
	if o.publish < 12 {
		return res, fmt.Errorf("-chaos needs at least 12 documents (have %d) for four publish phases", o.publish)
	}
	f, err := newFederation(o, "-chaos", fault.TransportOptions{})
	if err != nil {
		return res, err
	}
	defer f.close()
	cut := -1
	for ei, e := range f.w.edges {
		if e[0] != victim && e[1] != victim {
			cut = ei
			break
		}
	}
	if cut < 0 {
		return res, fmt.Errorf("no survivor↔survivor edge to sever in this topology")
	}
	edge := f.w.edges[cut]
	ack := func() bool { return true }
	quarter := len(f.w.docs) / 4
	start := time.Now()

	if res.healthy, err = f.publish(quarter, ack, true); err != nil {
		return res, err
	}
	h := res.healthy
	fmt.Printf("# phase 1 (healthy): %d docs, %d/%d deliveries, %d lost, %d extra\n", h.docs, h.got, h.want, h.lost, h.extra)

	if err := f.snapshot(); err != nil {
		return res, err
	}
	for i := 0; i < 2; i++ {
		if err := f.subscribe(f.w.qg.Generate(), victim); err != nil {
			return res, err
		}
	}
	for si, s := range f.subs {
		if s.node == victim && s.live {
			if err := f.unsubscribe(si); err != nil {
				return res, err
			}
			break
		}
	}
	if err := f.advertise(victim); err != nil {
		return res, err
	}

	kill, err := f.publish(quarter, func() bool { return false }, true)
	if err != nil {
		return res, err
	}
	for _, s := range f.subs {
		for _, n := range s.outstanding {
			res.inFlight += n
		}
	}
	fmt.Printf("# consumer kill: %d docs, %d deliveries in flight (leased, never acked), %d lost %d extra\n",
		kill.docs, res.inFlight, kill.lost, kill.extra)

	f.crash()
	for _, t := range f.links[cut] {
		t.Sever(true)
	}
	fmt.Printf("# fault: killed n%02d (snapshot + WAL-tail churn and unacked delivery window), severed n%02d—n%02d\n",
		victim, edge[0], edge[1])
	victimID := f.nodes[victim].ID()
	if err := waitFor("victim adverts to expire on all survivors", 15*time.Second, func() bool {
		for i, n := range f.nodes {
			if !f.up(i) {
				continue
			}
			for _, og := range n.Info().Origins {
				if og.Origin == victimID {
					return false
				}
			}
		}
		return true
	}); err != nil {
		return res, err
	}

	if res.degraded, err = f.publish(quarter, ack, false); err != nil {
		return res, err
	}
	d := res.degraded
	fmt.Printf("# phase 2 (degraded): %d docs, %d/%d deliveries, %d lost to the outage, %d extra\n", d.docs, d.got, d.want, d.lost, d.extra)

	if res.redelivery, err = f.recover(); err != nil {
		return res, err
	}
	for _, t := range f.links[cut] {
		t.Sever(false)
	}
	if err := f.advertise(victim); err != nil {
		return res, err
	}
	fmt.Printf("# heal: n%02d restored from %s (%d live subs), link n%02d—n%02d reopened\n",
		victim, f.dir, f.engines[victim].Live(), edge[0], edge[1])
	if err := waitFor("all links up and all origins routed", 30*time.Second, func() bool {
		for _, n := range f.nodes {
			info := n.Info()
			if len(info.DownPeers) != 0 || len(info.Origins) != o.nodes-1 {
				return false
			}
		}
		return true
	}); err != nil {
		return res, err
	}
	// recover failed the run on any lost or extra redelivery, and every
	// returned delivery repeats one the crashed consumers already saw.
	l := res.redelivery
	fmt.Printf("# redelivery: %d of %d unacked deliveries returned after recovery (0 lost, 0 beyond the window, %d flagged redelivered, %d duplicates for the crashed consumers)\n",
		l.returned, l.owed, l.flagged, l.returned)

	if res.healed, err = f.publish(len(f.w.docs), ack, true); err != nil {
		return res, err
	}
	elapsed := time.Since(start)
	for _, n := range f.nodes {
		info := n.Info()
		res.expired += info.AdvertsExpired
		res.downs += info.LinkDowns
		res.recoveries += info.LinkRecoveries
		res.resyncs += info.Resyncs
	}

	// Phase 3 is verified: recall 1.0 or the run has already failed.
	p := res.healed
	name := fmt.Sprintf("topo=%s/nodes=%d/subs=%d/docs=%d", o.topology, o.nodes, len(f.subs), o.publish)
	fmt.Printf("BenchmarkOverlayChaos/%s \t%d\t%d ns/op\t%.4f recall_healed\t%d lost_healed\t%d extra_healed\t%d lost_outage\t0 lost_unacked\t%d redelivered\t%d duplicates\t%d adverts_expired\t%d link_downs\t%d link_recoveries\t%d resyncs\n",
		name, o.publish, elapsed.Nanoseconds()/int64(o.publish), 1.0, p.lost, p.extra, d.lost, l.flagged, l.returned, res.expired, res.downs, res.recoveries, res.resyncs)
	fmt.Printf("# chaos: phase-3 recall %.4f (%d lost, %d extra of %d expected) after losing broker n%02d, its consumers (%d deliveries in flight), and link n%02d—n%02d mid-run; %d redelivered with 0 lost, %d adverts expired, %d link downs, %d recoveries, %d resyncs\n",
		1.0, p.lost, p.extra, p.want, victim, res.inFlight, edge[0], edge[1], l.flagged, res.expired, res.downs, res.recoveries, res.resyncs)

	if o.check {
		switch {
		case res.inFlight == 0:
			return res, fmt.Errorf("consumer kill left nothing in flight: the workload routed no documents to the victim (rerun with more subs/docs)")
		case d.extra != 0:
			return res, fmt.Errorf("phase 2 (degraded) produced %d phantom deliveries", d.extra)
		case res.expired == 0:
			return res, fmt.Errorf("no adverts expired: soft-state eviction never fired")
		case res.recoveries == 0 || res.resyncs == 0:
			return res, fmt.Errorf("no link recoveries/resyncs recorded (recoveries %d, resyncs %d)", res.recoveries, res.resyncs)
		}
	}
	return res, nil
}
