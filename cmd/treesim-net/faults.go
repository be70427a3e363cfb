package main

// Faults mode (-faults): the seeded crash-schedule checker. Where -chaos
// plays one fixed list of the federation's steps (chaos.go), -faults
// draws a randomized interleaving of them from -seed — publish and
// verify, churn, snapshot, disk fault, crash, recover — over links that
// duplicate, reorder and delay every message (fault.Transport), and
// checks the federation's contract (federation.go) after every step.
//
// Any failure prints the seed. Rerunning with -faults -seed N replays the
// crash plan, the publish stream and the per-link seeds, not the link
// draws: which message a link duplicates or reorders follows message
// timing, until the federation runs on one clock. Drops are deliberately
// excluded here: with synchronous gossip and explicit advertisement
// rounds, a dropped message makes recall 1.0 unsound to assert. The
// drop fault is exercised by the fault package's own tests.

import (
	"fmt"
	"math/rand"
	"time"

	"treesim/internal/fault"
)

func runFaults(o options) (tally, error) {
	if o.threshold != 2 {
		return tally{}, fmt.Errorf("-faults requires -threshold 2 (exact mode): recall 1.0 is only an invariant without similarity clustering")
	}
	if o.nodes < 3 {
		return tally{}, fmt.Errorf("-faults needs at least 3 nodes (have %d)", o.nodes)
	}
	const batch = 8
	const rounds = 30
	if o.publish < rounds*batch+batch {
		return tally{}, fmt.Errorf("-faults needs at least %d documents (have %d)", rounds*batch+batch, o.publish)
	}
	f, err := newFederation(o, "-faults", fault.TransportOptions{Duplicate: 0.35, Reorder: 0.35, DelayMax: 200 * time.Microsecond})
	if err != nil {
		return tally{}, err
	}
	defer f.close()
	rng := rand.New(rand.NewSource(o.seed + 7))

	publish := func() error {
		_, err := f.publish(batch, func() bool { return rng.Float64() < 0.6 }, true)
		return err
	}
	churn := func() error {
		if rng.Intn(2) == 0 {
			n := rng.Intn(o.nodes)
			if !f.up(n) {
				n = (victim + 1) % o.nodes
			}
			if err := f.subscribe(f.w.qg.Generate(), n); err != nil {
				return err
			}
			return f.advertise(n)
		}
		var live []int
		for si, s := range f.subs {
			if s.live && f.up(s.node) {
				live = append(live, si)
			}
		}
		if len(live) == 0 {
			return nil
		}
		si := live[rng.Intn(len(live))]
		if err := f.unsubscribe(si); err != nil {
			return err
		}
		return f.advertise(f.subs[si].node)
	}
	injectFault := func() error {
		point := []string{fault.PointWALWrite, fault.PointWALSync}[rng.Intn(2)]
		return f.injectFault(point, []fault.Mode{fault.Fail, fault.Short, fault.NoSpace}[rng.Intn(3)])
	}
	// Routing must settle around the dead node, and back onto the
	// recovered one, before exactness is asserted again.
	crash := func() error {
		f.crash()
		return f.waitRouted("post-crash")
	}
	recover := func() error {
		if _, err := f.recover(); err != nil {
			return err
		}
		return f.waitRouted("post-recovery")
	}

	start := time.Now()
	for round := 0; round < rounds; round++ {
		r := rng.Intn(100)
		var err error
		switch {
		case r < 40:
			err = publish()
		case r < 60:
			err = churn()
		case r < 70:
			if f.victimUp && !f.faulted {
				err = f.snapshot()
			} else {
				err = publish()
			}
		case r < 80:
			switch {
			case f.victimUp && !f.faulted:
				err = injectFault()
			case f.victimUp:
				err = crash()
			default:
				err = recover()
			}
		case r < 90:
			if f.victimUp {
				err = crash()
			} else {
				err = recover()
			}
		default:
			if !f.victimUp {
				err = recover()
			} else {
				err = publish()
			}
		}
		if err != nil {
			return f.tally, err
		}
	}
	// Every schedule must exercise the whole contract at least once,
	// whatever the dice said.
	if !f.victimUp {
		if err := recover(); err != nil {
			return f.tally, err
		}
	}
	if f.faults == 0 {
		if err := injectFault(); err != nil {
			return f.tally, err
		}
	}
	if f.faulted || f.crashes == 0 {
		if err := crash(); err != nil {
			return f.tally, err
		}
		if err := recover(); err != nil {
			return f.tally, err
		}
	}
	// Final verified batch on the healed federation.
	if err := publish(); err != nil {
		return f.tally, err
	}
	elapsed := time.Since(start)

	var dups, reorders uint64
	for _, tr := range f.wired {
		_, d, r := tr.Stats()
		dups += d
		reorders += r
	}
	if dups == 0 || reorders == 0 {
		return f.tally, f.failf("fault schedule idle: %d duplicates, %d reorders injected", dups, reorders)
	}

	t := f.tally
	name := fmt.Sprintf("topo=%s/nodes=%d/subs=%d/seed=%d", o.topology, o.nodes, len(f.subs), o.seed)
	fmt.Printf("BenchmarkOverlayFaults/%s \t%d\t%d ns/op\t%d deliveries\t%d faults\t%d crashes\t%d recoveries\t%d redelivered\t%d wire_dups\t%d wire_reorders\t%.4f recall\n",
		name, t.published, elapsed.Nanoseconds()/int64(t.published), t.delivered, t.faults, t.crashes, t.recoveries, t.redelivered, dups, reorders, 1.0)
	fmt.Printf("# faults: seed %d ran %d rounds clean — %d docs, %d deliveries, %d disk faults, %d crashes, %d recoveries, %d redelivered; links injected %d duplicates and %d reorders\n",
		o.seed, rounds, t.published, t.delivered, t.faults, t.crashes, t.recoveries, t.redelivered, dups, reorders)
	fmt.Printf("# rerun the crash plan and publish stream (link draws follow timing): treesim-net -faults -seed %d -nodes %d -topology %s -subs %d\n",
		o.seed, o.nodes, o.topology, o.subs)
	return t, nil
}
