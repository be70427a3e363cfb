package fault_test

import (
	"fmt"
	"testing"

	"treesim/internal/broker"
	"treesim/internal/fault"
	"treesim/internal/overlay"
	"treesim/internal/xmltree"
)

func newNode(t *testing.T, id string) *overlay.Node {
	t.Helper()
	eng := broker.New(broker.Config{
		Threshold: 2, // exact mode: singleton communities, no false positives
	})
	t.Cleanup(func() { eng.Close() })
	n := overlay.New(eng, overlay.Config{ID: id, AdvertPolicy: broker.Staleness{MaxStale: 1}})
	t.Cleanup(n.Close)
	return n
}

func parseDoc(t *testing.T, s string) *xmltree.Tree {
	t.Helper()
	tree, err := xmltree.ParseString(s, xmltree.ParseOptions{})
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return tree
}

// connectFaulty links a and b through faulty transports in both
// directions and returns both wrappers for flushing.
func connectFaulty(t *testing.T, a, b *overlay.Node, seed int64, opts fault.TransportOptions) (ab, ba *fault.Transport) {
	t.Helper()
	ab = fault.NewTransport(overlay.Inproc{Peer: b}, seed, opts)
	ba = fault.NewTransport(overlay.Inproc{Peer: a}, seed+1, opts)
	if err := overlay.ConnectTransports(a, b, ab, ba); err != nil {
		t.Fatalf("connect %s-%s: %v", a.ID(), b.ID(), err)
	}
	return ab, ba
}

// TestSoakDuplicateReorder runs a 3-node line whose links duplicate and
// reorder aggressively. The overlay's seen-set and advert versioning
// must absorb all of it: every published document reaches the acked
// subscriber exactly once (no unflagged duplicates), and adverts
// converge so recall stays 1.0.
func TestSoakDuplicateReorder(t *testing.T) {
	const docs = 60
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			a := newNode(t, "a")
			b := newNode(t, "b")
			c := newNode(t, "c")
			opts := fault.TransportOptions{Duplicate: 0.4, Reorder: 0.4}
			links := make([]*fault.Transport, 0, 4)
			ab, ba := connectFaulty(t, a, b, seed*100, opts)
			bc, cb := connectFaulty(t, b, c, seed*100+2, opts)
			links = append(links, ab, ba, bc, cb)
			flush := func() {
				// Two passes: a flush can release a held message whose
				// synchronous fan-out gets held on another link.
				for i := 0; i < 2; i++ {
					for _, l := range links {
						if err := l.Flush(); err != nil {
							t.Fatalf("flush: %v", err)
						}
					}
				}
			}

			// An acked subscriber at c, a plain one at b: both must see
			// every matching document exactly once.
			subC, err := c.Engine().SubscribeOpts("/x/y", broker.SubscribeOptions{Mode: broker.AtLeastOnce})
			if err != nil {
				t.Fatalf("subscribe c: %v", err)
			}
			subB, err := b.Engine().Subscribe("//y")
			if err != nil {
				t.Fatalf("subscribe b: %v", err)
			}
			flush() // adverts may be held; release before publishing

			for i := 0; i < docs; i++ {
				doc := parseDoc(t, fmt.Sprintf("<x><y/><m%d/></x>", i))
				if _, _, err := a.Publish(doc); err != nil {
					t.Fatalf("publish %d: %v", i, err)
				}
			}
			flush()

			// c (at-least-once): drain everything, ack, and verify each
			// document arrived exactly once with no redelivery flags —
			// wire-level duplicates must die in the seen-set, never
			// reaching the ack log.
			seen := map[string]int{}
			for {
				r, err := c.Engine().DrainBatch(subC, 0, 0)
				if err != nil {
					t.Fatalf("drain c: %v", err)
				}
				if len(r.Deliveries) == 0 {
					break
				}
				for _, d := range r.Deliveries {
					if d.Redelivered {
						t.Errorf("delivery cursor %d flagged redelivered with no crash or lease lapse", d.Cursor)
					}
					tree := c.Engine().Document(d.Doc)
					if tree == nil {
						t.Fatalf("doc %d not retrievable", d.Doc)
					}
					seen[tree.Clone().Canonicalize().String()]++
				}
				if _, err := c.Engine().Ack(subC, r.Deliveries[len(r.Deliveries)-1].Cursor); err != nil {
					t.Fatalf("ack c: %v", err)
				}
			}
			if len(seen) != docs {
				t.Fatalf("c saw %d distinct documents, want %d (recall broken)", len(seen), docs)
			}
			for k, n := range seen {
				if n != 1 {
					t.Errorf("c saw %q %d times, want exactly once", k, n)
				}
			}

			// b (at-most-once): same exactness.
			ds, err := b.Engine().Drain(subB, 0, 0)
			if err != nil {
				t.Fatalf("drain b: %v", err)
			}
			if len(ds) != docs {
				t.Fatalf("b drained %d deliveries, want %d", len(ds), docs)
			}

			// Advert convergence: every node's routing table must know
			// both other origins despite duplicated/reordered adverts.
			for _, n := range []*overlay.Node{a, b, c} {
				info := n.Info()
				if len(info.Origins) != 2 {
					t.Errorf("%s routing table has %d origins, want 2", n.ID(), len(info.Origins))
				}
			}

			// The schedule must actually have misbehaved, or the soak
			// proved nothing.
			var dups, reorders uint64
			for _, l := range links {
				_, d, r := l.Stats()
				dups += d
				reorders += r
			}
			if dups == 0 || reorders == 0 {
				t.Fatalf("fault schedule idle: dups=%d reorders=%d", dups, reorders)
			}
		})
	}
}

// TestTransportDeterminism: the same seed yields the same fault
// schedule, message for message.
func TestTransportDeterminism(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		a := newNode(t, "da")
		b := newNode(t, "db")
		ab, ba := connectFaulty(t, a, b, 42, fault.TransportOptions{Drop: 0.2, Duplicate: 0.3, Reorder: 0.3})
		if _, err := b.Engine().Subscribe("//y"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if _, _, err := a.Publish(parseDoc(t, fmt.Sprintf("<x><y/><m%d/></x>", i))); err != nil {
				t.Fatal(err)
			}
		}
		ab.Flush()
		ba.Flush()
		d1, u1, r1 := ab.Stats()
		return d1, u1, r1
	}
	d1, u1, r1 := run()
	d2, u2, r2 := run()
	if d1 != d2 || u1 != u2 || r1 != r2 {
		t.Fatalf("schedules diverged: %d/%d/%d vs %d/%d/%d", d1, u1, r1, d2, u2, r2)
	}
	if d1 == 0 && u1 == 0 && r1 == 0 {
		t.Fatal("schedule idle")
	}
}
