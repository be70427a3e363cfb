package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"treesim/internal/pattern"
	"treesim/internal/xmltree"
)

// oracle is the ground truth the daemons are held to: want[s][d] says
// whether document d satisfies subscription s under pattern.Matches.
func oracle(docs []document, subs []liveSub) [][]bool {
	want := make([][]bool, len(subs))
	for s := range subs {
		want[s] = make([]bool, len(docs))
		for d := range docs {
			want[s][d] = pattern.Matches(docs[d].tree, subs[s].pat)
		}
	}
	return want
}

// quality compares what was delivered with the oracle, per (document,
// subscription) pair. got[s][d] counts deliveries of document d to
// subscription s.
type quality struct {
	hit, lost, extra, repeated int
}

func compare(want [][]bool, got [][]int) quality {
	var q quality
	for s := range want {
		for d, w := range want[s] {
			n := got[s][d]
			switch {
			case w && n > 0:
				q.hit++
			case w:
				q.lost++
			case n > 0:
				q.extra++
			}
			if n > 1 {
				q.repeated += n - 1
			}
		}
	}
	return q
}

func (q quality) recall() float64 {
	if q.hit+q.lost == 0 {
		return 1
	}
	return float64(q.hit) / float64(q.hit+q.lost)
}

func (q quality) precision() float64 {
	if q.hit+q.extra == 0 {
		return 1
	}
	return float64(q.hit) / float64(q.hit+q.extra)
}

// passBatch is how many documents the verification pass publishes
// between drains: below the 256-entry queue, so nothing is evicted and
// every delivery is seen.
const passBatch = 200

// drainAll empties a subscription's queue, acknowledging as it goes when
// the subscription is at-least-once, and hands every delivery to see.
func (e *env) drainAll(s liveSub, see func(delivery)) (gap uint64, err error) {
	base := e.daemons[s.daemon].base()
	for {
		r, err := e.c1.drain(base, s.id, 0)
		if err != nil {
			return gap, err
		}
		gap += r.Gap
		if len(r.Deliveries) == 0 {
			return gap, nil
		}
		for _, d := range r.Deliveries {
			see(d)
		}
		if s.acked {
			if err := e.c1.ack(base, s.id, r.Cursor); err != nil {
				return gap, err
			}
		}
	}
}

// verify is the post-window pass. It empties every queue, publishes each
// of the D documents once and compares, per (document, subscription),
// what arrived with the oracle; then it checks the delivery ledgers and,
// on acked-durable, kills the daemon and checks what it owes comes back.
// Violations land in res; an error means the pass could not run.
func (e *env) verify(ctx context.Context, ms *metricSet, res *result) error {
	pop := e.subs
	want := oracle(e.in.docs, pop)

	for _, s := range pop {
		gap, err := e.drainAll(s, func(delivery) {
			if !s.acked {
				e.mostOnceSeen++
			}
		})
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		if !s.acked {
			e.mostOnceSeen += gap
		}
	}

	got := make([][]int, len(pop))
	for s := range got {
		got[s] = make([]int, len(e.in.docs))
	}
	// docOf resolves a delivery's broker-local sequence number to a
	// document: directly on the broker published to, by content elsewhere.
	bySeq := make([]map[uint64]int, len(e.daemons))
	for i := range bySeq {
		bySeq[i] = map[uint64]int{}
	}
	byCanon := map[string]int{}
	for i, d := range e.in.docs {
		byCanon[d.canon] = i
	}
	docOf := func(daemon int, seq uint64) (int, error) {
		if i, ok := bySeq[daemon][seq]; ok {
			return i, nil
		}
		if daemon == 0 {
			return -1, nil
		}
		code, body, err := e.c1.do("GET", fmt.Sprintf("%s/doc/%d", e.daemons[daemon].base(), seq), "", nil)
		if err != nil || code != 200 {
			return -1, fmt.Errorf("verify: GET /doc/%d at %s: status %d, %v", seq, e.daemons[daemon].name, code, err)
		}
		t, err := xmltree.ParseString(string(body), xmltree.ParseOptions{})
		if err != nil {
			return -1, fmt.Errorf("verify: document %d at %s: %w", seq, e.daemons[daemon].name, err)
		}
		c, err := canonical(t)
		if err != nil {
			return -1, err
		}
		i, ok := byCanon[c]
		if !ok {
			i = -1
		}
		bySeq[daemon][seq] = i
		return i, nil
	}
	for lo := 0; lo < len(e.in.docs); lo += passBatch {
		for i := lo; i < min(lo+passBatch, len(e.in.docs)); i++ {
			r, err := e.c1.publish(e.pubBase(), e.in.docs[i].xml)
			if err != nil {
				return fmt.Errorf("verify: %w", err)
			}
			bySeq[0][r.Seq] = i
		}
		for si, s := range pop {
			var derr error
			gap, err := e.drainAll(s, func(d delivery) {
				if !s.acked {
					e.mostOnceSeen++
				}
				i, err := docOf(s.daemon, d.Doc)
				if err != nil {
					derr = err
				}
				if i < 0 {
					res.violate(1, "pass: subscription %d at %s got unknown document seq %d", s.id, e.daemons[s.daemon].name, d.Doc)
					return
				}
				got[si][i]++
			})
			if err == nil {
				err = derr
			}
			if err != nil {
				return err
			}
			if gap > 0 {
				e.mostOnceSeen += gap
				res.violate(1, "pass: subscription %d lost %d deliveries to a full queue inside the pass", s.id, gap)
			}
		}
	}
	q := compare(want, got)
	ms.set("route_recall", q.recall(), q.hit+q.lost)
	ms.set("route_precision", q.precision(), q.hit+q.extra)
	if q.repeated > 0 {
		res.violate(q.repeated, "pass: %d deliveries repeated a (document, subscription) pair", q.repeated)
	}
	if e.cfg.workload == wFed && (q.lost > 0 || q.extra > 0) {
		// Exact mode: communities are single subscriptions, so anything
		// but the oracle's answer is a routing error.
		res.violate(q.lost+q.extra, "pass: exact-mode routing differs from the oracle: %d lost, %d extra", q.lost, q.extra)
	}

	if e.cfg.workload != wChurn {
		if err := e.checkConservation(res); err != nil {
			return err
		}
	}
	if e.cfg.workload == wAcked {
		return e.crashAndRecover(ctx, ms, res)
	}
	return nil
}

// subLedger is a row of GET /introspect/subscriptions.
type subLedger struct {
	ID        uint64 `json:"id"`
	Mode      string `json:"mode"`
	Pending   uint64 `json:"pending"`
	InFlight  uint64 `json:"in_flight"`
	Delivered uint64 `json:"delivered"`
	Acked     uint64 `json:"acked"`
	Shed      uint64 `json:"shed"`
}

func (e *env) ledgers(daemon int) ([]subLedger, error) {
	var out struct {
		Subscriptions []subLedger `json:"subscriptions"`
	}
	return out.Subscriptions, e.c1.getJSON(e.daemons[daemon].base()+"/introspect/subscriptions", &out)
}

// checkConservation holds the daemons to their two ledgers once every
// queue is empty: an at-least-once subscription's deliveries are all
// acked, shed, pending or in flight, and every at-most-once delivery
// over the whole run was either drained or reported as a gap.
func (e *env) checkConservation(res *result) error {
	var delivered, ackedDelivered uint64
	for i, d := range e.daemons {
		st, err := e.c1.stats(d.base())
		if err != nil {
			return err
		}
		delivered += st.Deliveries
		rows, err := e.ledgers(i)
		if err != nil {
			return err
		}
		for _, r := range rows {
			if r.Mode != "at-least-once" {
				continue
			}
			ackedDelivered += r.Delivered
			if r.Delivered != r.Acked+r.Shed+r.Pending+r.InFlight {
				res.violate(1, "ledger: subscription %d delivered %d != acked %d + shed %d + pending %d + in-flight %d",
					r.ID, r.Delivered, r.Acked, r.Shed, r.Pending, r.InFlight)
			}
		}
	}
	if most := delivered - ackedDelivered; most != e.mostOnceSeen {
		res.violate(1, "ledger: at-most-once deliveries %d != drained + gap %d over the run", most, e.mostOnceSeen)
	}
	return nil
}

// owedBatch is how many documents are left unacknowledged across the
// crash.
const owedBatch = 50

// crashAndRecover leaves a batch drained but unacknowledged, SIGKILLs the
// daemon, restarts it on the same directory and checks that the
// subscriptions are back and every owed delivery is handed out again,
// flagged as a redelivery.
func (e *env) crashAndRecover(ctx context.Context, ms *metricSet, res *result) error {
	base := e.pubBase()
	for i := 0; i < min(owedBatch, len(e.in.docs)); i++ {
		if _, err := e.c1.publish(base, e.in.docs[i].xml); err != nil {
			return fmt.Errorf("recover: %w", err)
		}
	}
	owed := map[uint64]map[uint64]bool{} // subscription → cursors handed out, unacked
	for _, s := range e.subs {
		if !s.acked {
			continue
		}
		r, err := e.c1.drain(base, s.id, 0)
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		for _, d := range r.Deliveries {
			if owed[s.id] == nil {
				owed[s.id] = map[uint64]bool{}
			}
			owed[s.id][d.Cursor] = true
		}
	}
	if len(owed) == 0 {
		return fmt.Errorf("recover: nothing owed after %d publishes; the redelivery check would be vacuous", owedBatch)
	}

	old := e.daemons[0]
	killed := time.Now()
	old.kill()
	e.c1.close() // its keep-alive connection died with the process
	d, _, err := startDaemon(ctx, e.cfg.bin, old.name, old.addr, old.extra, e.c1)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	e.daemons[0] = d
	st, err := e.c1.stats(base)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	ms.set("recover_s", time.Since(killed).Seconds(), 1)
	if st.Live != len(e.subs) {
		res.violate(1, "recover: %d subscriptions after restart, %d before", st.Live, len(e.subs))
	}
	if e.cfg.trace {
		if m, err := e.c1.metrics(base); err == nil {
			ms.set("persist.replay_records", m.sum["treesim_wal_replayed_records_total"], 0)
		}
	}
	for _, s := range e.subs {
		want := owed[s.id]
		if len(want) == 0 {
			continue
		}
		_, err := e.drainAll(s, func(d delivery) {
			if want[d.Cursor] {
				if !d.Redelivered {
					res.violate(1, "recover: subscription %d cursor %d came back without the redelivered flag", s.id, d.Cursor)
				}
				delete(want, d.Cursor)
			}
		})
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		if len(want) > 0 {
			res.violate(1, "recover: subscription %d lost %d owed deliveries across the crash", s.id, len(want))
		}
	}
	return nil
}

// violate records n verification violations of one kind; the first few
// messages are kept verbatim, every violation is counted.
func (r *result) violate(n int, format string, args ...any) {
	r.ViolationCount += n
	if len(r.Violations) < 10 {
		r.Violations = append(r.Violations, strings.TrimSpace(fmt.Sprintf(format, args...)))
	}
}
