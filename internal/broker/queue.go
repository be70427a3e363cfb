package broker

import (
	"sync"
	"time"
)

// queue is one consumer's delivery buffer, in one of two modes fixed at
// subscribe time:
//
//   - At-most-once (the default): a bounded ring. Pushing to a full
//     queue evicts the oldest delivery (live feeds prefer fresh
//     documents; the eviction is counted by the engine as a drop and
//     surfaces to the consumer as the drain's gap marker).
//   - At-least-once: a cursor-ordered log with explicit acknowledgment.
//     Every accepted delivery is assigned the next cursor; draining
//     hands out redeliverable entries in cursor order and puts them
//     in flight under a lease; ack(upto) discharges the prefix and
//     advances the committed cursor; a lapsed lease returns the entry
//     to redeliverable. Capacity overflow sheds the oldest entry —
//     counted, never silent — so one dead consumer cannot pin the
//     broker's memory forever.
//
// Draining long-polls in both modes: an empty drain waits for a push,
// the queue closing, or the deadline. The wake channel implements the
// wait: it is closed (waking every waiter) and replaced whenever a
// redeliverable delivery appears or the queue closes.
type queue struct {
	mu      sync.Mutex
	mode    DeliveryMode
	buf     []Delivery
	head, n int
	closed  bool
	wake    chan struct{}

	// At-most-once loss accounting: gap counts evictions since the last
	// drain observed them (reported and reset by drain — the "you
	// missed N" marker); dropped is the lifetime total.
	gap     uint64
	dropped uint64

	// At-least-once cursor log. entries is cursor-ordered; lastCursor
	// the highest cursor assigned; committed the highest acked cursor;
	// inflight the number of entries currently under a consumer lease.
	capacity   int
	entries    []ackEntry
	lastCursor uint64
	committed  uint64
	inflight   int
	stats      ackStats
}

// ackEntry is one at-least-once delivery awaiting acknowledgment. A
// zero deadline means redeliverable; a set deadline means a consumer
// holds the entry under a lease until then.
type ackEntry struct {
	cursor   uint64
	doc      uint64
	comm     int
	attempts int
	deadline time.Time
}

// ackStats is the per-subscription conservation ledger: every entry
// the log accepted is eventually acked, still queued, or shed —
// delivered == acked + len(entries) + shed at every quiescent point.
type ackStats struct {
	delivered   uint64 // entries accepted into the log
	acked       uint64 // entries discharged by ack
	shed        uint64 // entries evicted by capacity overflow
	redelivered uint64 // hand-outs of an entry already handed out before
	expired     uint64 // lease lapses (inflight → redeliverable flips)
}

func newQueue(capacity int) *queue {
	return &queue{buf: make([]Delivery, capacity), wake: make(chan struct{})}
}

// newAckQueue builds an at-least-once queue. The log starts empty and
// grows to capacity; unlike the ring there is no fixed backing array,
// since a well-behaved consumer keeps it near-empty.
func newAckQueue(capacity int) *queue {
	return &queue{mode: AtLeastOnce, capacity: capacity, wake: make(chan struct{})}
}

// wakeLocked wakes every parked drainer. Caller holds q.mu.
func (q *queue) wakeLocked() {
	close(q.wake)
	q.wake = make(chan struct{})
}

// push enqueues d (at-most-once mode), evicting the oldest entry when
// full. enqueued is false only when the queue is closed; evicted
// reports that an older delivery was dropped to make room (the engine
// counts it — the loss belongs to an earlier document, the new
// delivery lands).
func (q *queue) push(d Delivery) (enqueued, evicted bool) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false, false
	}
	// Ring indices wrap with a compare, not a division: this runs once
	// per delivery, ~80 times per publish.
	if q.n == len(q.buf) {
		if q.head++; q.head == len(q.buf) {
			q.head = 0
		}
		q.n--
		q.gap++
		q.dropped++
		evicted = true
	}
	tail := q.head + q.n
	if tail >= len(q.buf) {
		tail -= len(q.buf)
	}
	q.buf[tail] = d
	q.n++
	// Drainers only wait after observing an empty queue, so waking is
	// needed solely on the empty→non-empty transition — pushes to an
	// already non-empty queue skip the channel churn.
	if q.n == 1 {
		q.wakeLocked()
	}
	q.mu.Unlock()
	return true, evicted
}

// pushAcked appends one at-least-once delivery and assigns its cursor.
// A full log sheds its oldest entry first (shed/shedDoc report it so
// the engine can unpin the document and count the loss). enqueued is
// false only when the queue is closed.
func (q *queue) pushAcked(doc uint64, comm int) (cursor, shedDoc uint64, shed, enqueued bool) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return 0, 0, false, false
	}
	if len(q.entries) >= q.capacity {
		e := q.entries[0]
		q.entries = q.entries[:copy(q.entries, q.entries[1:])]
		if !e.deadline.IsZero() {
			q.inflight--
		}
		q.stats.shed++
		shedDoc, shed = e.doc, true
	}
	q.lastCursor++
	cursor = q.lastCursor
	q.entries = append(q.entries, ackEntry{cursor: cursor, doc: doc, comm: comm})
	q.stats.delivered++
	if len(q.entries)-q.inflight == 1 {
		q.wakeLocked()
	}
	q.mu.Unlock()
	return cursor, shedDoc, shed, true
}

// restore re-inserts a delivery during crash recovery (snapshot load or
// OpDeliver replay). Cursors are assigned monotonically and never
// reused, so an entry at or below the log's high-water mark — or below
// the committed cursor — was already seen (snapshot/WAL overlap) and is
// skipped, making replay exactly idempotent. Returns whether the entry
// was inserted and, like pushAcked, any shed overflow victim.
func (q *queue) restore(cursor, doc uint64, comm int, attempts int) (shedDoc uint64, shed, inserted bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || cursor <= q.lastCursor || cursor <= q.committed {
		return 0, false, false
	}
	if len(q.entries) >= q.capacity {
		e := q.entries[0]
		q.entries = q.entries[:copy(q.entries, q.entries[1:])]
		if !e.deadline.IsZero() {
			q.inflight--
		}
		q.stats.shed++
		shedDoc, shed = e.doc, true
	}
	q.lastCursor = cursor
	q.entries = append(q.entries, ackEntry{cursor: cursor, doc: doc, comm: comm, attempts: attempts})
	q.stats.delivered++
	if len(q.entries)-q.inflight == 1 {
		q.wakeLocked()
	}
	return shedDoc, shed, true
}

// markDrained replays an OpDrained record: entries at or below upto
// were handed to a consumer before the crash, so their next hand-out is
// a redelivery. Idempotent (attempts only ratchets up to 1).
func (q *queue) markDrained(upto uint64) {
	q.mu.Lock()
	for i := range q.entries {
		e := &q.entries[i]
		if e.cursor > upto {
			break
		}
		if e.attempts == 0 {
			e.attempts = 1
		}
	}
	q.mu.Unlock()
}

// drain removes up to max deliveries (at-most-once mode). If the queue
// is empty and open it waits up to the given duration for the first
// delivery. gap is the number of deliveries evicted since the last
// drain observed them — the explicit "you missed N" marker the
// drop-oldest policy owes the consumer.
func (q *queue) drain(max int, wait time.Duration) (out []Delivery, gap uint64) {
	if max <= 0 {
		max = 1 << 30
	}
	deadline := time.Now().Add(wait)
	for {
		q.mu.Lock()
		gap += q.gap
		q.gap = 0
		if q.n > 0 {
			take := q.n
			if take > max {
				take = max
			}
			out = make([]Delivery, take)
			for i := 0; i < take; i++ {
				out[i] = q.buf[(q.head+i)%len(q.buf)]
			}
			q.head = (q.head + take) % len(q.buf)
			q.n -= take
			q.mu.Unlock()
			return out, gap
		}
		if q.closed {
			q.mu.Unlock()
			return nil, gap
		}
		w := q.wake
		q.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, gap
		}
		t := time.NewTimer(remain)
		select {
		case <-w:
			t.Stop()
		case <-t.C:
			return nil, gap
		}
	}
}

// drainAcked hands out up to max redeliverable entries in cursor order,
// putting each in flight under a lease expiring lease from now. Lapsed
// leases are reclaimed inline first, so a reconnecting consumer resumes
// its window without waiting for the sweeper. redelivered counts batch
// entries handed out before (lease lapse, crash recovery, or an
// earlier drain the consumer never acked).
func (q *queue) drainAcked(max int, wait, lease time.Duration, c *counters) (out []Delivery, committed uint64, redelivered int) {
	if max <= 0 {
		max = 1 << 30
	}
	deadline := time.Now().Add(wait)
	for {
		now := time.Now()
		q.mu.Lock()
		if n := q.expireLocked(now); n > 0 && c != nil {
			c.leaseExpiries.Add(uint64(n))
		}
		if avail := len(q.entries) - q.inflight; avail > 0 {
			take := avail
			if take > max {
				take = max
			}
			out = make([]Delivery, 0, take)
			exp := now.Add(lease)
			for i := range q.entries {
				if len(out) == take {
					break
				}
				e := &q.entries[i]
				if !e.deadline.IsZero() {
					continue
				}
				e.attempts++
				e.deadline = exp
				q.inflight++
				d := Delivery{Doc: e.doc, Community: e.comm, Cursor: e.cursor}
				if e.attempts > 1 {
					d.Redelivered = true
					redelivered++
					q.stats.redelivered++
				}
				out = append(out, d)
			}
			committed = q.committed
			q.mu.Unlock()
			return out, committed, redelivered
		}
		committed = q.committed
		if q.closed {
			q.mu.Unlock()
			return nil, committed, 0
		}
		w := q.wake
		q.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, committed, 0
		}
		t := time.NewTimer(remain)
		select {
		case <-w:
			t.Stop()
		case <-t.C:
			return nil, committed, 0
		}
	}
}

// ack discharges every entry with cursor ≤ upto and advances the
// committed cursor. strict rejects a cursor the log never assigned
// (the live-API contract: you can only ack what you were handed);
// replay uses lenient mode, since a journal-error gap can legitimately
// leave an OpAck whose OpDeliver never made the WAL. advanced reports
// whether committed moved (re-acks are no-ops and are not re-journaled).
// unpin lists the discharged entries' document sequences.
func (q *queue) ack(upto uint64, strict bool) (acked int, advanced bool, unpin []uint64, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if strict && upto > q.lastCursor {
		return 0, false, nil, ErrBadCursor
	}
	i := 0
	for i < len(q.entries) && q.entries[i].cursor <= upto {
		e := q.entries[i]
		if !e.deadline.IsZero() {
			q.inflight--
		}
		unpin = append(unpin, e.doc)
		i++
	}
	if i > 0 {
		q.entries = q.entries[:copy(q.entries, q.entries[i:])]
		acked = i
		q.stats.acked += uint64(i)
	}
	if upto > q.committed {
		q.committed = upto
		advanced = true
	}
	if upto > q.lastCursor {
		q.lastCursor = upto // lenient replay: never re-issue an acked cursor
	}
	return acked, advanced, unpin, nil
}

// expireLocked flips every lapsed lease back to redeliverable and wakes
// parked drainers. Caller holds q.mu.
func (q *queue) expireLocked(now time.Time) int {
	if q.inflight == 0 {
		return 0
	}
	n := 0
	for i := range q.entries {
		e := &q.entries[i]
		if !e.deadline.IsZero() && !e.deadline.After(now) {
			e.deadline = time.Time{}
			q.inflight--
			n++
		}
	}
	if n > 0 {
		q.stats.expired += uint64(n)
		q.wakeLocked()
	}
	return n
}

// expire is the lease sweeper's entry point.
func (q *queue) expire(now time.Time) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.expireLocked(now)
}

// len is the number of undischarged deliveries: ring occupancy
// (at-most-once) or queued-plus-inflight log entries (at-least-once).
func (q *queue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.mode == AtLeastOnce {
		return len(q.entries)
	}
	return q.n
}

// info snapshots the queue for introspection.
func (q *queue) info() (mode DeliveryMode, pending, inflight int, committed, lastCursor uint64, st ackStats, dropped uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.mode == AtLeastOnce {
		return q.mode, len(q.entries) - q.inflight, q.inflight, q.committed, q.lastCursor, q.stats, q.dropped
	}
	return q.mode, q.n, 0, 0, 0, q.stats, q.dropped
}

// snapshotEntries copies the cursor log for a State cut (at-least-once
// queues only; lease deadlines are deliberately excluded — leases do
// not survive a restart, every recovered entry is redeliverable).
func (q *queue) snapshotEntries() (committed, lastCursor uint64, entries []QueuedDelivery) {
	q.mu.Lock()
	defer q.mu.Unlock()
	entries = make([]QueuedDelivery, len(q.entries))
	for i, e := range q.entries {
		entries[i] = QueuedDelivery{Cursor: e.cursor, Doc: e.doc, Community: e.comm, Attempts: e.attempts}
	}
	return q.committed, q.lastCursor, entries
}

// close wakes all waiters; queued deliveries remain drainable. It
// returns the document sequences of remaining at-least-once entries so
// the engine can release their retention pins — an unsubscribed or
// closed consumer no longer holds the delivery contract.
func (q *queue) close() (unpin []uint64) {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.wake)
		for _, e := range q.entries {
			unpin = append(unpin, e.doc)
		}
	}
	q.mu.Unlock()
	return unpin
}
