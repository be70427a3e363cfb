package broker

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// queue is one at-least-once subscription's delivery state and nothing
// else (an at-most-once subscription is a cursor into its community's
// log, commlog.go): a cursor-ordered log with explicit acknowledgment.
// Every accepted delivery is assigned the next cursor; draining hands
// out redeliverable entries in cursor order and puts them in flight
// under a lease; ack(upto) discharges the prefix and advances the
// committed cursor; a lapsed lease returns the entry to redeliverable.
// Capacity overflow sheds the oldest entry — counted, never silent — so
// one dead consumer cannot pin the broker's memory forever.
//
// Draining long-polls: an empty drain waits for a redeliverable entry,
// the queue closing, or the deadline. It parks as on a community log
// (commlog.go): on the wake channel, which exists only while a drain is
// parked, and which a redeliverable delivery or the close closes.
type queue struct {
	mu     sync.Mutex
	closed bool
	wake   chan struct{} // non-nil only while a drain is parked

	// entries is cursor-ordered; lastCursor the highest cursor assigned;
	// committed the highest acked cursor; inflight the number of entries
	// currently under a consumer lease. The log starts empty and grows to
	// capacity: a well-behaved consumer keeps it near-empty. floor is the
	// lastCursor of the snapshot the queue was restored from: the fate of
	// every cursor at or below it is in that snapshot.
	capacity   int
	entries    []ackEntry
	lastCursor uint64
	committed  uint64
	floor      uint64
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

func newAckQueue(capacity int) *queue {
	return &queue{capacity: capacity}
}

// wakeLocked wakes every parked drainer. Caller holds q.mu.
func (q *queue) wakeLocked() {
	if q.wake != nil {
		close(q.wake)
		q.wake = nil
	}
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

// restore re-inserts a delivery during crash recovery (OpDeliver
// replay) in cursor order: concurrent publishes journal their deliveries
// in the order their appends complete, so a record can carry a lower
// cursor than one replayed before it. A cursor at or below the floor or
// the committed cursor, or one already held, was already seen
// (snapshot/WAL overlap, an ack, a duplicate) and is skipped, making
// replay idempotent. A log over capacity sheds its lowest cursor, as the
// live log did when it assigned the higher ones — possibly the entry
// just restored, which then counts as not inserted. Returns whether the
// entry was inserted and, like pushAcked, any shed overflow victim.
func (q *queue) restore(cursor, doc uint64, comm int, attempts int) (shedDoc uint64, shed, inserted bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	i, held := slices.BinarySearchFunc(q.entries, cursor, func(e ackEntry, c uint64) int { return cmp.Compare(e.cursor, c) })
	if q.closed || held || cursor <= q.floor || cursor <= q.committed {
		return 0, false, false
	}
	q.entries = slices.Insert(q.entries, i, ackEntry{cursor: cursor, doc: doc, comm: comm, attempts: attempts})
	q.lastCursor = max(q.lastCursor, cursor)
	q.stats.delivered++
	if len(q.entries) > q.capacity {
		e := q.entries[0]
		q.entries = q.entries[:copy(q.entries, q.entries[1:])]
		if !e.deadline.IsZero() {
			q.inflight--
		}
		q.stats.shed++
		if i == 0 {
			return 0, false, false
		}
		shedDoc, shed = e.doc, true
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

// drainAcked hands out up to max (at least 1) redeliverable entries in
// cursor order, putting each in flight under a lease expiring lease from
// now. Lapsed leases are reclaimed inline first, so a reconnecting
// consumer resumes its window without waiting for the sweeper.
// redelivered counts batch entries handed out before (lease lapse, crash
// recovery, or an earlier drain the consumer never acked).
func (q *queue) drainAcked(max int, wait, lease time.Duration, c *counters) (out []Delivery, committed uint64, redelivered int) {
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
		if q.wake == nil {
			q.wake = make(chan struct{})
		}
		w := q.wake
		q.mu.Unlock()
		if !parkUntil(w, deadline) {
			return nil, committed, 0
		}
	}
}

// parkUntil parks a long-polling drain until w is closed; false means
// the deadline came first.
func parkUntil(w <-chan struct{}, deadline time.Time) bool {
	remain := time.Until(deadline)
	if remain <= 0 {
		return false
	}
	t := time.NewTimer(remain)
	defer t.Stop()
	select {
	case <-w:
		return true
	case <-t.C:
		return false
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

// len is the number of undischarged deliveries, queued plus in flight.
func (q *queue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.entries)
}

// info snapshots the queue for introspection.
func (q *queue) info() (pending, inflight int, committed, lastCursor uint64, st ackStats) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.entries) - q.inflight, q.inflight, q.committed, q.lastCursor, q.stats
}

// snapshotEntries copies the cursor log for a State cut (lease
// deadlines are deliberately excluded — leases do not survive a
// restart, every recovered entry is redeliverable).
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
// returns the document sequences of the remaining entries so the
// engine can release their retention pins — an unsubscribed or
// closed consumer no longer holds the delivery contract.
func (q *queue) close() (unpin []uint64) {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		q.wakeLocked()
		for _, e := range q.entries {
			unpin = append(unpin, e.doc)
		}
	}
	q.mu.Unlock()
	return unpin
}
