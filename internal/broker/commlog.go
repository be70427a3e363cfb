package broker

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// commLog is one community's delivery log, read by every member of both
// contracts through its own cursor: a matching publish appends ONE entry,
// whatever the member count. It is part of the community's record in the
// routing table (routeGroup.log), kept and dropped with its forest handle.
//
// Positions count appends; [head, tail) is held, in a ring that doubles
// as needed. Every slot counts the at-most-once members whose cursor
// stands on it, so an append knows in O(1) how many it pushed past
// capacity (Config.QueueCapacity), and the count moves on with them: a
// member at cursor c sees what a private drop-oldest ring would hold,
// tail-c deliveries and, at capacity, the oldest lost to the next
// publish. An at-least-once member holds up to 4 × capacity, from its
// oldest unacked delivery on and what it carries; marks counts those
// members by where that span starts, so an append finds the ones it
// pushes past the bound in O(1) too, and each sheds its oldest when it
// next looks (settleLocked). The log holds the at-most-once window and
// back to the lowest mark, and pins those entries in retention once.
//
// A subscription a re-clustering moves carries what it holds to the new
// log's tail: at least once, every unacked delivery with its cursor and
// lease; at most once, up to one capacity pending, so it can hold one
// capacity from before the move plus one since. A carry-over overflows
// only by being moved again undrained; the oldest go, counted at the move
// (the engine's dropped counter, the subscription's own, its next drain's
// gap) and charged to no publish.
type commLog struct {
	mu         sync.Mutex
	capacity   int
	docs       *docRing
	buf        []logSlot // position p lives in buf[p%len(buf)]
	head, tail uint64
	atTail     int32 // at-most-once members that have read everything
	// alo at-least-once members are marked at p in marks[p mod len(marks)]
	// (nil until one joins); low is the lowest mark (tail: none), and the
	// entries from pinLow on are pinned.
	alo         int
	marks       []int32
	low, pinLow uint64
	closed      bool          // the engine closed: an empty drain does not wait
	wake        chan struct{} // non-nil only while a drain is parked
}

// logSlot is one delivery — the document and the community's index when
// it was published — and the at-most-once members standing on it.
type logSlot struct {
	doc  uint64
	comm int32
	at   int32
}

func (l *commLog) slot(p uint64) *logSlot { return &l.buf[p%uint64(len(l.buf))] }

// standLocked adds d to the at-most-once members standing at position p.
func (l *commLog) standLocked(p uint64, d int32) {
	if p == l.tail {
		l.atTail += d
	} else {
		l.slot(p).at += d
	}
}

// mark counts the at-least-once members marked at p (below 0 on a young log).
func (l *commLog) mark(p uint64) *int32 {
	n := uint64(len(l.marks))
	return &l.marks[(p+n)%n]
}

// releaseLocked raises low to the lowest mark and unpins what it passed.
func (l *commLog) releaseLocked() {
	for l.low != l.tail && (l.alo == 0 || *l.mark(l.low) == 0) {
		l.low++
	}
	for ; l.tail-l.pinLow > l.tail-l.low; l.pinLow++ {
		l.docs.unpin(l.slot(l.pinLow).doc)
	}
}

func (l *commLog) wakeLocked() {
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
}

// append delivers doc, published as seq, to every member at position p:
// evicted at-most-once members lost their oldest pending delivery to it,
// shed at-least-once ones their oldest unacked. Caller holds routeMu, so
// the membership is still.
func (l *commLog) append(seq uint64, doc []byte, comm int) (p uint64, evicted, shed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p, c := l.tail, uint64(l.capacity)
	if p >= c {
		s := l.slot(p - c)
		evicted, s.at = int(s.at), 0
		l.standLocked(p-c+1, int32(evicted))
	}
	if l.alo > 0 {
		m := l.mark(p - 4*c)
		shed, *m = int(*m), 0
		*l.mark(p - 4*c + 1) += int32(shed)
		l.docs.pin(seq, doc)
	}
	if l.tail++; l.alo == 0 {
		l.pinLow = l.tail
	}
	l.releaseLocked()
	if d := max(min(l.tail, c), l.tail-l.low); d < l.tail-l.head {
		l.head = l.tail - d
	}
	if n := uint64(len(l.buf)); l.tail-l.head > n {
		buf := make([]logSlot, min(max(2*int(n), 8), 4*l.capacity))
		for q := l.head; q < p; q++ {
			buf[q%uint64(len(buf))] = l.buf[q%n]
		}
		l.buf = buf
	}
	*l.slot(p) = logSlot{doc: seq, comm: int32(comm), at: l.atTail}
	l.atTail = 0
	l.wakeLocked()
	return p, evicted, shed
}

// lag is the number of entries held and how many of them the
// furthest-behind member has yet to drain or ack.
func (l *commLog) lag() (entries, slowest int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.tail - min(l.tail, uint64(l.capacity))
	for p < l.tail && l.slot(p).at == 0 {
		p++
	}
	return int(l.tail - l.head), int(max(l.tail-p, min(l.tail-l.low, l.tail-l.head)))
}

func (l *commLog) close() {
	l.mu.Lock()
	l.closed = true
	l.wakeLocked()
	l.mu.Unlock()
}

// cursor is a subscription's whole delivery state: where it reads in its
// community's log, plus what it carries off the log. Lock order is
// cursor, then log; log is written only under the registry lock and
// routeMu held exclusively (move), and nil once unsubscribed.
type cursor struct {
	mu  sync.Mutex
	log *commLog
	pos uint64 // the first log entry not taken (drained, or handed out)
	// carry holds, oldest first, what left logs had pending for it and, at
	// least once, every unacked delivery it was handed or recovered.
	carry []carried
	// gap counts losses no drain has reported yet (at most once), dropped
	// every loss. Both run behind by what settleLocked has yet to see.
	gap, dropped uint64
	ack          *acks // nil for an at-most-once cursor
}

// acks is the rest of an at-least-once cursor. Log position p holds its
// delivery with cursor p+off (off a log, off is the last cursor plus one;
// a move re-bases it). floor is the last cursor of the snapshot it was
// restored from. Its log pins the backed newest carried deliveries, docs
// the rest. Every delivered one is acked, held or shed (cursor.dropped);
// on a log, delivered runs short by its tail, as off does.
type acks struct {
	docs                                   *docRing
	off, floor, committed                  uint64
	inflight, backed                       int
	delivered, acked, redelivered, expired uint64
}

// carried is one delivery a cursor holds off the log. cursor, attempts
// (hand-outs so far) and deadline (the unix-nano end of its lease, 0 when
// redeliverable) are at-least-once only.
type carried struct {
	cursor, doc    uint64
	comm, attempts int32
	deadline       int64
}

// takeLocked carries the log entry at pos. Caller holds c.mu and c.log.mu.
func (c *cursor) takeLocked() {
	s := c.log.slot(c.pos)
	e := carried{doc: s.doc, comm: s.comm}
	if a := c.ack; a != nil {
		e.cursor = c.pos + a.off
		a.backed++
	}
	c.carry = append(c.carry, e)
	c.pos++
}

// dropCarry discharges the k oldest carried deliveries.
func (c *cursor) dropCarry(k int) {
	if a := c.ack; a != nil {
		own := len(c.carry) - a.backed
		for i, e := range c.carry[:k] {
			if i < own {
				a.docs.unpin(e.doc)
			}
			if e.deadline != 0 {
				a.inflight--
			}
		}
		a.backed -= max(k-own, 0)
	}
	if c.carry = c.carry[k:]; len(c.carry) == 0 {
		c.carry = nil
	}
}

// settleLocked books the deliveries the log has moved the cursor past:
// evictions, or the oldest sheds. Caller holds c.mu and c.log.mu.
func (c *cursor) settleLocked() {
	l := c.log
	if c.ack != nil {
		if over := len(c.carry) + int(l.tail-c.pos) - 4*l.capacity; over > 0 {
			k := min(over, len(c.carry))
			c.dropCarry(k)
			c.dropped, c.pos = c.dropped+uint64(over), c.pos+uint64(over-k)
		}
	} else if h := l.tail - min(l.tail, uint64(l.capacity)); c.pos < h {
		lost := h - c.pos
		c.gap, c.dropped, c.pos = c.gap+lost, c.dropped+lost, h
	}
}

// move takes the cursor off its log to l's tail (nil: unsubscribed) and
// returns how many carried deliveries no longer fit. Caller holds the
// registry lock and routeMu exclusively.
func (c *cursor) move(l *commLog) (lost int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.leaveLocked()
	return c.joinLocked(l)
}

// leaveLocked takes the cursor off its log, carrying what it holds there.
// Caller holds c.mu.
func (c *cursor) leaveLocked() {
	old, a := c.log, c.ack
	if old == nil {
		return
	}
	old.mu.Lock()
	defer old.mu.Unlock()
	c.settleLocked()
	if a == nil {
		old.standLocked(c.pos, -1)
	}
	for c.pos < old.tail {
		c.takeLocked()
	}
	if a != nil {
		for _, e := range c.carry[len(c.carry)-a.backed:] {
			a.docs.pin(e.doc, nil)
		}
		*old.mark(c.pos - uint64(len(c.carry))) -= 1
		old.alo, a.backed = old.alo-1, 0
		a.off, a.delivered = a.off+old.tail, a.delivered+old.tail
		old.releaseLocked()
	}
	old.wakeLocked() // a drain parked on old re-parks on l, or returns
	c.log = nil
}

// joinLocked puts a cursor on no log at l's tail (nil: drops all it
// carries), losing, counted, what it carries past capacity — four at
// least once. Caller holds c.mu.
func (c *cursor) joinLocked(l *commLog) (lost int) {
	a := c.ack
	if c.log = l; l == nil {
		c.dropCarry(len(c.carry))
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	limit := l.capacity
	if a != nil {
		limit *= 4
	}
	if lost = max(len(c.carry)-limit, 0); lost > 0 {
		c.dropCarry(lost)
		c.gap, c.dropped = c.gap+uint64(lost), c.dropped+uint64(lost)
	}
	c.pos = l.tail
	if a == nil {
		l.atTail++
		return lost
	}
	if l.marks == nil {
		l.marks = make([]int32, 4*l.capacity+1)
	}
	s := l.tail - uint64(len(c.carry))
	*l.mark(s) += 1
	if l.alo++; l.tail-s > l.tail-l.low {
		l.low = s
	}
	a.off, a.delivered = a.off-l.tail, a.delivered-l.tail
	return lost
}

// describe fills in si's delivery figures.
func (c *cursor) describe(si *SubscriptionInfo) {
	c.poll(0, func(l *commLog) bool {
		held := len(c.carry) + int(l.tail-c.pos)
		if a := c.ack; a == nil {
			si.Pending, si.Dropped = held, c.dropped
		} else {
			si.Pending, si.InFlight, si.Committed, si.LastCursor = held-a.inflight, a.inflight, a.committed, l.tail+a.off-1
			si.Delivered, si.Acked, si.Redelivered, si.Shed, si.LeaseExpiries = l.tail+a.delivered, a.acked, a.redelivered, c.dropped, a.expired
		}
		return true
	})
}

// snapshotEntries copies an at-least-once cursor's unacked deliveries for
// a State cut, without leases: every recovered entry is redeliverable.
func (c *cursor) snapshotEntries() (committed, last uint64, entries []QueuedDelivery) {
	c.poll(0, func(l *commLog) bool {
		a := c.ack
		for _, e := range c.carry {
			entries = append(entries, QueuedDelivery{Cursor: e.cursor, Doc: e.doc, Community: int(e.comm), Attempts: int(e.attempts)})
		}
		for p := c.pos; p < l.tail; p++ {
			entries = append(entries, QueuedDelivery{Cursor: p + a.off, Doc: l.slot(p).doc, Community: int(l.slot(p).comm)})
		}
		committed, last = a.committed, l.tail+a.off-1
		return true
	})
	return committed, last, entries
}

// poll calls take under both locks, the cursor settled, until take is
// done, parking on the log in between: up to wait, and not once the
// engine closed. An unsubscribed cursor returns at once.
func (c *cursor) poll(wait time.Duration, take func(l *commLog) bool) {
	deadline := time.Now().Add(wait)
	for {
		c.mu.Lock()
		l := c.log
		if l == nil {
			c.mu.Unlock()
			return
		}
		l.mu.Lock()
		c.settleLocked()
		park := !take(l) && !l.closed && time.Now().Before(deadline)
		if park && l.wake == nil {
			l.wake = make(chan struct{})
		}
		w := l.wake
		l.mu.Unlock()
		c.mu.Unlock()
		if !park {
			return
		}
		select {
		case <-w:
		case <-time.After(time.Until(deadline)):
			return
		}
	}
}

// drain removes up to max (at least 1) pending deliveries of an
// at-most-once cursor, oldest first, waiting as poll does. gap counts the
// deliveries lost since the last drain reported them — the explicit "you
// missed N" marker the drop-oldest policy owes the consumer.
func (c *cursor) drain(max int, wait time.Duration) (out []Delivery, gap uint64) {
	c.poll(wait, func(l *commLog) bool {
		gap, c.gap = gap+c.gap, 0
		take := min(max, len(c.carry)+int(l.tail-c.pos))
		if take == 0 {
			return false
		}
		l.standLocked(c.pos, -1)
		for len(c.carry) < take {
			c.takeLocked()
		}
		l.standLocked(c.pos, 1)
		out = make([]Delivery, take)
		for i, e := range c.carry[:take] {
			out[i] = Delivery{Doc: e.doc, Community: int(e.comm)}
		}
		c.dropCarry(take)
		return true
	})
	return out, gap
}

// drainAcked hands out into r up to max (at least 1) redeliverable
// deliveries of an at-least-once cursor in cursor order, each leased for
// ttl, waiting as poll does. It first reclaims lapsed leases, so that a
// reconnecting consumer need not wait for the sweeper, and counts them.
func (c *cursor) drainAcked(r *DrainResult, max int, wait, ttl time.Duration) (expired int) {
	a := c.ack
	c.poll(wait, func(l *commLog) bool {
		now := time.Now()
		expired += c.expireLocked(l, now)
		r.Committed = a.committed
		take := min(max, len(c.carry)+int(l.tail-c.pos)-a.inflight)
		if take == 0 {
			return false
		}
		r.Deliveries, c.carry = make([]Delivery, 0, take), slices.Grow(c.carry, take)
		for i := 0; len(r.Deliveries) < take; i++ {
			if i == len(c.carry) {
				c.takeLocked()
			}
			if e := &c.carry[i]; e.deadline == 0 {
				e.attempts++
				e.deadline = now.Add(ttl).UnixNano()
				a.inflight++
				r.Cursor = e.cursor
				r.Deliveries = append(r.Deliveries, Delivery{Doc: e.doc, Community: int(e.comm), Cursor: e.cursor, Redelivered: e.attempts > 1})
				if e.attempts > 1 {
					r.Redelivered++
					a.redelivered++
				}
			}
		}
		return true
	})
	return expired
}

// expireLocked makes every delivery whose lease lapsed by now
// redeliverable and wakes the drains parked on l. Caller holds both locks.
func (c *cursor) expireLocked(l *commLog, now time.Time) (n int) {
	for i := range c.carry {
		if e := &c.carry[i]; e.deadline != 0 && e.deadline <= now.UnixNano() {
			e.deadline = 0
			n++
		}
	}
	if n > 0 {
		c.ack.inflight -= n
		c.ack.expired += uint64(n)
		l.wakeLocked()
	}
	return n
}

// ackUpto discharges every delivery with cursor ≤ upto and advances the
// committed cursor (advanced: re-acks are no-ops, not re-journaled).
// strict rejects a cursor never issued, as the live API does; replay is
// lenient — a journal-error gap can leave an OpAck whose OpDeliver never
// made the WAL — and numbers on above it.
func (c *cursor) ackUpto(upto uint64, strict bool) (acked int, advanced bool, err error) {
	c.poll(0, func(l *commLog) bool {
		a := c.ack
		last := l.tail + a.off - 1
		if strict && upto > last {
			err = ErrBadCursor
			return true
		}
		for acked < len(c.carry) && c.carry[acked].cursor <= upto {
			acked++
		}
		c.dropCarry(acked)
		if first := c.pos + a.off; upto >= first {
			w := min(upto-first+1, l.tail-c.pos)
			c.pos += w
			acked += int(w)
		}
		s := c.pos - uint64(len(c.carry))
		*l.mark(s - uint64(acked)) -= 1
		*l.mark(s) += 1
		l.releaseLocked()
		a.acked += uint64(acked)
		if upto > a.committed {
			a.committed, advanced = upto, true
		}
		if upto > last {
			a.off = upto + 1 - l.tail
		}
		return true
	})
	return acked, advanced, err
}

// restore replays an OpDeliver entry of document seq (packed: doc, which
// it pins) in cursor order, since publishes journal in the order their
// appends complete. A cursor at or below the floor or the committed one,
// or held, was seen (snapshot/WAL overlap, an ack, a duplicate) and is
// skipped. Rejoining the log, the cursor numbers on above it and, past
// 4 × capacity, sheds the lowest, as the live log did. Caller holds the
// registry lock and routeMu exclusively.
func (c *cursor) restore(cursor, seq uint64, comm int, doc []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, a := c.log, c.ack
	c.leaveLocked()
	defer c.joinLocked(l)
	i, held := slices.BinarySearchFunc(c.carry, cursor, func(e carried, c uint64) int { return cmp.Compare(e.cursor, c) })
	if !held && cursor > a.floor && cursor > a.committed {
		c.carry = slices.Insert(c.carry, i, carried{cursor: cursor, doc: seq, comm: int32(comm), attempts: 1})
		a.docs.pin(seq, doc)
		a.off, a.delivered = max(a.off, cursor+1), a.delivered+1
	}
}

// markDrained replays an OpDrained record: deliveries at or below upto
// were handed out before the crash, so their next hand-out is a
// redelivery. Caller holds the registry lock and routeMu exclusively.
func (c *cursor) markDrained(upto uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.log
	c.leaveLocked()
	for i := range c.carry {
		if e := &c.carry[i]; e.cursor <= upto && e.attempts == 0 {
			e.attempts = 1
		}
	}
	c.joinLocked(l)
}
