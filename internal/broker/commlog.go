package broker

import (
	"sync"
	"time"
)

// commLog is one community's at-most-once delivery log: a publish that
// matches the community appends ONE entry, whatever the member count,
// and every at-most-once member reads the log through its own cursor.
// It is part of the community's record in the routing table
// (routeGroup.log), created, kept and dropped with its forest handle.
//
// Positions count appends; [head, tail) is held, in a ring that starts
// empty and doubles up to capacity (Config.QueueCapacity). Every slot
// counts the members whose cursor stands on it, so a full log evicting
// its oldest entry knows in O(1) how many members lost a delivery, and
// the count moves on to the next slot with them. A member at cursor c
// sees what a private drop-oldest ring of that capacity would hold:
// tail-c deliveries and, at capacity, the oldest lost to the next publish.
//
// The one difference from such a ring: a subscription a re-clustering
// moves to another community takes what it has pending along, a private
// carry-over of at most one capacity, and joins the new log at its tail,
// so it can hold up to one capacity from before the move plus one since.
// A carry-over overflows only by being moved again undrained; the oldest
// go, counted at the move (the engine's dropped counter, the
// subscription's own, its next drain's gap) and charged to no publish.
type commLog struct {
	mu         sync.Mutex
	capacity   int
	buf        []logSlot // position p lives in buf[p%len(buf)]
	head, tail uint64
	atTail     int32         // members that have read everything
	closed     bool          // the engine closed: an empty drain does not wait
	wake       chan struct{} // non-nil only while a drain is parked
}

// logSlot is one delivery — the document and the community's index when
// it was published — and the members whose cursor stands on it.
type logSlot struct {
	doc  uint64
	comm int32
	at   int32
}

// standLocked adds d to the members standing at position p.
func (l *commLog) standLocked(p uint64, d int32) {
	if p == l.tail {
		l.atTail += d
	} else {
		l.buf[p%uint64(len(l.buf))].at += d
	}
}

func (l *commLog) wakeLocked() {
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
}

// append delivers doc to every member — the caller knows how many — and
// returns how many of them lost their oldest pending delivery to it.
// Caller holds routeMu, so the membership is still.
func (l *commLog) append(doc uint64, comm int) (evicted int) {
	l.mu.Lock()
	n := uint64(len(l.buf))
	if l.tail-l.head == n {
		if int(n) < l.capacity {
			buf := make([]logSlot, min(max(2*int(n), 8), l.capacity))
			for p := l.head; p < l.tail; p++ {
				buf[p%uint64(len(buf))] = l.buf[p%n]
			}
			l.buf, n = buf, uint64(len(buf))
		} else {
			evicted = int(l.buf[l.head%n].at)
			l.head++
			l.standLocked(l.head, int32(evicted))
		}
	}
	l.buf[l.tail%n] = logSlot{doc: doc, comm: int32(comm), at: l.atTail}
	l.atTail = 0
	l.tail++
	l.wakeLocked()
	l.mu.Unlock()
	return evicted
}

// lag is the number of entries held and how far the slowest member's
// cursor is behind the tail.
func (l *commLog) lag() (entries, slowest int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.head
	for p < l.tail && l.buf[p%uint64(len(l.buf))].at == 0 {
		p++
	}
	return int(l.tail - l.head), int(l.tail - p)
}

func (l *commLog) close() {
	l.mu.Lock()
	l.closed = true
	l.wakeLocked()
	l.mu.Unlock()
}

// cursor is an at-most-once subscription's whole delivery state: where
// it reads in its community's log, plus what a move left it with. Lock
// order is cursor, then log; log is written only under the registry lock
// and routeMu held exclusively (move), and nil once unsubscribed.
type cursor struct {
	mu  sync.Mutex
	log *commLog
	pos uint64
	// carry holds the deliveries pending on the logs left behind, oldest
	// first: drained before anything from log.
	carry []logSlot
	// gap counts losses no drain has reported yet, dropped all of them.
	// Both run behind by what settleLocked has yet to see.
	gap, dropped uint64
}

// settleLocked books the deliveries the log has evicted under the
// cursor. Caller holds c.mu and c.log.mu.
func (c *cursor) settleLocked() {
	if lost := c.log.head - c.pos; c.pos < c.log.head {
		c.gap, c.dropped, c.pos = c.gap+lost, c.dropped+lost, c.log.head
	}
}

// move takes the cursor off its log and, unless l is nil — unsubscribed
// — to l's tail: a new subscription's first community, or a re-clustered
// one's next, which takes its pending deliveries along in carry. It
// returns how many of those no longer fit. Caller holds the registry lock
// and routeMu exclusively.
func (c *cursor) move(l *commLog) (lost int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.log; old != nil {
		old.mu.Lock()
		c.settleLocked()
		for p := c.pos; p < old.tail; p++ {
			c.carry = append(c.carry, old.buf[p%uint64(len(old.buf))])
		}
		old.standLocked(c.pos, -1)
		old.wakeLocked() // a drain parked on old re-parks on l, or returns
		old.mu.Unlock()
	}
	if c.log = l; l == nil {
		c.carry = nil
		return 0
	}
	if lost = max(len(c.carry)-l.capacity, 0); lost > 0 {
		c.carry = append([]logSlot(nil), c.carry[lost:]...)
		c.gap, c.dropped = c.gap+uint64(lost), c.dropped+uint64(lost)
	}
	l.mu.Lock()
	c.pos = l.tail
	l.atTail++
	l.mu.Unlock()
	return lost
}

// info is the number of deliveries pending and the lifetime drop count.
func (c *cursor) info() (pending int, dropped uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l := c.log; l != nil {
		l.mu.Lock()
		c.settleLocked()
		pending = len(c.carry) + int(l.tail-c.pos)
		l.mu.Unlock()
	}
	return pending, c.dropped
}

// drain removes up to max (at least 1) pending deliveries, oldest first.
// With none pending it waits up to wait for an append, a move, the
// unsubscribe or the engine's close. gap is the number of deliveries lost
// since the last drain reported them — the explicit "you missed N" marker
// the drop-oldest policy owes the consumer.
func (c *cursor) drain(max int, wait time.Duration) (out []Delivery, gap uint64) {
	deadline := time.Now().Add(wait)
	for {
		c.mu.Lock()
		l := c.log
		if l == nil {
			c.mu.Unlock()
			return nil, gap
		}
		l.mu.Lock()
		c.settleLocked()
		gap += c.gap
		c.gap = 0
		if take := min(max, len(c.carry)+int(l.tail-c.pos)); take > 0 {
			out = make([]Delivery, 0, take)
			k := min(take, len(c.carry))
			for _, s := range c.carry[:k] {
				out = append(out, Delivery{Doc: s.doc, Community: int(s.comm)})
			}
			if c.carry = c.carry[k:]; len(c.carry) == 0 {
				c.carry = nil
			}
			if k < take {
				l.standLocked(c.pos, -1)
				for ; k < take; k++ {
					s := l.buf[c.pos%uint64(len(l.buf))]
					out = append(out, Delivery{Doc: s.doc, Community: int(s.comm)})
					c.pos++
				}
				l.standLocked(c.pos, 1)
			}
			l.mu.Unlock()
			c.mu.Unlock()
			return out, gap
		}
		park := !l.closed && time.Now().Before(deadline)
		if park && l.wake == nil {
			l.wake = make(chan struct{})
		}
		w := l.wake
		l.mu.Unlock()
		c.mu.Unlock()
		if !park || !parkUntil(w, deadline) {
			return nil, gap
		}
	}
}
