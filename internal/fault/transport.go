package fault

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"treesim/internal/overlay"
	"treesim/internal/overlay/wire"
)

// TransportOptions sets the per-message misbehavior probabilities for a
// faulty link. All default to zero — a zero-value options struct is a
// clean wire.
type TransportOptions struct {
	// Drop is the probability a message silently vanishes (the send
	// reports success, UDP-style — distinct from a severed link, which
	// errors).
	Drop float64
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
	// Reorder is the probability a message is held back and delivered
	// after the next message on this link (or on Flush).
	Reorder float64
	// DelayMax, when positive, sleeps a seeded uniform duration in
	// [0, DelayMax) before each delivery.
	DelayMax time.Duration
	// AdvertsOnly confines the faults to advert traffic, leaving
	// publications clean — for scenarios that must keep recall exact
	// while the control plane churns.
	AdvertsOnly bool
}

// ErrSevered is what every send on a severed link returns.
var ErrSevered = errors.New("fault: link severed")

// Transport wraps an overlay.Transport with seeded per-message drop,
// duplicate, reorder, and delay, and a kill switch (Sever). Decisions come from a private
// math/rand stream, so a topology wired with the same seeds misbehaves
// identically on every run. Safe for concurrent use; decisions and
// deliveries are serialized per link, which keeps the fault schedule
// deterministic even with concurrent senders.
type Transport struct {
	mu       sync.Mutex
	rng      *rand.Rand
	inner    overlay.Transport
	opts     TransportOptions
	held     func() error // one reordered message awaiting its successor
	inflight int          // deliveries decided but not yet executed
	severed  bool

	drops, dups, reorders uint64
}

// NewTransport wraps inner with seeded faults.
func NewTransport(inner overlay.Transport, seed int64, opts TransportOptions) *Transport {
	return &Transport{rng: rand.New(rand.NewSource(seed)), inner: inner, opts: opts}
}

// SendAdvert implements overlay.Transport.
func (t *Transport) SendAdvert(b wire.AdvertBatch) error {
	return t.send(false, func() error { return t.inner.SendAdvert(b) })
}

// SendPublish implements overlay.Transport.
func (t *Transport) SendPublish(p wire.Publication) error {
	return t.send(true, func() error { return t.inner.SendPublish(p) })
}

func (t *Transport) send(isPub bool, deliver func() error) error {
	// Decide under the lock (keeps the rng stream and the fault
	// schedule deterministic), deliver outside it: a synchronous
	// delivery can fan out through the whole overlay — re-gossip,
	// forwarding — and holding a link mutex across that walk could
	// deadlock against a concurrent chain walking the links in the
	// opposite order.
	var plan []func() error
	var delay time.Duration
	t.mu.Lock()
	if t.severed {
		t.mu.Unlock()
		return ErrSevered
	}
	switch {
	case isPub && t.opts.AdvertsOnly:
		plan = append(plan, deliver)
	default:
		if t.opts.DelayMax > 0 {
			delay = time.Duration(t.rng.Int63n(int64(t.opts.DelayMax)))
		}
		if t.rng.Float64() < t.opts.Drop {
			t.drops++
			break
		}
		// A message held for reordering is released right after its
		// successor, swapping the pair on the wire.
		if t.held == nil && t.rng.Float64() < t.opts.Reorder {
			t.reorders++
			t.held = deliver
			break
		}
		plan = append(plan, deliver)
		if t.rng.Float64() < t.opts.Duplicate {
			t.dups++
			plan = append(plan, deliver)
		}
		if t.held != nil {
			plan = append(plan, t.held)
			t.held = nil
		}
	}
	if len(plan) > 0 {
		t.inflight++
	}
	t.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if len(plan) == 0 {
		return nil
	}
	var err error
	for _, d := range plan {
		if e := d(); err == nil {
			err = e
		}
	}
	t.mu.Lock()
	t.inflight--
	t.mu.Unlock()
	return err
}

// Sever cuts the link (true) or restores it (false). While cut, every
// send fails like a cut cable: the receiver sees nothing and the sender
// gets ErrSevered, which is what trips its link-down marking. A severed
// send draws nothing from the fault schedule.
func (t *Transport) Sever(cut bool) {
	t.mu.Lock()
	t.severed = cut
	t.mu.Unlock()
}

// Flush delivers any message still held for reordering. Call it when a
// scenario quiesces the link, so a reordered message is late, never
// lost.
func (t *Transport) Flush() error {
	t.mu.Lock()
	held := t.held
	t.held = nil
	if held != nil {
		t.inflight++
	}
	t.mu.Unlock()
	if held == nil {
		return nil
	}
	err := held()
	t.mu.Lock()
	t.inflight--
	t.mu.Unlock()
	return err
}

// Idle reports whether this link is quiescent: nothing held for
// reordering and no delivery mid-execution. A harness that must see
// every in-flight message land before asserting (e.g. drain-and-compare
// checkers racing background keepalive senders) flushes every link and
// then waits for all of them to be idle.
func (t *Transport) Idle() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.held == nil && t.inflight == 0
}

// Stats reports how many messages were dropped, duplicated, and
// reordered so far.
func (t *Transport) Stats() (drops, dups, reorders uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drops, t.dups, t.reorders
}
