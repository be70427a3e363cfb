package overlay

import (
	"errors"
	"fmt"
	mathrand "math/rand"
	"sort"
	"time"

	"treesim/internal/broker"
)

// This file is the overlay's liveness machinery — the soft-state and
// self-healing layer that turns "links simply go quiet" into bounded
// failure detection and automatic repair:
//
//   - Soft-state adverts. Every node re-advertises its aggregate (under
//     a fresh version) every Config.AdvertTTL/3; a routing-table
//     entry whose origin has not been heard from within
//     Config.AdvertTTL is expired and its aggregates evicted from the
//     remote forest, so a dead origin stops attracting forwards after
//     at most one TTL.
//   - Link health. Every send outcome feeds per-link state: a failure
//     marks the link down (the damping set — forwarding plans and
//     gossip skip it), and the maintenance loop probes it on a capped
//     exponential backoff with jitter. The probe IS a full-state advert
//     sync (the AddPeer exchange re-run), so a recovered link comes
//     back with routing state already repaired — partition heal and
//     resync are the same act.
//   - Backpressure discrimination. A peer answering "busy" (a busy ack
//     on the link's stream, or broker.ErrBusy in-process) is alive; busy
//     answers never touch link health and are retried once after a
//     capped delay, then shed. Every other failed send — a "closed" or
//     "bad" ack, no ack within the peer timeout (which closes the
//     stream), a refused dial — marks the link down, and the probe's
//     send is what redials the stream.

// BusyError reports that a peer is up but shed the message under ingest
// backpressure; retry after the hinted delay (zero: the maxBusyWait
// default). The stream transport produces it from a busy ack.
type BusyError struct {
	After time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("overlay: peer busy (retry after %v)", e.After)
}

// maxBusyWait caps how long a forwarding goroutine sleeps on a busy
// peer before the single retry — bounded politeness, not a queue.
const maxBusyWait = 500 * time.Millisecond

// busyAfter classifies an error as peer backpressure and returns the
// capped retry delay. A nil or non-busy error returns false.
func busyAfter(err error) (time.Duration, bool) {
	if err == nil {
		return 0, false
	}
	var be *BusyError
	if errors.As(err, &be) {
		after := be.After
		if after <= 0 || after > maxBusyWait {
			after = maxBusyWait
		}
		return after, true
	}
	if errors.Is(err, broker.ErrBusy) {
		return maxBusyWait, true
	}
	return 0, false
}

// recordSend folds one send outcome into the link's health state.
// Failures mark the link down and schedule the next probe under capped
// exponential backoff with ±25% jitter (de-synchronizing probe storms
// after a shared outage). A success on a down link means a maintenance
// probe — which carries the full-state resync batch — got through:
// the link rejoins the healthy set.
func (n *Node) recordSend(peerID string, err error) {
	// wentDown/recovered capture the transition under the lock; the
	// event records are emitted after release so a slow log sink never
	// stalls the node lock.
	var wentDown, recovered bool
	var backoff time.Duration
	n.mu.Lock()
	l, ok := n.links[peerID]
	if !ok {
		n.mu.Unlock()
		return // link replaced or removed mid-send
	}
	if err == nil {
		l.sends.Inc()
		if l.down {
			l.down = false
			l.up.Set(1)
			n.counters.linkRecovered.Add(1)
			n.counters.resyncs.Add(1)
			recovered = true
		}
		l.fails = 0
		l.backoff = 0
		l.lastErr = ""
	} else {
		l.errs.Inc()
		l.fails++
		l.lastErr = err.Error()
		if !l.down {
			l.down = true
			l.up.Set(0)
			n.counters.linkDowns.Add(1)
			wentDown = true
		}
		if l.backoff == 0 {
			l.backoff = n.cfg.RetryBase
		} else {
			l.backoff *= 2
		}
		if l.backoff > n.cfg.RetryMax {
			l.backoff = n.cfg.RetryMax
		}
		backoff = l.backoff
		// ±25% jitter; mathrand's global source is fine for scheduling.
		jitter := time.Duration(mathrand.Int63n(int64(l.backoff)/2+1)) - l.backoff/4
		l.nextRetry = time.Now().Add(l.backoff + jitter)
	}
	n.mu.Unlock()
	if wentDown {
		n.cfg.Logger.Warn("link down", "peer", peerID, "err", err.Error(), "backoff", backoff.String())
	}
	if recovered {
		n.cfg.Logger.Warn("link recovered", "peer", peerID)
	}
}

// runMaintenance is the background loop driving refresh, expiry, and
// down-link probes. It stops when the node closes.
func (n *Node) runMaintenance() {
	defer n.maintWG.Done()
	ticker := time.NewTicker(n.cfg.Maintenance)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
		}
		now := time.Now()
		n.expireAdverts(now)
		n.probeDownLinks(now)
		n.refreshAdvert(now)
	}
}

// expireAdverts evicts routing-table entries whose origin has been
// silent past the advert TTL, in two phases. Phase one tombstones the
// entry at its own version: its patterns leave the remote forest, but
// the version stays, so exactly version+1 (an origin that was merely
// paused and resumes with its next advert) revives the origin. Phase
// two, a full TTL later (by which time any in-flight advert at or below
// the tombstone's version has drained), deletes the tombstone so dead
// origins do not leak table entries forever. Like handleAdvertAt it
// holds fmu and then the node lock, so the forest and the table change
// together.
func (n *Node) expireAdverts(now time.Time) {
	ttl := n.cfg.AdvertTTL
	if ttl <= 0 {
		return
	}
	expired := make(map[string]uint64) // origin → tombstoned version
	n.fmu.Lock()
	n.mu.Lock()
	for origin, e := range n.table {
		if now.Sub(e.lastSeen) <= ttl {
			continue
		}
		if e.expired {
			// Phase two: the tombstone has sat silent for another TTL.
			delete(n.table, origin)
			continue
		}
		// Phase one: tombstone in place.
		e.expired = true
		e.advertised = nil
		e.lastSeen = now
		n.indexLocked(origin, e, nil)
		n.counters.advertsExpired.Add(1)
		expired[origin] = e.version
	}
	n.mu.Unlock()
	n.fmu.Unlock()
	for origin, version := range expired {
		n.cfg.Logger.Warn("advert expired", "origin", origin, "version", version)
	}
}

// probeDownLinks retries every marked-down link whose backoff has
// elapsed. The probe is syncPeer's full-state advert batch — on
// success the link's health resets (recordSend sees the send succeed)
// and the peer's routing state toward this node is repaired in the same
// exchange; the peer's own symmetric probe repairs the reverse
// direction.
func (n *Node) probeDownLinks(now time.Time) {
	n.mu.Lock()
	var due []string
	for id, l := range n.links {
		if l.down && !now.Before(l.nextRetry) {
			due = append(due, id)
		}
	}
	n.mu.Unlock()
	sort.Strings(due)
	for _, id := range due {
		n.syncPeer(id) // send outcome feeds recordSend via sendAdverts
	}
}

// refreshAdvert re-advertises the local aggregate (under a fresh
// version) when the keepalive period has elapsed without any
// churn-driven advertisement — the origin-side half of soft state.
func (n *Node) refreshAdvert(now time.Time) {
	if n.cfg.AdvertTTL <= 0 {
		return
	}
	n.mu.Lock()
	due := now.Sub(n.lastAdvert) >= n.cfg.AdvertTTL/3
	n.mu.Unlock()
	if due {
		n.advertiseAt(now)
	}
}
