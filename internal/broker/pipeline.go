package broker

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"treesim/internal/xmltree"
)

// This file is the document plane: the publish entry points, the
// background synopsis ingester, and the recent-document retention ring.
// Routing state lives in route.go; the subscription registry in
// broker.go.

// ingestItem is one unit of the publish→synopsis pipeline: a document
// to ingest, or a flush marker (nil tree) whose done channel is closed
// once everything queued before it has been ingested. gate, when set,
// stalls the ingester until the channel is closed — a test-only hook
// for filling the pipeline deterministically.
type ingestItem struct {
	tree *xmltree.Tree
	done chan struct{}
	gate chan struct{}
}

// ErrBusy is returned by InjectRemote when the ingest pipeline is full:
// the overlay sheds remote traffic instead of blocking a peer's
// forwarding goroutine, and the peer backs off (a busy ack on the peer
// stream). Local Publish keeps blocking semantics — backpressure on
// the local producer, load shedding across the federation boundary.
var ErrBusy = fmt.Errorf("broker: ingest pipeline full")

// ErrTooDeep is returned by the publish entry points for a tree with
// more levels than xmltree.MaxDepth, which no parser hands out: Unpack
// would not read it back from retention. It is refused whole — not
// ingested, retained or routed.
var ErrTooDeep = fmt.Errorf("broker: document nested deeper than %d", xmltree.MaxDepth)

// deeper reports whether the subtree at n has more than room levels (at
// least 1), descending no further; leaves, most nodes, cost no call.
func deeper(n *xmltree.Node, room int) bool {
	for _, c := range n.Children {
		if room == 1 || (len(c.Children) > 0 && deeper(c, room-1)) {
			return true
		}
	}
	return false
}

// Publish routes one document: it is queued for synopsis ingestion
// (blocking only if the ingest pipeline is full — backpressure), loaded
// once into a pooled flat arena, then matched against the forest in one
// pass on this goroutine; communities that hit receive the document in
// their delivery log. Matching per representative rather than per consumer
// is the whole point: filter evaluations scale with the number of
// communities, not subscriptions.
func (e *Engine) Publish(t *xmltree.Tree) (PublishResult, error) {
	return e.publish(t, nil, true)
}

// logShed emits a remote-ingest shed event record, at most about one
// per second (a CAS on the last-emit timestamp elects the logging
// goroutine; losers drop silently — the running total carries the
// information the skipped records would have).
func (e *Engine) logShed() {
	now := time.Now().UnixNano()
	last := e.shedLogNS.Load()
	if now-last < int64(time.Second) || !e.shedLogNS.CompareAndSwap(last, now) {
		return
	}
	e.cfg.Logger.Warn("remote publications shed: ingest pipeline full",
		"shed_total", e.counters.remoteShed.Load())
}

// InjectRemote routes a document that arrived from a peer broker in the
// overlay. It behaves like Publish — the document feeds the synopsis
// (remote traffic is part of the stream the estimator models), enters
// the retention ring, and is delivered to matching local communities —
// but is counted separately (Stats.RemoteInjected), and it never blocks
// on a full ingest pipeline: a remote injection rides a peer's
// forwarding goroutine, and stalling it would propagate one slow
// broker's backlog through the overlay. When the pipeline is full the
// document is shed (counted in Stats.RemoteShed) and ErrBusy returned,
// so the peer stream can ack the frame busy and the upstream peer backs
// off. doc is t as it arrived, packed (xmltree.Pack's form); retention
// keeps that slice itself. nil has the engine pack t.
func (e *Engine) InjectRemote(t *xmltree.Tree, doc []byte) (PublishResult, error) {
	res, err := e.publish(t, doc, false)
	if err == nil {
		e.counters.remoteInjected.Add(1)
	}
	return res, err
}

// publish is Publish and InjectRemote: once accept has queued the
// document for the synopsis, it gets its sequence number, enters
// retention and is routed. The time accept took is ingest-queue wait,
// the remainder routing; both land in the result and the latency
// histograms.
func (e *Engine) publish(t *xmltree.Tree, doc []byte, block bool) (PublishResult, error) {
	start := time.Now()
	if err := e.accept(t, block); err != nil {
		return PublishResult{}, err
	}
	enqueued := time.Now()
	e.routeMu.RLock()
	defer e.routeMu.RUnlock()
	res := PublishResult{Seq: e.pubSeq.Add(1)}
	doc = e.docs.put(res.Seq, t, doc)
	// A publish that raced Close past the pipeline check was already
	// accepted into the synopsis; it simply routes to nobody, keeping
	// Published == documents ingested.
	if !e.routeClosed {
		e.routeDoc(t, doc, &res)
	}
	e.counters.published.Add(1)
	end := time.Now()
	res.IngestWaitNS = enqueued.Sub(start).Nanoseconds()
	res.MatchNS = end.Sub(enqueued).Nanoseconds()
	e.ingestWait.ObserveDuration(res.IngestWaitNS)
	e.pubLat.ObserveDuration(end.Sub(start).Nanoseconds())
	return res, nil
}

// accept is the ingest gate of every publish entry point: it refuses a
// tree deeper than xmltree.MaxDepth and a closed engine, then queues t
// for synopsis ingestion before any routing lock is taken, so a full
// pipeline stalls only publishers (and Close), never Drain/Stats. With
// block a full pipeline is waited out (backpressure); without, a
// document that does not fit is shed, counted, and ErrBusy returned.
func (e *Engine) accept(t *xmltree.Tree, block bool) error {
	if t != nil && t.Root != nil && deeper(t.Root, xmltree.MaxDepth) {
		return ErrTooDeep
	}
	e.pipeMu.RLock()
	defer e.pipeMu.RUnlock()
	if e.pipeClosed {
		return ErrClosed
	}
	if block {
		e.counters.ingestQueued.Add(1)
		e.ingest <- ingestItem{tree: t}
		return nil
	}
	select {
	case e.ingest <- ingestItem{tree: t}:
		e.counters.ingestQueued.Add(1)
		return nil
	default:
		e.counters.remoteShed.Add(1)
		e.logShed()
		return ErrBusy
	}
}

// ingestBatch is the most documents runIngest feeds the estimator per
// lock acquisition.
const ingestBatch = 32

// runIngest is the background synopsis feeder: it drains the pipeline
// in batches so the estimator's exclusive lock is taken once per batch
// instead of once per document.
func (e *Engine) runIngest() {
	defer e.ingestWG.Done()
	batch := make([]*xmltree.Tree, 0, ingestBatch)
	var done []chan struct{}
	for item := range e.ingest {
		if item.gate != nil {
			<-item.gate // test hook: hold the pipeline at a known depth
		}
		batch, done = batch[:0], done[:0]
		for {
			if item.tree != nil {
				batch = append(batch, item.tree)
			}
			if item.done != nil {
				done = append(done, item.done)
			}
			if len(batch) >= ingestBatch {
				break
			}
			var more bool
			select {
			case item, more = <-e.ingest:
				if !more {
					item = ingestItem{}
				}
			default:
				more = false
			}
			if !more || (item.tree == nil && item.done == nil) {
				break
			}
		}
		e.est.ObserveTrees(batch)
		e.counters.ingested.Add(uint64(len(batch)))
		for _, ch := range done {
			close(ch)
		}
	}
}

// Flush blocks until every document queued before the call has been
// ingested into the synopsis (tests and benchmarks use this to make
// estimator state deterministic).
func (e *Engine) Flush() {
	e.pipeMu.RLock()
	if e.pipeClosed {
		e.pipeMu.RUnlock()
		return
	}
	ch := make(chan struct{})
	e.ingest <- ingestItem{done: ch}
	e.pipeMu.RUnlock()
	<-ch
}

// docRing retains the most recent published documents keyed by publish
// sequence, so a delivery's content is retrievable after routing. A
// document is held packed (xmltree.Pack: one pointer-free []byte), not
// as its parse tree, which lives only until routing and the synopsis
// are done with it. On top of the fixed-size ring sits the pin map:
// documents referenced by unacked at-least-once deliveries are pinned
// (refcounted: once per log entry, once per carried one) and stay retrievable
// however far the ring advances — GET /doc/{seq} must not 404 a
// document a consumer can still legally be redelivered. Pins are
// bounded by four capacities per log and cursor, so the map cannot grow
// without bound.
type docRing struct {
	mu     sync.Mutex
	buf    []docEntry
	pinned map[uint64]*pinnedDoc
	// bytes is the packed size of every document held, ring and pins
	// (treesim_broker_docs_retained_bytes); one held by both counts once.
	bytes atomic.Int64
}

type docEntry struct {
	seq uint64
	doc []byte
}

type pinnedDoc struct {
	doc  []byte
	refs int
}

// slot is seq's place in the ring and whether seq occupies it. Caller
// holds mu.
func (r *docRing) slot(seq uint64) (*docEntry, bool) {
	e := &r.buf[seq%uint64(len(r.buf))]
	return e, e.seq == seq && seq != 0
}

// put retains the document published as seq and returns its packed
// bytes: doc when the caller has them (a forwarded publication), t
// packed otherwise. Without a ring nothing is packed or retained.
func (r *docRing) put(seq uint64, t *xmltree.Tree, doc []byte) []byte {
	if r == nil {
		return nil
	}
	if len(doc) == 0 {
		doc = xmltree.Pack(t)
	}
	r.mu.Lock()
	e, _ := r.slot(seq)
	if _, kept := r.pinned[e.seq]; !kept {
		r.bytes.Add(-int64(len(e.doc)))
	}
	*e = docEntry{seq: seq, doc: doc}
	r.bytes.Add(int64(len(doc)))
	r.mu.Unlock()
	return doc
}

func (r *docRing) get(seq uint64) []byte {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.slot(seq); ok {
		return e.doc
	}
	if p, ok := r.pinned[seq]; ok {
		return p.doc
	}
	return nil
}

// pin adds one reference to seq, retaining it past ring eviction: the
// ring's bytes when it still holds seq (a publish puts before it pins),
// doc otherwise (recovery; a delivery journaled without content pins
// nothing).
func (r *docRing) pin(seq uint64, doc []byte) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.pinned[seq]; ok {
		p.refs++
		return
	}
	if e, ok := r.slot(seq); ok {
		doc = e.doc
	} else if len(doc) == 0 {
		return
	} else {
		r.bytes.Add(int64(len(doc)))
	}
	r.pinned[seq] = &pinnedDoc{doc: doc, refs: 1}
}

// unpin drops one reference per listed sequence (ack, shed, close).
func (r *docRing) unpin(seqs ...uint64) {
	if r == nil || len(seqs) == 0 {
		return
	}
	r.mu.Lock()
	for _, seq := range seqs {
		if p, ok := r.pinned[seq]; ok {
			if p.refs--; p.refs <= 0 {
				delete(r.pinned, seq)
				if _, kept := r.slot(seq); !kept {
					r.bytes.Add(-int64(len(p.doc)))
				}
			}
		}
	}
	r.mu.Unlock()
}

// pinnedCount is the number of distinct pinned documents (gauge).
func (r *docRing) pinnedCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pinned)
}
