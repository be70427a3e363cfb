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

// ingestItem is one unit of the publish→synopsis pipeline: a packed
// document to ingest (possibly the empty one), or a marker. A flush
// marker's done channel is closed once everything queued before it has
// been ingested; a gate marker stalls the ingester until gate is closed
// — a test-only hook for filling the pipeline deterministically.
type ingestItem struct {
	doc  []byte
	done chan struct{}
	gate chan struct{}
}

// ErrBusy is returned by a remote PublishFlat when the ingest pipeline
// is full: the overlay sheds remote traffic instead of blocking a peer's
// forwarding goroutine, and the peer backs off (a busy ack on the peer
// stream). Local publishes keep blocking semantics — backpressure on
// the local producer, load shedding across the federation boundary.
var ErrBusy = fmt.Errorf("broker: ingest pipeline full")

// ErrTooDeep is returned by the publish entry points for a document
// with more levels than xmltree.MaxDepth, which no parser hands out and
// xmltree.Unpack would not read back from retention. It is refused
// whole — not ingested, retained or routed.
var ErrTooDeep = xmltree.ErrTooDeep

// Publish routes one document: it is PublishPacked of t packed.
func (e *Engine) Publish(t *xmltree.Tree) (PublishResult, error) {
	return e.PublishPacked(xmltree.Pack(t))
}

// PublishPacked routes one document, packed (xmltree.Pack's form): it
// is loaded once into a pooled flat arena, which checks the bytes, and
// published from there (PublishFlat).
func (e *Engine) PublishPacked(doc []byte) (PublishResult, error) {
	sc := e.getScratch()
	defer e.putScratch(sc)
	if _, err := sc.flat.LoadPacked(doc, nil); err != nil {
		return PublishResult{}, fmt.Errorf("broker: publish: %w", err)
	}
	return e.PublishFlat(&sc.flat, false)
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

// PublishFlat routes one document loaded from its packed bytes
// (xmltree.Flat.LoadPacked, which checked them; an arena filled by
// Flat.Load is refused, as its bytes are its own): the bytes are queued
// for synopsis ingestion, the document is matched against the forest in
// one pass on this goroutine, its labels resolved against the forest's
// table, and communities that hit receive it in their delivery log;
// retention keeps the bytes themselves. Filter evaluations scale with
// the number of communities, not subscriptions.
//
// A local publish waits out a full ingest pipeline (backpressure). A
// remote one, forwarded by a peer broker, is counted apart
// (Stats.RemoteInjected) and never blocks the peer's forwarding
// goroutine: a full pipeline sheds it (Stats.RemoteShed) with ErrBusy,
// which the peer stream acks busy. The time accept took is ingest-queue
// wait, the remainder routing.
func (e *Engine) PublishFlat(doc *xmltree.Flat, remote bool) (PublishResult, error) {
	start := time.Now()
	if doc.Len() > 0 && doc.Packed() == nil {
		return PublishResult{}, fmt.Errorf("broker: publish: document not loaded from packed bytes")
	}
	if err := e.accept(doc.Packed(), !remote); err != nil {
		return PublishResult{}, err
	}
	enqueued := time.Now()
	e.routeMu.RLock()
	defer e.routeMu.RUnlock()
	res := PublishResult{Seq: e.pubSeq.Add(1)}
	retained := e.docs.put(res.Seq, doc.Packed())
	// A publish that raced Close past the pipeline check was already
	// accepted into the synopsis; it simply routes to nobody, keeping
	// Published == documents ingested.
	if !e.routeClosed {
		e.routeDoc(doc, retained, &res)
	}
	e.counters.published.Add(1)
	if remote {
		e.counters.remoteInjected.Add(1)
	}
	end := time.Now()
	res.IngestWaitNS = enqueued.Sub(start).Nanoseconds()
	res.MatchNS = end.Sub(enqueued).Nanoseconds()
	e.ingestWait.ObserveDuration(res.IngestWaitNS)
	e.pubLat.ObserveDuration(end.Sub(start).Nanoseconds())
	return res, nil
}

// accept is the ingest gate of every publish entry point: it refuses a
// closed engine, then queues doc for synopsis ingestion before any
// routing lock is taken, so a full pipeline stalls only publishers (and
// Close), never Drain/Stats. With block a full pipeline is waited out
// (backpressure); without, a document that does not fit is shed,
// counted, and ErrBusy returned.
func (e *Engine) accept(doc []byte, block bool) error {
	e.pipeMu.RLock()
	defer e.pipeMu.RUnlock()
	if e.pipeClosed {
		return ErrClosed
	}
	if block {
		e.counters.ingestQueued.Add(1)
		e.ingest <- ingestItem{doc: doc}
		return nil
	}
	select {
	case e.ingest <- ingestItem{doc: doc}:
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
	batch := make([][]byte, 0, ingestBatch)
	var done []chan struct{}
	for item := range e.ingest {
		if item.gate != nil {
			<-item.gate // test hook: hold the pipeline at a known depth
		}
		batch, done = batch[:0], done[:0]
		for {
			if item.done != nil {
				done = append(done, item.done)
			} else if item.gate == nil {
				batch = append(batch, item.doc)
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
			if !more || item.gate != nil {
				break
			}
		}
		e.est.ObservePacked(batch)
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
// as a tree: the bytes the publish was parsed to, or arrived as, are the
// bytes retained. On top of the fixed-size ring sits the pin map:
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

// put retains the document published as seq and returns it, or nil
// without a ring.
func (r *docRing) put(seq uint64, doc []byte) []byte {
	if r == nil {
		return nil
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
