package broker

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"treesim/internal/cluster"
	"treesim/internal/core"
	"treesim/internal/pattern"
	"treesim/internal/xmltree"
)

// This file is the crash-recovery surface: a snapshotable State, a
// Restore constructor that rebuilds the forest and routing table from
// it without re-running greedy clustering, a Journal hook that records
// committed churn decisions, and the Apply* replay entry points that
// re-commit journaled decisions deterministically.
//
// The design principle is outcome logging. A subscribe's community
// placement depends on the estimator's synopsis at decision time;
// replaying the decision procedure against restored (older or newer)
// estimator state could place the subscription differently and change
// routing. So the journal records the decision itself — the chosen
// group index, or a rebuild's full partition — and replay applies it
// verbatim. A restored broker therefore routes exactly like the broker
// that crashed, whatever the estimator drift.

// stateFormat versions State for gob compatibility checks.
const stateFormat = 1

// SubEntry is one subscription in a State, identified by its stable id
// and pattern expression (registry order is the State.Subs order).
// The at-least-once fields (Mode 1) carry the delivery contract's
// durable half: the committed cursor, the cursor high-water mark, and
// the undischarged log entries. Zero values decode older snapshots as
// plain at-most-once subscriptions.
type SubEntry struct {
	ID   uint64
	Expr string
	// Mode is the delivery contract (uint8 of DeliveryMode).
	Mode uint8
	// Committed is the highest acked cursor and LastCursor the highest
	// assigned one (at-least-once only).
	Committed  uint64
	LastCursor uint64
	// Queued is the undischarged cursor log in cursor order. Lease
	// state is deliberately excluded: leases do not survive a restart,
	// every recovered entry is immediately redeliverable.
	Queued []QueuedDelivery
}

// QueuedDelivery is one undischarged at-least-once delivery in a
// snapshot.
type QueuedDelivery struct {
	Cursor    uint64
	Doc       uint64
	Community int
	// Attempts is how many times the entry was handed to a consumer —
	// recovered entries with Attempts > 0 count as redeliveries when
	// drained again.
	Attempts int
}

// State is a point-in-time snapshot of the engine's durable state:
// the subscription registry, the community partition, the id/sequence
// watermarks, and the estimator synopsis. (Snapshots written by the
// sharded layout also carry Shards and CommShard; gob drops fields the
// struct no longer has, and that layout re-balances a snapshot without
// them, so both directions recover.)
// At-most-once delivery-ring contents are deliberately excluded —
// queued-but-undrained best-effort deliveries die with the process
// (documented loss window, surfaced to consumers as a gap marker).
// At-least-once cursor logs ARE included (SubEntry.Queued plus the
// Packed content map): the acked contract survives the crash.
type State struct {
	// Format is the state format version (stateFormat).
	Format int
	// Subs is the registry in index order.
	Subs []SubEntry
	// Groups/Reps are the community partition over registry indices.
	Groups [][]int
	Reps   []int
	// NextID is the id watermark; Stale the churn count since the last
	// rebuild; PubSeq the publish sequence watermark.
	NextID uint64
	Stale  int
	PubSeq uint64
	// WalLSN is the LSN of the last journal record whose effect this
	// state includes (0 when nothing has been journaled). Registry
	// records are watermarked inside the same critical sections that
	// journal them; delivery-plane records (OpDeliver/OpAck/OpDrained)
	// are folded in from a watermark read BEFORE any queue is copied,
	// so a record at or below WalLSN provably has its effect in the
	// cut and everything above replays (idempotently — cursors dedupe).
	// Pass it to persist.Store.WriteSnapshot.
	WalLSN uint64
	// Packed maps publish sequence → the document as retention holds it
	// (xmltree.Pack bytes) for every document referenced by a Queued
	// entry, so recovery can repin content the retention ring lost with
	// the process. A referenced document missing here (retention
	// disabled, or discharged between the cut and the copy) restores as
	// an entry without content. Docs is the same map as XML text, in a
	// snapshot written before Packed existed: read, never written.
	Packed map[uint64][]byte
	Docs   map[uint64]string
	// Estimator is the synopsis serialization (core.Estimator.Save).
	Estimator []byte
}

// EncodeState serializes a State.
func EncodeState(st *State) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("broker: encode state: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeState parses a State produced by EncodeState.
func DecodeState(data []byte) (*State, error) {
	var st State
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return nil, fmt.Errorf("broker: decode state: %w", err)
	}
	if st.Format != stateFormat {
		return nil, fmt.Errorf("broker: state format %d, want %d", st.Format, stateFormat)
	}
	return &st, nil
}

// State snapshots the engine's durable state. The registry/clustering
// part is one consistent cut (taken under the registry lock); the
// estimator serialization follows outside it, so documents ingested
// concurrently may or may not be included — harmless skew, since the
// estimator only steers future clustering decisions and those are
// journaled as outcomes anyway. Call Flush first for a deterministic
// synopsis (tests do).
//
// Unlike the mutating entry points, State works on a closed engine: a
// closed engine is quiescent (no further commits can race the cut),
// which is exactly what an ordered shutdown wants for its final
// snapshot — close the engine first, then snapshot what it settled on.
func (e *Engine) State() (*State, error) {
	// Read the delivery-plane watermark BEFORE copying any queue: a
	// delivery record journaled after this read gets a higher LSN and
	// replays; one at or below it was appended — and therefore applied,
	// effects precede appends — before every copy below.
	dLSN := e.deliveryLSN.Load()
	e.mu.RLock()
	st := &State{
		Format: stateFormat,
		Subs:   make([]SubEntry, len(e.subs)),
		Groups: make([][]int, len(e.comms.Groups)),
		Reps:   append([]int(nil), e.comms.Reps...),
		NextID: e.nextID,
		Stale:  e.stale,
		WalLSN: e.walLSN,
	}
	var docSeqs []uint64
	for i, s := range e.subs {
		se := SubEntry{ID: s.id, Expr: s.expr, Mode: uint8(s.mode)}
		if s.mode == AtLeastOnce {
			se.Committed, se.LastCursor, se.Queued = s.q.snapshotEntries()
			for _, qd := range se.Queued {
				docSeqs = append(docSeqs, qd.Doc)
			}
		}
		st.Subs[i] = se
	}
	for g, members := range e.comms.Groups {
		st.Groups[g] = append([]int(nil), members...)
	}
	e.mu.RUnlock()
	if dLSN > st.WalLSN {
		st.WalLSN = dLSN
	}
	st.PubSeq = e.pubSeq.Load()
	// Take the referenced documents (pins keep them retrievable; a
	// concurrent ack can discharge one between the cut and here, but its
	// OpAck record then post-dates the watermark and replays, removing
	// the contentless entry again).
	if len(docSeqs) > 0 {
		st.Packed = make(map[uint64][]byte, len(docSeqs))
		for _, seq := range docSeqs {
			if doc := e.docs.get(seq); doc != nil {
				st.Packed[seq] = doc
			}
		}
	}
	var buf bytes.Buffer
	if err := e.est.Save(&buf); err != nil {
		return nil, fmt.Errorf("broker: save estimator: %w", err)
	}
	st.Estimator = buf.Bytes()
	return st, nil
}

// Restore starts an engine from a snapshot: the estimator is loaded
// from the saved synopsis, every subscription re-enters its snapshotted
// community, and the forest and routing table are rebuilt directly from
// the saved partition — no similarity computation and no greedy
// re-clustering on the recovery path.
func Restore(cfg Config, st *State) (*Engine, error) {
	cfg = cfg.withDefaults()
	if st == nil {
		return nil, fmt.Errorf("broker: restore: nil state")
	}
	var est *core.Estimator
	if len(st.Estimator) > 0 {
		var err error
		est, err = core.LoadEstimator(bytes.NewReader(st.Estimator))
		if err != nil {
			return nil, fmt.Errorf("broker: restore estimator: %w", err)
		}
		est.SetStreamConfig(cfg.Estimator.ParseOptions, cfg.Estimator.DTD)
	} else {
		est = core.NewEstimator(cfg.Estimator)
	}
	comms, err := cluster.FromGroups(cfg.Threshold, st.Groups, st.Reps)
	if err != nil {
		return nil, fmt.Errorf("broker: restore clustering: %w", err)
	}
	if comms.Len() != len(st.Subs) {
		return nil, fmt.Errorf("broker: restore: partition covers %d items, registry has %d", comms.Len(), len(st.Subs))
	}
	e := newEngine(cfg, est)
	// Pinned documents are pinned as the snapshot holds them; the text of
	// an older snapshot is parsed and packed once per document first.
	docs := st.Packed
	if len(st.Docs) > 0 {
		docs = make(map[uint64][]byte, len(st.Docs))
		for seq, xml := range st.Docs {
			doc, err := packXML(xml, cfg.Estimator.ParseOptions)
			if err != nil {
				return nil, fmt.Errorf("broker: restore pinned doc %d: %w", seq, err)
			}
			docs[seq] = doc
		}
	}
	for i, se := range st.Subs {
		p, err := pattern.Parse(se.Expr)
		if err != nil {
			return nil, fmt.Errorf("broker: restore subscription %d: %w", se.ID, err)
		}
		if _, dup := e.byID[se.ID]; dup {
			return nil, fmt.Errorf("broker: restore: duplicate subscription id %d", se.ID)
		}
		s := e.newSubscriber(se.ID, p, se.Expr, DeliveryMode(se.Mode))
		if q := s.q; q != nil {
			// The engine is not shared yet; fields are set directly. All
			// recovered entries are redeliverable (no surviving leases).
			q.committed = se.Committed
			q.lastCursor = se.LastCursor
			for _, qd := range se.Queued {
				q.entries = append(q.entries, ackEntry{cursor: qd.Cursor, doc: qd.Doc, comm: qd.Community, attempts: qd.Attempts})
				q.stats.delivered++
				e.docs.pin(qd.Doc, docs[qd.Doc])
			}
		}
		e.byID[se.ID] = i
		e.subs = append(e.subs, s)
		if se.ID > e.nextID {
			e.nextID = se.ID
		}
	}
	if st.NextID > e.nextID {
		e.nextID = st.NextID
	}
	// The engine is not yet shared with any other goroutine (the
	// ingester never touches routing state), so no locks are needed.
	e.comms = comms
	e.commFH = make([]int, len(comms.Groups))
	e.commLogs = make([]*commLog, len(comms.Groups))
	for g, rep := range comms.Reps {
		e.commFH[g], e.commLogs[g] = e.forest.Add(e.subs[rep].pat), e.newCommLog()
	}
	e.rebuildRoutingLocked()
	e.stale = st.Stale
	e.pubSeq.Store(st.PubSeq)
	return e, nil
}

// Journal observes committed registry mutations for write-ahead
// logging. Calls are made inside the registry critical section, in
// commit order — implementations should append fast (an unsynced write
// is enough for process-death durability) and leave fsync policy to
// their own configuration. Each call returns the log sequence number
// the record was assigned; the engine tracks the highest one and
// reports it as State.WalLSN, the watermark a snapshot of that state
// covers. Errors are counted in Stats.JournalErrors and do not fail
// the mutation.
type Journal interface {
	// Subscribed records a committed subscription with the community
	// group index the clustering chose (len(groups)-at-commit founds a
	// new community) and its delivery mode.
	Subscribed(id uint64, expr string, group int, mode DeliveryMode) (lsn uint64, err error)
	// Unsubscribed records a committed removal.
	Unsubscribed(id uint64) (lsn uint64, err error)
	// Rebuilt records a full re-clustering as the complete partition
	// keyed by subscription ids (reps parallel to groups).
	Rebuilt(groups [][]uint64, reps []uint64) (lsn uint64, err error)
	// Delivered records one published document's at-least-once fan-out:
	// the document sequence and content (xmltree.Pack bytes; none when
	// retention is off) plus the parallel per-delivery arrays
	// (subscription id, assigned cursor, community). Called outside the
	// registry lock, after the queue appends. The arrays are the
	// publish's scratch: encode or copy them before returning.
	Delivered(seq uint64, doc []byte, subs, cursors []uint64, comms []int) (lsn uint64, err error)
	// Acked records a committed cursor advance for subscription id.
	Acked(id uint64, upto uint64) (lsn uint64, err error)
	// Drained records that deliveries up to upto were handed to a
	// consumer (the in-flight window a recovered broker still owes).
	Drained(id uint64, upto uint64) (lsn uint64, err error)
}

// SetJournal installs the journal. Install it once at boot, after
// recovery replay and before serving traffic, so replayed operations
// are not re-journaled. A nil j uninstalls.
func (e *Engine) SetJournal(j Journal) {
	if j == nil {
		e.journal.Store(nil)
		return
	}
	e.journal.Store(&j)
}

// partitionIDsLocked exports the current partition keyed by stable
// subscription ids (the Rebuilt journal payload). Caller holds the
// registry lock.
func (e *Engine) partitionIDsLocked() (groups [][]uint64, reps []uint64) {
	groups = make([][]uint64, len(e.comms.Groups))
	reps = make([]uint64, len(e.comms.Reps))
	for g, members := range e.comms.Groups {
		ids := make([]uint64, len(members))
		for i, idx := range members {
			ids[i] = e.subs[idx].id
		}
		groups[g] = ids
		reps[g] = e.subs[e.comms.Reps[g]].id
	}
	return groups, reps
}

// ApplySubscribed replays a journaled subscribe: the subscription
// re-enters exactly the community the original commit chose (via
// cluster.PlaceAt), with no similarity computation. Replaying a record
// whose id is already live is a no-op (idempotent recovery under
// snapshot/WAL overlap). Use only during recovery, before traffic.
func (e *Engine) ApplySubscribed(id uint64, expr string, group int, mode DeliveryMode) error {
	p, err := pattern.Parse(expr)
	if err != nil {
		return fmt.Errorf("broker: replay subscribe %d: %w", id, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if _, ok := e.byID[id]; ok {
		return nil // already present (snapshot covered this record)
	}
	if err := e.comms.PlaceAt(group); err != nil {
		return fmt.Errorf("broker: replay subscribe %d: %w", id, err)
	}
	if id > e.nextID {
		e.nextID = id
	}
	e.installSubLocked(id, p, expr, group, mode)
	return nil
}

// ApplyDelivered replays a journaled at-least-once fan-out. Each
// (subscription, cursor) pair re-enters that subscription's cursor log
// unless the cursor was already seen — cursors are monotonic and never
// reused, so an entry at or below the restored high-water mark (or the
// committed cursor) is a snapshot/WAL overlap and is skipped, making
// double replay exactly idempotent. Re-inserted entries repin the
// document carried in the record — doc, its packed bytes, checked here
// and retained as they are; unknown or at-most-once subscription ids are
// skipped (unsubscribed later in the WAL, or never durable).
func (e *Engine) ApplyDelivered(seq uint64, doc []byte, subs, cursors []uint64, comms []int) error {
	if len(subs) != len(cursors) || len(subs) != len(comms) {
		return fmt.Errorf("broker: replay deliver %d: %d subs, %d cursors, %d comms", seq, len(subs), len(cursors), len(comms))
	}
	if _, err := xmltree.Unpack(doc); err != nil {
		return fmt.Errorf("broker: replay deliver %d: %w", seq, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	// Keep the sequence watermark ahead of every replayed document so a
	// recovered engine never reassigns a pinned sequence.
	for {
		cur := e.pubSeq.Load()
		if seq <= cur || e.pubSeq.CompareAndSwap(cur, seq) {
			break
		}
	}
	for i, subID := range subs {
		idx, ok := e.byID[subID]
		if !ok {
			continue
		}
		s := e.subs[idx]
		if s.mode != AtLeastOnce {
			continue
		}
		shedDoc, shed, inserted := s.q.restore(cursors[i], seq, comms[i], 1)
		if shed {
			e.docs.unpin(shedDoc)
		}
		if inserted {
			e.docs.pin(seq, doc)
		}
	}
	return nil
}

// ApplyDeliveredXML is ApplyDelivered for a record of a log written
// before OpDeliver carried packed bytes: its document is XML text.
func (e *Engine) ApplyDeliveredXML(seq uint64, xml string, subs, cursors []uint64, comms []int) error {
	doc, err := packXML(xml, e.cfg.Estimator.ParseOptions)
	if err != nil {
		return fmt.Errorf("broker: replay deliver %d: %w", seq, err)
	}
	return e.ApplyDelivered(seq, doc, subs, cursors, comms)
}

// packXML is the packed form of a document persisted as text.
func packXML(xml string, opts xmltree.ParseOptions) ([]byte, error) {
	t, err := xmltree.ParseString(xml, opts)
	return xmltree.Pack(t), err
}

// ApplyAcked replays a journaled cursor advance. Lenient by design: a
// cursor above the restored high-water mark (possible after a journal
// append error dropped the OpDeliver) still advances the committed
// watermark, and re-acking an already-committed cursor is a no-op.
func (e *Engine) ApplyAcked(id uint64, upto uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	idx, ok := e.byID[id]
	if !ok {
		return nil // unsubscribed later in the WAL
	}
	s := e.subs[idx]
	if s.mode != AtLeastOnce {
		return nil
	}
	_, _, unpin, _ := s.q.ack(upto, false)
	e.docs.unpin(unpin...)
	return nil
}

// ApplyDrained replays a journaled hand-out: entries at or below the
// watermark count as redeliveries when drained again. Unknown ids are
// a no-op.
func (e *Engine) ApplyDrained(id uint64, upto uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	idx, ok := e.byID[id]
	if !ok {
		return nil
	}
	s := e.subs[idx]
	if s.mode != AtLeastOnce {
		return nil
	}
	s.q.markDrained(upto)
	return nil
}

// ApplyUnsubscribed replays a journaled unsubscribe. Unknown ids are a
// no-op (the snapshot may already reflect the removal).
func (e *Engine) ApplyUnsubscribed(id uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	e.removeSubLocked(id)
	return nil
}

// ApplyRebuilt replays a journaled full re-clustering: the recorded
// partition (keyed by subscription ids) replaces the current one
// wholesale, exactly as the original rebuild did.
func (e *Engine) ApplyRebuilt(groups [][]uint64, reps []uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if len(groups) != len(reps) {
		return fmt.Errorf("broker: replay rebuild: %d groups, %d reps", len(groups), len(reps))
	}
	idxGroups := make([][]int, len(groups))
	idxReps := make([]int, len(reps))
	for g, ids := range groups {
		idxGroups[g] = make([]int, len(ids))
		for i, id := range ids {
			idx, ok := e.byID[id]
			if !ok {
				return fmt.Errorf("broker: replay rebuild: unknown subscription id %d", id)
			}
			idxGroups[g][i] = idx
		}
		idx, ok := e.byID[reps[g]]
		if !ok {
			return fmt.Errorf("broker: replay rebuild: unknown representative id %d", reps[g])
		}
		idxReps[g] = idx
	}
	comms, err := cluster.FromGroups(e.cfg.Threshold, idxGroups, idxReps)
	if err != nil {
		return fmt.Errorf("broker: replay rebuild: %w", err)
	}
	if comms.Len() != len(e.subs) {
		return fmt.Errorf("broker: replay rebuild: partition covers %d of %d subscriptions", comms.Len(), len(e.subs))
	}
	e.replaceClusteringLocked(comms)
	e.stale = 0
	e.regVer++
	return nil
}
