package broker

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"
	"sync/atomic"

	"treesim/internal/core"
	"treesim/internal/pattern"
	"treesim/internal/persist"
	"treesim/internal/xmltree"
)

// This file is the crash-recovery surface: a snapshotable State, a
// Restore constructor that rebuilds the forest and routing table from
// it without re-running greedy clustering, a Journal that records
// committed decisions as persist.Records, Apply, the one replay entry
// point that re-commits a journaled record deterministically, and
// Recover and WriteSnapshot, which put them together over a
// persist.Store.
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
// and pattern expression (State.Subs lists the registry in id order).
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
	// Subs is the registry in id order.
	Subs []SubEntry
	// Groups/Reps are the community partition over indices into Subs,
	// Groups[g] ascending, community g at index g.
	Groups [][]int
	Reps   []int
	// NextID is the id watermark; PubSeq the publish sequence watermark.
	NextID uint64
	PubSeq uint64
	// WalLSN is the journal watermark the cut was taken at (0 when
	// nothing has been journaled): every record at or below it has its
	// effect in this state, and every record above it replays over it —
	// a registry record's effect is not in the state, a delivery record's
	// may be and replays idempotently by cursor (see Journal). Pass it to
	// persist.Store.WriteSnapshot.
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
	// The watermark is read under the registry lock and before any queue
	// is copied, which is what makes it exact (see Journal).
	e.mu.RLock()
	subs := e.registryLocked()
	st := &State{
		Format: stateFormat,
		Subs:   make([]SubEntry, len(subs)),
		Groups: make([][]int, len(e.groups)),
		Reps:   make([]int, len(e.groups)),
		NextID: e.nextID,
		WalLSN: e.lsn.Load(),
	}
	var docSeqs []uint64
	index := make(map[*subscriber]int, len(subs))
	for i, s := range subs {
		index[s] = i
		se := SubEntry{ID: s.id, Expr: s.expr, Mode: uint8(s.mode)}
		if s.mode == AtLeastOnce {
			se.Committed, se.LastCursor, se.Queued = s.q.snapshotEntries()
			for _, qd := range se.Queued {
				docSeqs = append(docSeqs, qd.Doc)
			}
		}
		st.Subs[i] = se
	}
	for g, rg := range e.groups {
		for _, s := range rg.members() {
			st.Groups[g] = append(st.Groups[g], index[s])
		}
		st.Reps[g] = index[rg.rep]
	}
	e.mu.RUnlock()
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

// WriteSnapshot publishes a State cut of the engine as store's
// snapshot, stamped with the overlay's epoch watermarks (zero for a
// broker outside a federation) and covering exactly the journal records
// the cut includes (State.WalLSN): records committed between the cut and
// the write stay above the watermark and replay over it.
func (e *Engine) WriteSnapshot(store *persist.Store, advertVersion, pubSeq uint64) error {
	st, err := e.State()
	if err != nil {
		return err
	}
	data, err := EncodeState(st)
	if err != nil {
		return err
	}
	payload, err := (&persist.Snapshot{Broker: data, AdvertVersion: advertVersion, PubSeq: pubSeq}).Encode()
	if err != nil {
		return err
	}
	return store.WriteSnapshot(payload, st.WalLSN)
}

// Restore starts an engine from a snapshot: the estimator is loaded
// from the saved synopsis, every subscription re-enters its snapshotted
// community, and the forest and routing table are rebuilt directly from
// the saved partition — no similarity computation and no greedy
// re-clustering on the recovery path.
func Restore(cfg Config, st *State) (_ *Engine, err error) {
	cfg = cfg.withDefaults()
	if st == nil {
		return nil, fmt.Errorf("broker: restore: nil state")
	}
	var est *core.Estimator
	if len(st.Estimator) > 0 {
		est, err = core.LoadEstimator(bytes.NewReader(st.Estimator))
		if err != nil {
			return nil, fmt.Errorf("broker: restore estimator: %w", err)
		}
		est.SetStreamConfig(cfg.Estimator.ParseOptions, cfg.Estimator.DTD)
	} else {
		est = core.NewEstimator(cfg.Estimator)
	}
	e := newEngine(cfg, est)
	defer func() {
		if err != nil {
			e.Close()
		}
	}()
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
	subs := make([]*subscriber, len(st.Subs))
	e.nextID = st.NextID
	for i, se := range st.Subs {
		p, err := pattern.Parse(se.Expr)
		if err == nil {
			err = checkMode(DeliveryMode(se.Mode))
		}
		if err != nil {
			return nil, fmt.Errorf("broker: restore subscription %d: %w", se.ID, err)
		}
		if e.byID[se.ID] != nil {
			return nil, fmt.Errorf("broker: restore: duplicate subscription id %d", se.ID)
		}
		s := e.newSubscriber(se.ID, p, se.Expr, DeliveryMode(se.Mode))
		if q := s.q; q != nil {
			// The engine is not shared yet; fields are set directly. All
			// recovered entries are redeliverable (no surviving leases).
			q.committed = se.Committed
			q.lastCursor, q.floor = se.LastCursor, se.LastCursor
			for _, qd := range se.Queued {
				q.entries = append(q.entries, ackEntry{cursor: qd.Cursor, doc: qd.Doc, comm: qd.Community, attempts: qd.Attempts})
				q.stats.delivered++
				e.docs.pin(qd.Doc, docs[qd.Doc])
			}
		}
		e.byID[se.ID], subs[i] = s, s
		e.nextID = max(e.nextID, se.ID)
	}
	// The engine is not yet shared with any other goroutine, so the
	// registry lock is not taken; the clustering goes in as a rebuild's
	// does, over the empty one every community is new to.
	groups, reps, err := partition(st.Groups, st.Reps, len(subs), func(i int) *subscriber {
		if i < 0 || i >= len(subs) {
			return nil
		}
		return subs[i]
	})
	if err != nil {
		return nil, fmt.Errorf("broker: restore clustering: %w", err)
	}
	e.installLocked(groups, reps, nil)
	e.pubSeq.Store(st.PubSeq)
	return e, nil
}

// Recover rebuilds an engine from a data directory's open store — the
// one recovery path of the daemon, the treesim-net harnesses and the
// tests. It restores the snapshot (a fresh engine when there is none),
// replays the WAL tail above the snapshot's watermark through Apply,
// and only then installs the store as the journal, so replayed records
// never re-enter the WAL. The watermark starts at the store's last LSN:
// every snapshot the engine writes covers the replayed prefix.
//
// The returned epoch floor is the overlay epoch a restarted node must
// boot above: the maximum of the snapshot's advert version, its
// publication sequence and every OpBootEpoch record in the tail. The
// snapshot's watermarks understate the crashed node's live counters by
// whatever it issued after that snapshot (overlay.New pads the floor);
// the boot records matter when one snapshot serves several recoveries
// in a row — without them each boot would floor at the same padded
// value and reuse the previous incarnation's sequence range, which
// peers' seen-sets silently swallow.
//
// On error the store is left open for the caller to close.
func Recover(cfg Config, store *persist.Store) (*Engine, uint64, error) {
	var (
		e     *Engine
		floor uint64
	)
	payload, ok, err := store.LoadSnapshot()
	if err != nil {
		return nil, 0, err
	}
	if ok {
		env, err := persist.DecodeSnapshot(payload)
		if err != nil {
			return nil, 0, err
		}
		st, err := DecodeState(env.Broker)
		if err != nil {
			return nil, 0, err
		}
		if e, err = Restore(cfg, st); err != nil {
			return nil, 0, err
		}
		floor = max(env.AdvertVersion, env.PubSeq)
	} else {
		e = New(cfg)
	}
	if err := store.Replay(func(rec persist.Record) error {
		if rec.Op == persist.OpBootEpoch {
			floor = max(floor, rec.Seq)
		}
		return e.Apply(rec)
	}); err != nil {
		e.Close()
		return nil, 0, fmt.Errorf("broker: recover %s: %w", store.Dir(), err)
	}
	e.lsn.Store(store.LastLSN())
	e.SetJournal(store)
	return e, floor, nil
}

// Journal is the engine's write-ahead log: each mutation arrives as one
// persist.Record and Append returns the log sequence number the record
// was assigned. *persist.Store is the implementation. One rule orders the
// log. A registry record (OpSubscribe, OpUnsubscribe, OpRebuild) is
// appended inside its registry critical section, before the table edit
// that makes its effect visible to publishes — so a delivery to a new
// subscription is always logged after the subscription. A delivery
// record (OpDeliver, OpAck, OpDrained) is appended after its queue
// effect. The engine keeps the highest LSN Append returned as one
// watermark, and State reads it under the registry lock before copying
// any queue: a record at or below it has its effect in the cut; a
// registry record above it cannot, since its critical section excludes
// the read; a delivery record above it replays idempotently by cursor.
// No registry record is appended under the routing lock, so a slow
// append stalls churn, not publishing. Append should be fast (an
// unsynced write is enough for process-death durability) and leave
// fsync policy to its own configuration. An OpDeliver record's slices
// are the publish's scratch: encode or copy them before returning.
// Errors are counted in Stats.JournalErrors and latch the engine
// degraded; they do not fail the mutation.
type Journal interface {
	Append(rec persist.Record) (lsn uint64, err error)
}

// SetJournal installs the journal. Install it once at boot, after
// recovery replay and before serving traffic, so replayed operations
// are not re-journaled. A nil j uninstalls.
func (e *Engine) SetJournal(j Journal) {
	if j == nil {
		e.wal.Store(nil)
		return
	}
	e.wal.Store(&j)
}

// journal appends rec, if a journal is installed, and raises the
// watermark to its LSN — a CAS max, since delivery records are appended
// outside the registry lock and can complete out of order.
func (e *Engine) journal(rec persist.Record) {
	if j := e.wal.Load(); j != nil {
		if lsn, err := (*j).Append(rec); err != nil {
			e.noteJournalError()
		} else {
			storeMax(&e.lsn, lsn)
		}
	}
}

// storeMax raises a to v unless it already holds at least v.
func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// partitionIDsLocked exports the current partition keyed by stable
// subscription ids (the OpRebuild journal payload). Caller holds the
// registry lock.
func (e *Engine) partitionIDsLocked() (groups [][]uint64, reps []uint64) {
	groups = make([][]uint64, len(e.groups))
	reps = make([]uint64, len(e.groups))
	for g, rg := range e.groups {
		for _, s := range rg.members() {
			groups[g] = append(groups[g], s.id)
		}
		reps[g] = rg.rep.id
	}
	return groups, reps
}

// Apply replays one journaled record: it re-commits the decision the
// record logged, never re-derives it. Every kind is idempotent, so a
// record the snapshot already covers (snapshot/WAL overlap) changes
// nothing. Use only during recovery, before traffic.
//
//   - OpSubscribe re-enters the subscription into exactly the community
//     the original commit chose — an index up to the community count,
//     which founds one — with no similarity computation; an id already
//     live is skipped.
//   - OpUnsubscribe removes the id; an unknown id is a no-op.
//   - OpRebuild replaces the partition wholesale with the recorded one,
//     keyed by subscription ids, exactly as the original rebuild did.
//   - OpDeliver re-enters each (subscription, cursor) pair into that
//     subscription's cursor log, in cursor order, unless the cursor was
//     already seen — cursors are never reused — and repins the document
//     the record carries (packed, or the XML text of a log written
//     before records carried it packed). Unknown and at-most-once ids
//     are skipped (unsubscribed later in the WAL, or never durable).
//   - OpAck advances the committed cursor, leniently: a cursor above the
//     restored high-water mark (a journal error dropped its OpDeliver)
//     still advances it, and re-acking is a no-op.
//   - OpDrained marks the entries up to the cursor as handed out, so
//     they count as redeliveries when drained again.
//   - OpBootEpoch is the overlay's record (Recover reads it); the
//     engine has nothing to apply.
func (e *Engine) Apply(rec persist.Record) error {
	var (
		p   *pattern.Pattern
		doc = rec.Doc
		err error
	)
	switch rec.Op {
	case persist.OpBootEpoch:
		return nil
	case persist.OpSubscribe:
		if p, err = pattern.Parse(rec.Expr); err == nil {
			err = checkMode(DeliveryMode(rec.Mode))
		}
	case persist.OpDeliver:
		switch {
		case len(rec.Subs) != len(rec.Cursors) || len(rec.Subs) != len(rec.Comms):
			err = fmt.Errorf("%d subs, %d cursors, %d comms", len(rec.Subs), len(rec.Cursors), len(rec.Comms))
		case rec.XML != "":
			doc, err = packXML(rec.XML, e.cfg.Estimator.ParseOptions)
		default:
			_, err = xmltree.Unpack(doc)
		}
	}
	if err != nil {
		return fmt.Errorf("broker: replay %s (id %d, seq %d): %w", rec.Op, rec.ID, rec.Seq, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	switch rec.Op {
	case persist.OpSubscribe:
		if e.byID[rec.ID] != nil {
			return nil // already present (snapshot covered this record)
		}
		if rec.Group < 0 || rec.Group > len(e.groups) {
			return fmt.Errorf("broker: replay subscribe %d: community %d of %d", rec.ID, rec.Group, len(e.groups))
		}
		e.nextID = max(e.nextID, rec.ID)
		e.installSubLocked(rec.ID, p, rec.Expr, rec.Group, DeliveryMode(rec.Mode), nil)
	case persist.OpUnsubscribe:
		e.removeSubLocked(rec.ID)
	case persist.OpRebuild:
		groups, reps, err := partition(rec.Groups, rec.Reps, len(e.byID), func(id uint64) *subscriber { return e.byID[id] })
		if err != nil {
			return fmt.Errorf("broker: replay rebuild: %w", err)
		}
		e.installLocked(groups, reps, nil)
	case persist.OpDeliver:
		// Keep the sequence watermark ahead of every replayed document so
		// a recovered engine never reassigns a pinned sequence.
		storeMax(&e.pubSeq, rec.Seq)
		for i, id := range rec.Subs {
			q := e.ackedQueueLocked(id)
			if q == nil {
				continue
			}
			shedDoc, shed, inserted := q.restore(rec.Cursors[i], rec.Seq, rec.Comms[i], 1)
			if shed {
				e.docs.unpin(shedDoc)
			}
			if inserted {
				e.docs.pin(rec.Seq, doc)
			}
		}
	case persist.OpAck:
		if q := e.ackedQueueLocked(rec.ID); q != nil {
			_, _, unpin, _ := q.ack(rec.Cursor, false)
			e.docs.unpin(unpin...)
		}
	case persist.OpDrained:
		if q := e.ackedQueueLocked(rec.ID); q != nil {
			q.markDrained(rec.Cursor)
		}
	default:
		return fmt.Errorf("broker: unknown wal op %q", rec.Op)
	}
	return nil
}

// ackedQueueLocked is subscription id's cursor log, nil when the id is
// not live or the subscription is at-most-once. Caller holds the
// registry lock.
func (e *Engine) ackedQueueLocked(id uint64) *queue {
	if s := e.byID[id]; s != nil {
		return s.q
	}
	return nil
}

// packXML is the packed form of a document persisted as text.
func packXML(xml string, opts xmltree.ParseOptions) ([]byte, error) {
	t, err := xmltree.ParseString(xml, opts)
	return xmltree.Pack(t), err
}

// partition resolves a snapshotted or journaled partition — members and
// representatives named by key, a registry index or a subscription id,
// which lookup maps to the live subscription or nil — into installLocked's
// form, and checks that it is one: each of the live subscriptions in
// exactly one nonempty community, each representative one of its
// members.
func partition[K comparable](keys [][]K, repKeys []K, live int, lookup func(K) *subscriber) ([][]*subscriber, []*subscriber, error) {
	if len(keys) != len(repKeys) {
		return nil, nil, fmt.Errorf("%d groups, %d representatives", len(keys), len(repKeys))
	}
	groups, reps := make([][]*subscriber, len(keys)), make([]*subscriber, len(keys))
	seen := make(map[*subscriber]bool, live)
	for g, members := range keys {
		for _, k := range members {
			s := lookup(k)
			if s == nil || seen[s] {
				return nil, nil, fmt.Errorf("group %d: member %v unknown or in another group", g, k)
			}
			seen[s] = true
			groups[g] = append(groups[g], s)
			if k == repKeys[g] {
				reps[g] = s
			}
		}
		if reps[g] == nil {
			return nil, nil, fmt.Errorf("group %d: representative %v not a member", g, repKeys[g])
		}
		slices.SortFunc(groups[g], idOrder)
	}
	if len(seen) != live {
		return nil, nil, fmt.Errorf("partition covers %d of %d subscriptions", len(seen), live)
	}
	return groups, reps, nil
}
