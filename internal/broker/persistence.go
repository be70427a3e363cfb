package broker

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
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

// A snapshot payload (format 2) is a stream of small gob messages
// written straight into the store's file: a snapHeader, Subs SubEntry
// messages, a State holding only the partition, Docs snapDoc messages
// (pinned documents, packed), then core.Estimator.Save's own stream. A
// format-1 payload (decodeSnapshotV1) is read, never written.
const (
	stateFormat    = 1 // State, the whole of a format-1 payload
	snapshotFormat = 2
)

// snapHeader opens a format-2 payload: the engine's and the overlay's
// watermarks and the section counts.
type snapHeader struct {
	Format                       int
	NextID, PubSeq, WalLSN       uint64
	AdvertVersion, OverlayPubSeq uint64
	Subs, Docs                   int
}

// snapDoc is one entry of State.Packed.
type snapDoc struct {
	Seq uint64
	Doc []byte
}

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
// watermarks and the pinned documents; WriteSnapshot streams the
// estimator synopsis after it. (Snapshots written by the sharded layout
// also carry Shards and CommShard; gob drops fields the struct no longer
// has, and that layout re-balances a snapshot without them, so both
// directions recover.)
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
	// Estimator is core.Estimator.Save's bytes in a format-1 payload
	// (read, never written); est is a format-2 payload's estimator.
	Estimator []byte
	est       *core.Estimator
}

// DecodeState parses the State of a format-1 payload.
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

// State snapshots the engine's durable state but the estimator: one
// consistent cut of the registry and clustering, then the documents it
// references.
//
// Unlike the mutating entry points, State works on a closed engine: a
// closed engine is quiescent (no further commits can race the cut),
// which is exactly what an ordered shutdown wants for its final
// snapshot — close the engine first, then snapshot what it settled on.
func (e *Engine) State() (*State, error) {
	// The watermark is read under the registry lock and before any cursor
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
			se.Committed, se.LastCursor, se.Queued = s.cur.snapshotEntries()
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
	return st, nil
}

// WriteSnapshot publishes a State cut of the engine as store's
// snapshot, stamped with the overlay's epoch watermarks (zero for a
// broker outside a federation) and covering exactly the journal records
// the cut includes (State.WalLSN): records committed between the cut and
// the write stay above the watermark and replay over it. The estimator
// streams last, under its read lock, and may hold documents ingested
// after the cut — harmless skew: it only steers future clustering, whose
// decisions are journaled. Call Flush first for a deterministic synopsis.
func (e *Engine) WriteSnapshot(store *persist.Store, advertVersion, pubSeq uint64) error {
	st, err := e.State()
	if err != nil {
		return err
	}
	return store.WriteSnapshot(st.WalLSN, func(w io.Writer) error {
		return e.encodeSnapshot(w, st, advertVersion, pubSeq)
	})
}

// encodeSnapshot writes st and the estimator to w as a format-2
// payload.
func (e *Engine) encodeSnapshot(w io.Writer, st *State, advertVersion, pubSeq uint64) error {
	enc := gob.NewEncoder(w)
	err := enc.Encode(&snapHeader{snapshotFormat, st.NextID, st.PubSeq, st.WalLSN, advertVersion, pubSeq, len(st.Subs), len(st.Packed)})
	for i := 0; i < len(st.Subs) && err == nil; i++ {
		err = enc.Encode(&st.Subs[i])
	}
	if err == nil {
		err = enc.Encode(&State{Groups: st.Groups, Reps: st.Reps})
	}
	for _, seq := range slices.Sorted(maps.Keys(st.Packed)) {
		if err == nil {
			err = enc.Encode(&snapDoc{seq, st.Packed[seq]})
		}
	}
	if err != nil {
		return fmt.Errorf("broker: encode snapshot: %w", err)
	}
	return e.est.Save(w)
}

// decodeSnapshot reads a format-2 payload into a State and the overlay
// epoch floor.
func decodeSnapshot(r io.Reader) (*State, uint64, error) {
	br := bufio.NewReader(r) // a ByteReader: gob reads no further than each message
	dec := gob.NewDecoder(br)
	var hdr snapHeader
	err := dec.Decode(&hdr)
	if err == nil && hdr.Format != snapshotFormat {
		err = fmt.Errorf("format %d, want %d", hdr.Format, snapshotFormat)
	}
	st := &State{Format: stateFormat, Packed: map[uint64][]byte{}}
	for i := 0; i < hdr.Subs && err == nil; i++ {
		var se SubEntry
		err = dec.Decode(&se)
		st.Subs = append(st.Subs, se)
	}
	if err == nil {
		err = dec.Decode(st)
	}
	for i := 0; i < hdr.Docs && err == nil; i++ {
		var d snapDoc
		err = dec.Decode(&d)
		st.Packed[d.Seq] = d.Doc
	}
	if err == nil {
		st.est, err = core.LoadEstimator(br)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("broker: decode snapshot: %w", err)
	}
	st.NextID, st.PubSeq, st.WalLSN = hdr.NextID, hdr.PubSeq, hdr.WalLSN
	return st, max(hdr.AdvertVersion, hdr.OverlayPubSeq), nil
}

// Restore starts an engine from a snapshot: the estimator is the one
// the snapshot saved (State.Estimator, or streamed in a format-2
// payload), every subscription re-enters its snapshotted
// community, and the forest and routing table are rebuilt directly from
// the saved partition — no similarity computation and no greedy
// re-clustering on the recovery path.
func Restore(cfg Config, st *State) (_ *Engine, err error) {
	cfg = cfg.withDefaults()
	if st == nil {
		return nil, fmt.Errorf("broker: restore: nil state")
	}
	est := st.est
	if len(st.Estimator) > 0 {
		if est, err = core.LoadEstimator(bytes.NewReader(st.Estimator)); err != nil {
			return nil, fmt.Errorf("broker: restore estimator: %w", err)
		}
	}
	if est != nil {
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
			doc, err := xmltree.ParsePacked(strings.NewReader(xml), cfg.Estimator.ParseOptions)
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
		if a := s.cur.ack; a != nil {
			// The engine is not shared yet; fields are set directly. The
			// cursor carries its entries, all redeliverable, onto its log.
			a.committed, a.floor, a.off, a.delivered = se.Committed, se.LastCursor, se.LastCursor+1, uint64(len(se.Queued))
			for _, qd := range se.Queued {
				s.cur.carry = append(s.cur.carry, carried{cursor: qd.Cursor, doc: qd.Doc, comm: int32(qd.Community), attempts: int32(qd.Attempts)})
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
	e, floor, err := restoreSnapshot(cfg, store)
	if err != nil {
		return nil, 0, err
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

// restoreSnapshot restores store's snapshot (a fresh engine without
// one) and returns the engine with the overlay epoch floor.
func restoreSnapshot(cfg Config, store *persist.Store) (e *Engine, floor uint64, err error) {
	ok, err := store.LoadSnapshot(func(r io.Reader, format int) error {
		decode := decodeSnapshot
		if format == 1 {
			decode = decodeSnapshotV1
		}
		st, fl, err := decode(r)
		if err == nil {
			floor = fl
			e, err = Restore(cfg, st)
		}
		return err
	})
	if err == nil && !ok {
		e = New(cfg)
	}
	return e, floor, err
}

// decodeSnapshotV1 reads a format-1 payload: an envelope holding the
// gob State and the overlay's watermarks.
func decodeSnapshotV1(r io.Reader) (*State, uint64, error) {
	var env struct {
		Broker                []byte
		AdvertVersion, PubSeq uint64
	}
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return nil, 0, fmt.Errorf("broker: decode snapshot envelope: %w", err)
	}
	st, err := DecodeState(env.Broker)
	return st, max(env.AdvertVersion, env.PubSeq), err
}

// Journal is the engine's write-ahead log: each mutation arrives as one
// persist.Record and Append returns the log sequence number the record
// was assigned. *persist.Store is the implementation. One rule orders the
// log. A registry record (OpSubscribe, OpUnsubscribe, OpRebuild) is
// appended inside its registry critical section, before the table edit
// that makes its effect visible to publishes — so a delivery to a new
// subscription is always logged after the subscription. A delivery
// record (OpDeliver, OpAck, OpDrained) is appended after its effect on
// the log or cursor. The engine keeps the highest LSN Append returned as
// one watermark, and State reads it under the registry lock before copying
// any cursor: a record at or below it has its effect in the cut; a
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
//     subscription's cursor, in cursor order, unless the cursor was
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
			doc, err = xmltree.ParsePacked(strings.NewReader(rec.XML), e.cfg.Estimator.ParseOptions)
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
	if rec.Op == persist.OpDeliver || rec.Op == persist.OpAck || rec.Op == persist.OpDrained {
		e.routeMu.Lock() // publishes read a cursor's numbering under it
		defer e.routeMu.Unlock()
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
			if s := e.byID[id]; s != nil && s.mode == AtLeastOnce {
				s.cur.restore(rec.Cursors[i], rec.Seq, rec.Comms[i], doc)
			}
		}
	case persist.OpAck:
		if s := e.byID[rec.ID]; s != nil && s.mode == AtLeastOnce {
			s.cur.ackUpto(rec.Cursor, false)
		}
	case persist.OpDrained:
		if s := e.byID[rec.ID]; s != nil && s.mode == AtLeastOnce {
			s.cur.markDrained(rec.Cursor)
		}
	default:
		return fmt.Errorf("broker: unknown wal op %q", rec.Op)
	}
	return nil
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
