package broker

import (
	"bytes"
	"encoding/gob"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"treesim/internal/core"
	"treesim/internal/persist"
	"treesim/internal/xmltree"
)

// replayStore drives a Store's WAL tail through Engine.Apply, as
// Recover does, checking the forest layout after every record.
func replayStore(t *testing.T, s *persist.Store, e *Engine) {
	t.Helper()
	if err := s.Replay(func(rec persist.Record) error {
		defer checkForests(t, e)
		return e.Apply(rec)
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

// streamState restores st, with e's estimator, through the format-2
// snapshot payload.
func streamState(t *testing.T, cfg Config, e *Engine, st *State) *Engine {
	t.Helper()
	var buf bytes.Buffer
	if err := e.encodeSnapshot(&buf, st, 0, 0); err != nil {
		t.Fatal(err)
	}
	st2, _, err := decodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Restore(cfg, st2)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	t.Cleanup(func() { rec.Close() })
	return rec
}

// loadSnapshot restores store's snapshot, without replaying the WAL.
func loadSnapshot(t *testing.T, cfg Config, store *persist.Store) *Engine {
	t.Helper()
	rec, _, err := restoreSnapshot(cfg, store)
	if err != nil {
		t.Fatalf("restore snapshot: %v", err)
	}
	t.Cleanup(func() { rec.Close() })
	return rec
}

// writeV1Snapshot writes st, with e's estimator, as dir's snapshot in
// format 1: a gob snapFile around a gob envelope around a gob State
// holding the estimator's saved bytes, covering the WAL up to st.WalLSN.
// Reopen the store to read it.
func writeV1Snapshot(t *testing.T, dir string, e *Engine, st *State) {
	t.Helper()
	var est, state, env, file bytes.Buffer
	v1 := *st
	err := e.est.Save(&est)
	v1.Estimator = est.Bytes()
	if err == nil {
		err = gob.NewEncoder(&state).Encode(&v1)
	}
	if err == nil {
		err = gob.NewEncoder(&env).Encode(struct{ Broker []byte }{state.Bytes()})
	}
	if err == nil {
		err = gob.NewEncoder(&file).Encode(struct {
			Format  int
			LastLSN uint64
			CRC     uint32
			Payload []byte
		}{1, st.WalLSN, crc32.ChecksumIEEE(env.Bytes()), env.Bytes()})
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "snapshot.snap"), file.Bytes(), 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// canonPartition sorts a partition into comparable form.
func canonPartition(groups [][]uint64) [][]uint64 {
	out := make([][]uint64, 0, len(groups))
	for _, g := range groups {
		cp := append([]uint64(nil), g...)
		sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) == 0 || len(out[j]) == 0 {
			return len(out[i]) < len(out[j])
		}
		return out[i][0] < out[j][0]
	})
	return out
}

func partitionsEqual(a, b [][]uint64) bool {
	a, b = canonPartition(a), canonPartition(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// deliveries drains every queued delivery for id as a sorted doc-seq
// list.
func deliveries(t *testing.T, e *Engine, id uint64) []uint64 {
	t.Helper()
	ds, err := e.Drain(id, 10000, 0)
	if err != nil {
		t.Fatalf("Drain(%d): %v", id, err)
	}
	seqs := make([]uint64, len(ds))
	for i, d := range ds {
		seqs[i] = d.Doc
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

var recoveryPatterns = []string{
	"/site/regions//item", "/site/regions/africa/item", "/site//item/name",
	"/site/people/person", "/site/people/person/name", "//person//emailaddress",
	"/site/closed_auctions//price", "//price", "/site/open_auctions/open_auction",
	"//open_auction/bidder", "/site/categories/category", "//category/description",
}

var recoveryDocs = []string{
	"site(regions(africa(item(name)),asia(item)))",
	"site(people(person(name,emailaddress)))",
	"site(closed_auctions(closed_auction(price)))",
	"site(open_auctions(open_auction(bidder,bidder)))",
	"site(categories(category(description)))",
	"site(regions(europe(item(name,description))))",
	"site(people(person(emailaddress),person(name)))",
	"site(open_auctions(open_auction(price)))",
}

// publishAll publishes the shared document set, waits for ingestion,
// and returns each document's assigned sequence (index-aligned with
// recoveryDocs).
func publishAll(t *testing.T, e *Engine) []uint64 {
	t.Helper()
	seqs := make([]uint64, len(recoveryDocs))
	for i, c := range recoveryDocs {
		res, err := e.Publish(doc(t, c))
		if err != nil {
			t.Fatalf("Publish: %v", err)
		}
		seqs[i] = res.Seq
	}
	e.Flush()
	return seqs
}

// assertSameRouting publishes the doc set to both engines and demands
// identical per-subscription delivery streams. Streams are compared by
// document (position in the published batch), not raw sequence number —
// the engines' sequence counters may sit at different offsets.
func assertSameRouting(t *testing.T, orig, rec *Engine, ids []uint64) {
	t.Helper()
	docOf := func(seqs []uint64) map[uint64]int {
		m := make(map[uint64]int, len(seqs))
		for i, s := range seqs {
			m[s] = i
		}
		return m
	}
	aDocs := docOf(publishAll(t, orig))
	bDocs := docOf(publishAll(t, rec))
	toDocs := func(m map[uint64]int, seqs []uint64) []int {
		out := make([]int, len(seqs))
		for i, s := range seqs {
			d, ok := m[s]
			if !ok {
				t.Fatalf("delivery of seq %d not from this batch", s)
			}
			out[i] = d
		}
		sort.Ints(out)
		return out
	}
	for _, id := range ids {
		a := toDocs(aDocs, deliveries(t, orig, id))
		b := toDocs(bDocs, deliveries(t, rec, id))
		if len(a) != len(b) {
			t.Fatalf("subscription %d: original delivered docs %v, recovered %v", id, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("subscription %d: original delivered docs %v, recovered %v", id, a, b)
			}
		}
	}
}

func recoveryConfig() Config {
	return Config{
		Estimator: core.Config{Representation: core.Sets, Seed: 7},
	}
}

// TestRecoveryEquivalence is the end-to-end crash test: journaled churn,
// a mid-life snapshot, more journaled churn (including a forced
// rebuild), then recovery from snapshot + WAL tail. The recovered
// engine must hold the identical community partition and route every
// document to the identical subscriptions.
func TestRecoveryEquivalence(t *testing.T) {
	cfg := recoveryConfig()
	store, err := persist.Open(t.TempDir(), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	e := newTestEngine(t, cfg)
	e.SetJournal(store)

	// Seed the estimator, then churn phase 1 (covered by the snapshot).
	publishAll(t, e)
	var ids []uint64
	for _, p := range recoveryPatterns[:8] {
		id, err := e.Subscribe(p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		checkForests(t, e)
	}

	// Snapshot mid-life.
	e.Flush()
	if err := e.WriteSnapshot(store, 0, 0); err != nil {
		t.Fatal(err)
	}

	// Churn phase 2: WAL-tail-only. No publishes here, so the original
	// and recovered engines assign identical doc sequence numbers below.
	for _, p := range recoveryPatterns[8:] {
		id, err := e.Subscribe(p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		checkForests(t, e)
	}
	if !e.Unsubscribe(ids[1]) || !e.Unsubscribe(ids[4]) {
		t.Fatal("unsubscribe failed")
	}
	checkForests(t, e)
	live := append(append([]uint64(nil), ids[:1]...), ids[2], ids[3])
	live = append(live, ids[5:]...)
	e.Rebuild() // forces a journaled OpRebuild
	checkForests(t, e)

	// "Crash" and recover: snapshot + WAL tail.
	rec := loadSnapshot(t, cfg, store)
	checkForests(t, rec)
	replayStore(t, store, rec)

	if rec.Live() != e.Live() {
		t.Fatalf("recovered Live = %d, original %d", rec.Live(), e.Live())
	}
	if !partitionsEqual(e.CommunityIDs(), rec.CommunityIDs()) {
		t.Fatalf("partitions differ:\noriginal:  %v\nrecovered: %v",
			canonPartition(e.CommunityIDs()), canonPartition(rec.CommunityIDs()))
	}
	assertSameRouting(t, e, rec, live)
}

// TestRecoveryWALOnly recovers with no snapshot at all: the full journal
// replayed into a fresh engine.
func TestRecoveryWALOnly(t *testing.T) {
	cfg := recoveryConfig()
	store, err := persist.Open(t.TempDir(), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	e := newTestEngine(t, cfg)
	e.SetJournal(store)
	var ids []uint64
	for _, p := range recoveryPatterns {
		id, err := e.Subscribe(p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		checkForests(t, e)
	}
	e.Unsubscribe(ids[0])
	checkForests(t, e)

	rec := newTestEngine(t, cfg)
	replayStore(t, store, rec)
	if rec.Live() != e.Live() {
		t.Fatalf("recovered Live = %d, original %d", rec.Live(), e.Live())
	}
	if !partitionsEqual(e.CommunityIDs(), rec.CommunityIDs()) {
		t.Fatalf("partitions differ:\noriginal:  %v\nrecovered: %v",
			canonPartition(e.CommunityIDs()), canonPartition(rec.CommunityIDs()))
	}
	assertSameRouting(t, e, rec, ids[1:])
}

// TestSnapshotWatermarkExcludesConcurrentChurn reproduces the lost-
// churn race: a subscribe commits and journals AFTER the State cut but
// BEFORE the snapshot write. Stamping the snapshot with the store's
// tail LSN at write time would mark that record as covered — its
// effect absent from the payload yet skipped on replay, silently
// losing acked churn. State.WalLSN is the cut's own watermark, so the
// straggler's record stays above it and replays.
func TestSnapshotWatermarkExcludesConcurrentChurn(t *testing.T) {
	cfg := recoveryConfig()
	store, err := persist.Open(t.TempDir(), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	e := newTestEngine(t, cfg)
	e.SetJournal(store)
	if _, err := e.Subscribe(recoveryPatterns[0]); err != nil {
		t.Fatal(err)
	}

	// The state cut (covers one subscription, WalLSN 1)...
	st, err := e.State()
	if err != nil {
		t.Fatal(err)
	}
	if st.WalLSN != 1 {
		t.Fatalf("State.WalLSN = %d, want 1", st.WalLSN)
	}
	// ...then a subscribe commits before the snapshot is written...
	straggler, err := e.Subscribe(recoveryPatterns[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteSnapshot(st.WalLSN, func(w io.Writer) error { return e.encodeSnapshot(w, st, 0, 0) }); err != nil {
		t.Fatal(err)
	}

	// Crash + recover: the straggler's WAL record must replay.
	rec := loadSnapshot(t, cfg, store)
	if rec.Live() != 1 {
		t.Fatalf("restored snapshot holds %d subscriptions, want 1 (straggler excluded)", rec.Live())
	}
	replayStore(t, store, rec)
	if rec.Live() != 2 {
		t.Fatalf("recovered Live = %d, want 2 (straggler replayed from the WAL)", rec.Live())
	}
	if _, err := rec.Drain(straggler, 1, 0); err != nil {
		t.Fatalf("straggler subscription %d lost across recovery: %v", straggler, err)
	}
}

// TestReplayIdempotent replays the same WAL twice into one engine: the
// second pass must be a complete no-op (the snapshot/WAL overlap case).
func TestReplayIdempotent(t *testing.T) {
	cfg := recoveryConfig()
	store, err := persist.Open(t.TempDir(), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	e := newTestEngine(t, cfg)
	e.SetJournal(store)
	for _, p := range recoveryPatterns[:6] {
		if _, err := e.Subscribe(p); err != nil {
			t.Fatal(err)
		}
	}
	e.Rebuild()

	rec := newTestEngine(t, cfg)
	replayStore(t, store, rec)
	want := canonPartition(rec.CommunityIDs())
	replayStore(t, store, rec) // again
	if rec.Live() != 6 {
		t.Fatalf("Live after double replay = %d, want 6", rec.Live())
	}
	if !partitionsEqual(rec.CommunityIDs(), want) {
		t.Fatalf("double replay changed the partition")
	}
	// Unknown-id unsubscribe replay is a no-op, not an error.
	if err := rec.Apply(persist.Record{Op: persist.OpUnsubscribe, ID: 99999}); err != nil {
		t.Fatalf("Apply(unsubscribe unknown) = %v", err)
	}
}

// legacyState is State as the sharded layout wrote it: the same fields
// plus the shard count, the per-community shard pins and the churn
// count since the last rebuild.
type legacyState struct {
	Format    int
	Shards    int
	Subs      []SubEntry
	Groups    [][]int
	Reps      []int
	CommShard []int
	NextID    uint64
	Stale     int
	PubSeq    uint64
	WalLSN    uint64
	Docs      map[uint64]string
	Estimator []byte
}

// TestRestoreShardSkew restores a snapshot written by the sharded
// layout (Shards: 2, a CommShard and a Stale count, gob-encoded from a
// struct that still has those fields) and one written without them: both must
// recover the same partition and route like the engine that was built
// by subscribing.
func TestRestoreShardSkew(t *testing.T) {
	cfg := recoveryConfig()
	e := newTestEngine(t, cfg)
	publishAll(t, e)
	var ids []uint64
	for _, p := range recoveryPatterns {
		id, err := e.Subscribe(p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	e.Flush()
	st, err := e.State()
	if err != nil {
		t.Fatal(err)
	}
	var est bytes.Buffer
	if err := e.est.Save(&est); err != nil {
		t.Fatal(err)
	}
	old := legacyState{
		Format: st.Format, Shards: 2, Subs: st.Subs, Groups: st.Groups, Reps: st.Reps,
		CommShard: make([]int, len(st.Groups)),
		NextID:    st.NextID, Stale: 3, PubSeq: st.PubSeq, WalLSN: st.WalLSN,
		Docs: st.Docs, Estimator: est.Bytes(),
	}
	for g := range old.CommShard {
		old.CommShard[g] = g % 2
	}
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(&old); err != nil {
		t.Fatal(err)
	}

	for name, restored := range map[string]func(t *testing.T) *Engine{
		"sharded": func(t *testing.T) *Engine {
			st2, err := DecodeState(legacy.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			rec, err := Restore(cfg, st2)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { rec.Close() })
			return rec
		},
		"current": func(t *testing.T) *Engine { return streamState(t, cfg, e, st) },
	} {
		t.Run(name, func(t *testing.T) {
			rec := restored(t)
			checkForests(t, rec)
			if !partitionsEqual(e.CommunityIDs(), rec.CommunityIDs()) {
				t.Fatal("partitions differ")
			}
			assertSameRouting(t, e, rec, ids)
		})
	}
}

// injectRemote is a remote PublishFlat of t, loaded as the overlay loads
// a forwarded publication.
func injectRemote(e *Engine, t *xmltree.Tree) (PublishResult, error) {
	var f xmltree.Flat
	if _, err := f.LoadPacked(xmltree.Pack(t), nil); err != nil {
		return PublishResult{}, err
	}
	return e.PublishFlat(&f, true)
}

// TestInjectRemoteShedsWhenFull pins the ingester behind a gate, fills
// the one-slot pipeline, and verifies a remote publish sheds with ErrBusy
// (counted) instead of blocking, while the gated document still ingests
// once released.
func TestInjectRemoteShedsWhenFull(t *testing.T) {
	e := newTestEngine(t, Config{IngestQueue: 1})
	gate := make(chan struct{})
	e.ingest <- ingestItem{gate: gate}
	// Wait for the ingester to pick the gate item up (emptying the
	// queue) so the fill below is deterministic.
	for len(e.ingest) != 0 {
		runtime.Gosched()
	}

	d := doc(t, "a(b)")
	if _, err := injectRemote(e, d); err != nil {
		t.Fatalf("InjectRemote into free slot: %v", err)
	}
	if _, err := injectRemote(e, d); err != ErrBusy {
		t.Fatalf("InjectRemote into full pipeline = %v, want ErrBusy", err)
	}
	st := e.Stats()
	if st.RemoteShed != 1 {
		t.Fatalf("RemoteShed = %d, want 1", st.RemoteShed)
	}
	if st.RemoteInjected != 1 {
		t.Fatalf("RemoteInjected = %d, want 1 (the accepted one routed)", st.RemoteInjected)
	}

	close(gate)
	e.Flush() // returns only after everything queued before it ingested
	if got := e.Stats().IngestPending; got != 0 {
		t.Fatalf("IngestPending = %d after gate release + Flush, want 0", got)
	}
	// Local Publish still works with normal blocking semantics.
	if _, err := e.Publish(d); err != nil {
		t.Fatalf("Publish after release: %v", err)
	}
}

// TestJournalRecordsDecisions checks the journal stream itself: commits
// emit sub/unsub/rebuild records in order with the chosen group
// indices.
func TestJournalRecordsDecisions(t *testing.T) {
	cfg := recoveryConfig()
	store, err := persist.Open(t.TempDir(), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	e := newTestEngine(t, cfg)
	e.SetJournal(store)
	id1, _ := e.Subscribe("/a/b")
	id2, _ := e.Subscribe("/c/d")
	e.Unsubscribe(id1)
	e.Rebuild()

	var recs []persist.Record
	if err := store.Replay(func(r persist.Record) error { recs = append(recs, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("journal has %d records, want 4: %+v", len(recs), recs)
	}
	if recs[0].Op != persist.OpSubscribe || recs[0].ID != id1 || recs[0].Expr != "/a/b" || recs[0].Group != 0 {
		t.Fatalf("record 0 = %+v", recs[0])
	}
	if recs[1].Op != persist.OpSubscribe || recs[1].ID != id2 {
		t.Fatalf("record 1 = %+v", recs[1])
	}
	if recs[2].Op != persist.OpUnsubscribe || recs[2].ID != id1 {
		t.Fatalf("record 2 = %+v", recs[2])
	}
	if recs[3].Op != persist.OpRebuild || len(recs[3].Groups) == 0 || len(recs[3].Groups) != len(recs[3].Reps) {
		t.Fatalf("record 3 = %+v", recs[3])
	}
	for _, ids := range recs[3].Groups {
		for _, id := range ids {
			if id == id1 {
				t.Fatalf("rebuild partition contains unsubscribed id %d", id1)
			}
		}
	}
}

// olderJournal is a store as builds wrote it before OpDeliver carried
// the document packed: every other delivery record goes out through the
// still-supported text shape (persist.Record{XML: …}, a JSON record),
// the rest as they are written now, so the log mixes both.
type olderJournal struct {
	*persist.Store
	t *testing.T
}

func (j olderJournal) Append(r persist.Record) (uint64, error) {
	if r.Op == persist.OpDeliver && r.Seq%2 == 1 {
		r.Doc, r.XML = nil, textOf(j.t, r.Doc)
	}
	return j.Store.Append(r)
}

// textOf is the XML text of a packed document.
func textOf(t *testing.T, doc []byte) string {
	t.Helper()
	tr, err := xmltree.Unpack(doc)
	if err != nil {
		t.Fatal(err)
	}
	xml, err := xmltree.XMLString(tr, false)
	if err != nil {
		t.Fatal(err)
	}
	return xml
}

// TestRecoveryFromOlderFormats runs one at-least-once history twice —
// into a data directory as this build writes it, and into one as builds
// before packed documents wrote it: a snapshot whose pinned documents
// are the XML text map (State.Docs), and a WAL whose OpDeliver records
// are half JSON with an xml field, half binary. Both must recover to the
// same cursors, redelivery flags, pins and documents.
func TestRecoveryFromOlderFormats(t *testing.T) {
	cfg := Config{Estimator: core.Config{Representation: core.Sets, Seed: 7}, Threshold: 2, DocCache: 4}
	type outcome struct {
		drains map[uint64]DrainResult
		pinned int
		docs   map[uint64]string // canonical text by sequence
	}
	run := func(older bool) outcome {
		dir := t.TempDir()
		store, err := persist.Open(dir, persist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		e := newTestEngine(t, cfg)
		if older {
			e.SetJournal(olderJournal{store, t})
		} else {
			e.SetJournal(store)
		}
		var ids []uint64
		for _, p := range []string{"/site//item", "/site/people/person", "//price"} {
			id, err := e.SubscribeOpts(p, SubscribeOptions{Mode: AtLeastOnce})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		publishAll(t, e) // 8 documents through a ring of 4: the early ones live on pins alone
		if r, err := e.DrainBatch(ids[0], 1, 0); err != nil || len(r.Deliveries) != 1 {
			t.Fatalf("drain: %+v, %v", r, err)
		} else if _, err := e.Ack(ids[0], r.Cursor); err != nil {
			t.Fatal(err)
		}
		if r, err := e.DrainBatch(ids[1], 1, 0); err != nil || len(r.Deliveries) != 1 {
			t.Fatalf("drain: %+v, %v", r, err) // handed out, never acked: snapshot carries Attempts
		}
		st, err := e.State()
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Packed) == 0 || st.Docs != nil {
			t.Fatalf("a snapshot holds %d packed and %d text documents; want some and none", len(st.Packed), len(st.Docs))
		}
		if older {
			st.Docs = make(map[uint64]string, len(st.Packed))
			for seq, doc := range st.Packed {
				st.Docs[seq] = textOf(t, doc)
			}
			st.Packed = nil
			writeV1Snapshot(t, dir, e, st)
			store.Close()
			if store, err = persist.Open(dir, persist.Options{}); err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			e.SetJournal(olderJournal{store, t})
		} else if err := store.WriteSnapshot(st.WalLSN, func(w io.Writer) error { return e.encodeSnapshot(w, st, 0, 0) }); err != nil {
			t.Fatal(err)
		}
		publishAll(t, e) // the WAL tail: sequences 9–16, odd ones as text when older
		if r, err := e.DrainBatch(ids[2], 2, 0); err != nil || len(r.Deliveries) != 2 {
			t.Fatalf("drain: %+v, %v", r, err)
		} else if _, err := e.Ack(ids[2], r.Deliveries[0].Cursor); err != nil {
			t.Fatal(err)
		}

		var st2 *State
		if _, err := store.LoadSnapshot(func(r io.Reader, format int) (err error) {
			if format == 1 {
				st2, _, err = decodeSnapshotV1(r)
			} else {
				st2, _, err = decodeSnapshot(r)
			}
			return err
		}); err != nil || st2 == nil {
			t.Fatalf("LoadSnapshot: %v", err)
		}
		if older != (st2.Packed == nil && len(st2.Docs) > 0) {
			t.Fatalf("older=%v directory decoded %d packed and %d text documents", older, len(st2.Packed), len(st2.Docs))
		}
		rec := loadSnapshot(t, cfg, store)
		text, binary := 0, 0
		if err := store.Replay(func(r persist.Record) error {
			if r.Op == persist.OpDeliver && r.XML != "" {
				text++
			} else if r.Op == persist.OpDeliver {
				binary++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if older != (text > 0) || binary == 0 {
			t.Fatalf("older=%v WAL tail holds %d text and %d binary deliver records", older, text, binary)
		}
		replayStore(t, store, rec)

		out := outcome{drains: map[uint64]DrainResult{}, pinned: rec.Stats().PinnedDocs, docs: map[uint64]string{}}
		for seq := uint64(1); seq <= 16; seq++ {
			if tr := rec.Document(seq); tr != nil {
				out.docs[seq] = tr.Canonicalize().String()
				if want := doc(t, recoveryDocs[(seq-1)%8]).Canonicalize().String(); out.docs[seq] != want {
					t.Errorf("older=%v: document %d recovered as %s, want %s", older, seq, out.docs[seq], want)
				}
			}
		}
		for _, id := range ids {
			r, err := rec.DrainBatch(id, 100, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range r.Deliveries {
				if _, ok := out.docs[d.Doc]; !ok {
					t.Errorf("older=%v: subscription %d is owed document %d, which is gone", older, id, d.Doc)
				}
			}
			out.drains[id] = r
		}
		return out
	}
	now, older := run(false), run(true)
	if !reflect.DeepEqual(now, older) {
		t.Fatalf("recovery differs by format:\nnow   %+v\nolder %+v", now, older)
	}
	if now.pinned == 0 || len(now.docs) != now.pinned {
		t.Fatalf("the history pins %d documents and recovers %d; the test lost its subject", now.pinned, len(now.docs))
	}
	redelivered := 0
	for _, r := range now.drains {
		redelivered += r.Redelivered
	}
	if redelivered == 0 {
		t.Fatal("no recovered delivery is flagged redelivered")
	}
	t.Logf("%d pinned documents, %d retrievable, %d deliveries flagged redelivered, either way", now.pinned, len(now.docs), redelivered)
}

// TestRecoveryEpochFloor pins the overlay epoch floor Recover returns:
// from a snapshot's watermarks, from the boot records of a directory
// with no snapshot, and across two recoveries from one snapshot with a
// boot record between them, where the second floor must clear the
// first. It also checks that a snapshot written right after a recovery
// covers the replayed log.
func TestRecoveryEpochFloor(t *testing.T) {
	cfg := recoveryConfig()
	// recoverDir opens dir and recovers from it; the engine journals into
	// the returned store, which the caller closes to crash.
	recoverDir := func(t *testing.T, dir string) (*Engine, *persist.Store, uint64) {
		t.Helper()
		store, err := persist.Open(dir, persist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		e, floor, err := Recover(cfg, store)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e, store, floor
	}
	boot := func(t *testing.T, store *persist.Store, epoch uint64) {
		t.Helper()
		if _, err := store.Append(persist.Record{Op: persist.OpBootEpoch, Seq: epoch}); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("snapshot", func(t *testing.T) {
		dir := t.TempDir()
		e, store, floor := recoverDir(t, dir)
		if floor != 0 {
			t.Fatalf("empty directory floors the epoch at %d, want 0", floor)
		}
		if _, err := e.Subscribe("/a/b"); err != nil {
			t.Fatal(err)
		}
		if err := e.WriteSnapshot(store, 40, 75); err != nil {
			t.Fatal(err)
		}
		store.Close()
		e, _, floor = recoverDir(t, dir)
		if floor != 75 || e.Live() != 1 {
			t.Fatalf("recovered floor %d with %d subscriptions, want 75 (the snapshot's publication sequence) and 1", floor, e.Live())
		}
	})

	t.Run("wal_only", func(t *testing.T) {
		dir := t.TempDir()
		e, store, _ := recoverDir(t, dir)
		boot(t, store, 30)
		if _, err := e.Subscribe("/a/b"); err != nil {
			t.Fatal(err)
		}
		boot(t, store, 12) // a later, lower boot record: the floor is the maximum
		store.Close()
		e, store, floor := recoverDir(t, dir)
		if floor != 30 || e.Live() != 1 {
			t.Fatalf("recovered floor %d with %d subscriptions, want 30 and 1", floor, e.Live())
		}
		// The engine's watermark starts at the replayed log's last LSN, so
		// a snapshot written now covers all of it and nothing replays.
		if err := e.WriteSnapshot(store, floor, floor); err != nil {
			t.Fatal(err)
		}
		replayed := 0
		if err := store.Replay(func(persist.Record) error { replayed++; return nil }); err != nil {
			t.Fatal(err)
		}
		store.Close()
		if replayed != 0 {
			t.Fatalf("%d records replay over a snapshot written after recovery, want 0", replayed)
		}
		if _, _, floor = recoverDir(t, dir); floor != 30 {
			t.Fatalf("floor after the covering snapshot = %d, want 30", floor)
		}
	})

	t.Run("boot_between_recoveries", func(t *testing.T) {
		dir := t.TempDir()
		e, store, _ := recoverDir(t, dir)
		if err := e.WriteSnapshot(store, 50, 20); err != nil {
			t.Fatal(err)
		}
		store.Close()
		_, store, first := recoverDir(t, dir)
		boot(t, store, first+8) // the incarnation the first recovery booted, above its floor
		store.Close()
		_, _, second := recoverDir(t, dir)
		if first != 50 || second <= first {
			t.Fatalf("floors %d then %d from one snapshot, want 50 then above it", first, second)
		}
	})
}

// TestSnapshotEnvelope reads a format-1 payload: the envelope around a
// gob State, whose overlay watermarks floor the epoch.
func TestSnapshotEnvelope(t *testing.T) {
	var state, env bytes.Buffer
	in := State{Format: stateFormat, NextID: 3, PubSeq: 9, WalLSN: 4}
	if err := gob.NewEncoder(&state).Encode(&in); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&env).Encode(struct {
		Broker                []byte
		AdvertVersion, PubSeq uint64
	}{state.Bytes(), 7, 42}); err != nil {
		t.Fatal(err)
	}
	st, floor, err := decodeSnapshotV1(&env)
	if err != nil || floor != 42 || st.NextID != 3 || st.PubSeq != 9 || st.WalLSN != 4 {
		t.Fatalf("decodeSnapshotV1 = %+v, floor %d, %v; want the state and floor 42", st, floor, err)
	}
}
