// Package persist is the broker's durability layer: an atomic
// point-in-time snapshot plus a write-ahead log of what the broker
// committed after it. The two files live side by side in a data
// directory:
//
//	<dir>/snapshot.snap   latest snapshot (atomic: temp + fsync + rename)
//	<dir>/wal.log         records appended since the snapshot
//
// The log holds seven kinds of record: the registry's decisions
// (subscribe, unsubscribe, rebuild), the at-least-once delivery plane's
// (deliver, ack, drained), and the overlay epoch a federated broker
// booted with (boot). Recovery (broker.Recover) loads the snapshot (if
// any) and replays the WAL tail.
// Records are LSN-numbered; the snapshot stamps the last LSN it covers,
// and replay skips records at or below that watermark, which makes
// recovery idempotent under every crash interleaving — including a
// crash between the snapshot rename and the WAL truncation that
// normally follows it (the stale records are simply skipped on the next
// boot).
//
// The WAL is length-prefixed and CRC-checked per record. A torn final
// record — the expected artifact of crashing mid-append — is detected,
// logged off, and the file is truncated back to the last intact record,
// so a crashed broker always reopens cleanly.
//
// The package is deliberately ignorant of broker internals: a record
// carries enough to replay one decision (a subscribe, for instance, its
// expression and the community placement the broker chose), and the
// snapshot payload is an opaque byte slice the broker encodes itself.
package persist

// Record operation kinds.
const (
	// OpSubscribe records a committed subscription: the broker-assigned
	// id, the pattern expression, and the community group index the
	// clustering chose — the decision is logged, not re-derived, so
	// replay is deterministic even though the estimator state at replay
	// time differs from the state that drove the original assignment.
	OpSubscribe = "sub"
	// OpUnsubscribe records a committed removal by subscription id.
	OpUnsubscribe = "unsub"
	// OpRebuild records a full clustering rebuild as the complete
	// partition keyed by stable subscription ids.
	OpRebuild = "rebuild"
	// OpDeliver records the at-least-once deliveries of one published
	// document: the document's sequence number and content, plus the
	// (subscription id, cursor) pairs the routing fan-out enqueued. Only
	// acked-mode subscriptions appear — at-most-once deliveries are
	// ephemeral by contract and never journaled. The content is packed
	// (Doc; a binary record, see wal.go); logs from before that carry XML
	// text in a JSON record, still read and, if XML is set, still written.
	OpDeliver = "deliver"
	// OpAck records a committed cursor advance: every delivery of the
	// subscription with cursor ≤ Cursor is acknowledged and will never
	// be redelivered.
	OpAck = "ack"
	// OpDrained records that deliveries up to Cursor were handed to a
	// consumer (lease taken). A recovered broker treats them as the
	// in-flight window: still owed, and counted as redeliveries when
	// drained again.
	OpDrained = "drained"
	// OpBootEpoch records the overlay epoch (Seq) a federated broker
	// booted with. Snapshot watermarks alone understate a crashed node's
	// live counters, and two recoveries from the same stale snapshot
	// would otherwise floor the boot epoch at the identical value —
	// reusing the previous incarnation's sequence range, which peers'
	// seen-sets then silently suppress. Recovery takes the max of the
	// snapshot watermarks and every replayed boot record; the record is
	// only ever truncated by a snapshot whose own watermarks exceed it
	// (the node's live counters start at the boot epoch), so the floor
	// never regresses.
	OpBootEpoch = "boot"
)

// Record is one WAL entry. Fields beyond Op are populated per kind:
//
//	OpSubscribe    ID, Expr, Group, Mode
//	OpUnsubscribe  ID
//	OpRebuild      Groups, Reps
//	OpDeliver      Seq, Doc (XML in an older log), Subs, Cursors, Comms
//	OpAck          ID, Cursor
//	OpDrained      ID, Cursor
//	OpBootEpoch    Seq
type Record struct {
	// LSN is the log sequence number, assigned by Append; callers leave
	// it zero. Replay reports it.
	LSN uint64 `json:"lsn,omitempty"`
	// Op is the operation kind, one of the seven Op constants.
	Op string `json:"op"`
	// ID is the subscription id the operation concerns.
	ID uint64 `json:"id,omitempty"`
	// Expr is the subscription's pattern expression (OpSubscribe).
	Expr string `json:"expr,omitempty"`
	// Group is the community group index the subscription was placed in,
	// or len(groups) at commit time when it founded a new community
	// (OpSubscribe).
	Group int `json:"group"`
	// Groups is the full partition after a rebuild, each group listing
	// its member subscription ids (OpRebuild).
	Groups [][]uint64 `json:"groups,omitempty"`
	// Reps lists each rebuilt group's representative subscription id,
	// parallel to Groups (OpRebuild).
	Reps []uint64 `json:"reps,omitempty"`
	// Mode is the subscription's delivery mode (OpSubscribe): 0
	// at-most-once (the default, omitted on the wire), 1 at-least-once.
	Mode uint8 `json:"mode,omitempty"`
	// Seq is the published document's sequence number and Doc its
	// content as xmltree.Pack bytes (OpDeliver; XML in a record of an
	// older log). The content rides in the record so recovery can repin
	// documents the retention ring lost with the process.
	Seq uint64 `json:"seq,omitempty"`
	Doc []byte `json:"-"`
	XML string `json:"xml,omitempty"`
	// Subs/Cursors/Comms are the parallel per-delivery arrays of an
	// OpDeliver record: receiving subscription id, the cursor assigned,
	// and the matched community index.
	Subs    []uint64 `json:"subs,omitempty"`
	Cursors []uint64 `json:"cursors,omitempty"`
	Comms   []int    `json:"comms,omitempty"`
	// Cursor is the acknowledged (OpAck) or handed-out (OpDrained)
	// cursor watermark for subscription ID.
	Cursor uint64 `json:"cursor,omitempty"`
}
