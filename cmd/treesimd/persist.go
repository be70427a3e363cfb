package main

// Durability glue (-data-dir): open the data directory, recover the
// engine from its snapshot + WAL tail, journal subsequent subscription
// churn into the WAL, and snapshot periodically and on shutdown. A
// SIGKILLed daemon restarted on the same -data-dir comes back with its
// full subscription registry, community partition, estimator synopsis
// and overlay epoch watermarks.

import (
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"treesim/internal/broker"
	"treesim/internal/overlay"
	"treesim/internal/persist"
	"treesim/internal/telemetry"
)

// walJournal adapts the persist store to the broker's journal hook:
// every committed churn decision becomes one WAL record, and the
// record's LSN flows back so the engine can watermark its state cuts.
type walJournal struct{ s *persist.Store }

func (j walJournal) Subscribed(id uint64, expr string, group int, mode broker.DeliveryMode) (uint64, error) {
	return j.s.Append(persist.Record{Op: persist.OpSubscribe, ID: id, Expr: expr, Group: group, Mode: uint8(mode)})
}

func (j walJournal) Unsubscribed(id uint64) (uint64, error) {
	return j.s.Append(persist.Record{Op: persist.OpUnsubscribe, ID: id})
}

func (j walJournal) Rebuilt(groups [][]uint64, reps []uint64) (uint64, error) {
	return j.s.Append(persist.Record{Op: persist.OpRebuild, Groups: groups, Reps: reps})
}

func (j walJournal) Delivered(seq uint64, doc []byte, subs, cursors []uint64, comms []int) (uint64, error) {
	return j.s.Append(persist.Record{Op: persist.OpDeliver, Seq: seq, Doc: doc, Subs: subs, Cursors: cursors, Comms: comms})
}

func (j walJournal) Acked(id uint64, upto uint64) (uint64, error) {
	return j.s.Append(persist.Record{Op: persist.OpAck, ID: id, Cursor: upto})
}

func (j walJournal) Drained(id uint64, upto uint64) (uint64, error) {
	return j.s.Append(persist.Record{Op: persist.OpDrained, ID: id, Cursor: upto})
}

// daemonPersist owns the store and the periodic snapshot loop.
type daemonPersist struct {
	store *persist.Store
	eng   *broker.Engine
	node  atomic.Pointer[overlay.Node]
	// floor is the WAL watermark recovery already replayed into the
	// engine. Replayed operations are not re-journaled, so the engine's
	// own State.WalLSN starts at zero; any snapshot this daemon writes
	// covers at least the recovered prefix, so the effective watermark
	// is max(State.WalLSN, floor).
	floor uint64
	log   *slog.Logger
	stop  chan struct{}
	done  chan struct{}
}

// openDataDir recovers (or initializes) a broker from the data
// directory and returns the persistence handle, the live engine, and
// the overlay epoch floor — the advert-version/publication-sequence
// watermark persisted at the last snapshot, raised by any boot-epoch
// records in the WAL tail. The floor understates the pre-crash live
// values by whatever the node issued after that snapshot; overlay.New
// pads it before flooring the boot epoch, so a restarted node outruns
// everything its peers have already seen even if the clock regressed.
// The boot records matter when the same snapshot serves several
// recoveries in a row: without them each boot would floor at the same
// padded value and replay the previous incarnation's sequence range,
// which peers' seen-sets silently swallow.
// fsys selects the filesystem the store persists through (nil: the
// real one; the -fault-disk flag injects failpoints here).
func openDataDir(dir string, cfg broker.Config, walSync bool, fsys persist.FS, reg *telemetry.Registry, logger *slog.Logger) (*daemonPersist, *broker.Engine, uint64, error) {
	store, err := persist.Open(dir, persist.Options{SyncEveryAppend: walSync, Telemetry: reg, FS: fsys})
	if err != nil {
		return nil, nil, 0, err
	}
	var (
		eng      *broker.Engine
		minEpoch uint64
		hadSnap  bool
	)
	payload, ok, err := store.LoadSnapshot()
	if err != nil {
		store.Close()
		return nil, nil, 0, err
	}
	if ok {
		hadSnap = true
		env, err := persist.DecodeSnapshot(payload)
		if err != nil {
			store.Close()
			return nil, nil, 0, err
		}
		st, err := broker.DecodeState(env.Broker)
		if err != nil {
			store.Close()
			return nil, nil, 0, err
		}
		eng, err = broker.Restore(cfg, st)
		if err != nil {
			store.Close()
			return nil, nil, 0, err
		}
		minEpoch = env.AdvertVersion
		if env.PubSeq > minEpoch {
			minEpoch = env.PubSeq
		}
	} else {
		eng = broker.New(cfg)
	}
	replayed := 0
	if err := store.Replay(func(rec persist.Record) error {
		replayed++
		switch rec.Op {
		case persist.OpSubscribe:
			return eng.ApplySubscribed(rec.ID, rec.Expr, rec.Group, broker.DeliveryMode(rec.Mode))
		case persist.OpUnsubscribe:
			return eng.ApplyUnsubscribed(rec.ID)
		case persist.OpRebuild:
			return eng.ApplyRebuilt(rec.Groups, rec.Reps)
		case persist.OpDeliver:
			if rec.XML != "" { // a log written before records carried the document packed
				return eng.ApplyDeliveredXML(rec.Seq, rec.XML, rec.Subs, rec.Cursors, rec.Comms)
			}
			return eng.ApplyDelivered(rec.Seq, rec.Doc, rec.Subs, rec.Cursors, rec.Comms)
		case persist.OpAck:
			return eng.ApplyAcked(rec.ID, rec.Cursor)
		case persist.OpDrained:
			return eng.ApplyDrained(rec.ID, rec.Cursor)
		case persist.OpBootEpoch:
			if rec.Seq > minEpoch {
				minEpoch = rec.Seq
			}
			return nil
		default:
			return fmt.Errorf("unknown wal op %q", rec.Op)
		}
	}); err != nil {
		eng.Close()
		store.Close()
		return nil, nil, 0, fmt.Errorf("replay %s: %w", dir, err)
	}
	// Journal only after replay: recovered operations must not re-enter
	// the WAL.
	eng.SetJournal(walJournal{store})
	logger.Info("recovered from data dir", "dir", dir,
		"subscriptions", eng.Live(), "snapshot", hadSnap, "wal_records", replayed)
	p := &daemonPersist{
		store: store,
		eng:   eng,
		floor: store.LastLSN(),
		log:   logger,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	return p, eng, minEpoch, nil
}

// setNode attaches the overlay node whose epoch watermarks snapshots
// should carry (federated daemons only), and journals the epoch the
// node booted with so the next recovery floors above this incarnation
// even if no snapshot lands before the next crash. A journal failure
// latches the store fail-stop like any other append; the node still
// runs (degraded, at-most-once).
func (p *daemonPersist) setNode(n *overlay.Node) {
	p.node.Store(n)
	av, ps := n.Epoch()
	epoch := av
	if ps > epoch {
		epoch = ps
	}
	if _, err := p.store.Append(persist.Record{Op: persist.OpBootEpoch, Seq: epoch}); err != nil {
		p.log.Warn("journal boot epoch failed", "err", err.Error())
	}
}

// snapshot publishes a point-in-time snapshot covering exactly the
// journaled churn its state cut includes. Subscribes committing between
// the cut and the write get LSNs above the watermark, so their WAL
// records survive the snapshot and replay on recovery.
func (p *daemonPersist) snapshot() error {
	st, err := p.eng.State()
	if err != nil {
		return err
	}
	data, err := broker.EncodeState(st)
	if err != nil {
		return err
	}
	env := persist.Snapshot{Broker: data}
	if n := p.node.Load(); n != nil {
		env.AdvertVersion, env.PubSeq = n.Epoch()
	}
	payload, err := env.Encode()
	if err != nil {
		return err
	}
	upto := st.WalLSN
	if upto < p.floor {
		upto = p.floor // recovered-and-replayed records are in every cut
	}
	return p.store.WriteSnapshot(payload, upto)
}

// run is the periodic snapshot loop; a tick with no WAL growth since
// the last snapshot is skipped. interval <= 0 disables periodic
// snapshots (the WAL alone carries durability until shutdown).
func (p *daemonPersist) run(interval time.Duration) {
	defer close(p.done)
	if interval <= 0 {
		<-p.stop
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			if p.store.Pending() == 0 || p.store.Failed() {
				// A failed store is fail-stop: every further snapshot
				// attempt would just re-fail, so stop hammering it.
				continue
			}
			if err := p.snapshot(); err != nil {
				p.log.Warn("periodic snapshot failed", "err", err.Error())
			}
		}
	}
}

// shutdown stops the loop, takes a final snapshot, and closes the
// store. Call it only after Engine.Close: a closed engine is quiescent,
// so no handler can commit churn that would post-date the final
// snapshot or journal against the closed store. A failed final
// snapshot is logged, not fatal: the WAL already holds everything.
func (p *daemonPersist) shutdown() {
	close(p.stop)
	<-p.done
	if p.store.Failed() {
		p.log.Warn("store failed earlier; skipping final snapshot (wal retains the pre-fault prefix)")
	} else if err := p.snapshot(); err != nil {
		p.log.Warn("final snapshot failed (wal retains full state)", "err", err.Error())
	}
	if err := p.store.Close(); err != nil {
		p.log.Warn("close data dir failed", "err", err.Error())
	}
}
