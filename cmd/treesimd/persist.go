package main

// Durability (-data-dir): recover the engine from the directory's
// snapshot + WAL (broker.Recover, which also installs the store as the
// engine's journal), and snapshot periodically and on shutdown. A
// SIGKILLed daemon restarted on the same -data-dir comes back with its
// full subscription registry, community partition, estimator synopsis
// and overlay epoch watermarks.

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"treesim/internal/broker"
	"treesim/internal/persist"
)

// openEngine builds the engine: recovered (or initialized) from the
// data directory, or fresh and in-memory without one. It returns the
// overlay epoch floor broker.Recover computed; overlay.New pads it
// before flooring the boot epoch, so a restarted node outruns
// everything its peers have already seen even if the clock regressed.
func (d *daemon) openEngine(gate *serverGate, log *slog.Logger) (uint64, error) {
	if d.dataDir == "" {
		d.eng = broker.New(d.cfg)
		return 0, nil
	}
	if d.fsys != nil {
		d.logger.Warn("disk fault injection armed", "schedule", d.faultDisk)
	}
	gate.setStarting(fmt.Sprintf("recovering snapshot and WAL from %s", d.dataDir))
	store, err := persist.Open(d.dataDir, persist.Options{SyncEveryAppend: d.walSync, Telemetry: d.reg, FS: d.fsys})
	if err != nil {
		return 0, err
	}
	eng, minEpoch, err := broker.Recover(d.cfg, store)
	if err != nil {
		store.Close()
		return 0, err
	}
	d.eng, d.store = eng, store
	log.Info("recovered from data dir", "dir", d.dataDir,
		"subscriptions", eng.Live(), "epoch_floor", minEpoch)
	return minEpoch, nil
}

// journalBootEpoch journals the epoch the node booted with, so the next
// recovery floors above this incarnation even if no snapshot lands
// before the next crash. A journal failure latches the store fail-stop
// like any other append; the node still runs (degraded, at-most-once).
func (d *daemon) journalBootEpoch(log *slog.Logger) {
	av, ps := d.node.Epoch()
	if _, err := d.store.Append(persist.Record{Op: persist.OpBootEpoch, Seq: max(av, ps)}); err != nil {
		log.Warn("journal boot epoch failed", "err", err.Error())
	}
}

// snapshot publishes a point-in-time snapshot covering exactly the
// journaled churn its state cut includes. Subscribes committing between
// the cut and the write get LSNs above the watermark, so their WAL
// records survive the snapshot and replay on recovery.
func (d *daemon) snapshot() error {
	var advertVersion, pubSeq uint64
	if d.node != nil {
		advertVersion, pubSeq = d.node.Epoch()
	}
	return d.eng.WriteSnapshot(d.store, advertVersion, pubSeq)
}

// snapshotEvery snapshots every -snapshot-interval until ctx ends,
// skipping a tick with no WAL growth since the last snapshot. An
// interval <= 0 disables periodic snapshots (the WAL alone carries
// durability until shutdown).
func (d *daemon) snapshotEvery(ctx context.Context, log *slog.Logger) {
	if d.snapEvery <= 0 {
		return
	}
	t := time.NewTicker(d.snapEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if d.store.Pending() == 0 || d.store.Failed() {
				// A failed store is fail-stop: every further snapshot
				// attempt would just re-fail, so stop hammering it.
				continue
			}
			if err := d.snapshot(); err != nil {
				log.Warn("periodic snapshot failed", "err", err.Error())
			}
		}
	}
}

// closeStore takes the final snapshot and closes the store. Call it
// only after Engine.Close: a closed engine is quiescent, so no handler
// can commit churn that would post-date the final snapshot or journal
// against the closed store. A failed final snapshot is logged, not
// fatal: the WAL already holds everything.
func (d *daemon) closeStore(log *slog.Logger) {
	if d.store.Failed() {
		log.Warn("store failed earlier; skipping final snapshot (wal retains the pre-fault prefix)")
	} else if err := d.snapshot(); err != nil {
		log.Warn("final snapshot failed (wal retains full state)", "err", err.Error())
	}
	if err := d.store.Close(); err != nil {
		log.Warn("close data dir failed", "err", err.Error())
	}
}
