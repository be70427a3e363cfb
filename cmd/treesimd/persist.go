package main

// Durability glue (-data-dir): open the data directory, recover the
// engine from its snapshot + WAL tail (broker.Recover, which also
// installs the store as the engine's journal), and snapshot
// periodically and on shutdown. A SIGKILLed daemon restarted on the
// same -data-dir comes back with its full subscription registry,
// community partition, estimator synopsis and overlay epoch watermarks.

import (
	"log/slog"
	"sync/atomic"
	"time"

	"treesim/internal/broker"
	"treesim/internal/overlay"
	"treesim/internal/persist"
	"treesim/internal/telemetry"
)

// daemonPersist owns the store and the periodic snapshot loop.
type daemonPersist struct {
	store *persist.Store
	eng   *broker.Engine
	node  atomic.Pointer[overlay.Node]
	log   *slog.Logger
	stop  chan struct{}
	done  chan struct{}
}

// openDataDir recovers (or initializes) a broker from the data
// directory and returns the persistence handle, the live engine, and
// the overlay epoch floor broker.Recover computed; overlay.New pads it
// before flooring the boot epoch, so a restarted node outruns
// everything its peers have already seen even if the clock regressed.
// fsys selects the filesystem the store persists through (nil: the
// real one; the -fault-disk flag injects failpoints here).
func openDataDir(dir string, cfg broker.Config, walSync bool, fsys persist.FS, reg *telemetry.Registry, logger *slog.Logger) (*daemonPersist, *broker.Engine, uint64, error) {
	store, err := persist.Open(dir, persist.Options{SyncEveryAppend: walSync, Telemetry: reg, FS: fsys})
	if err != nil {
		return nil, nil, 0, err
	}
	eng, minEpoch, err := broker.Recover(cfg, store)
	if err != nil {
		store.Close()
		return nil, nil, 0, err
	}
	logger.Info("recovered from data dir", "dir", dir,
		"subscriptions", eng.Live(), "epoch_floor", minEpoch)
	p := &daemonPersist{
		store: store,
		eng:   eng,
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
	var advertVersion, pubSeq uint64
	if n := p.node.Load(); n != nil {
		advertVersion, pubSeq = n.Epoch()
	}
	return p.eng.WriteSnapshot(p.store, advertVersion, pubSeq)
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
