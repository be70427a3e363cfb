// Command treesimd is the live content-based pub/sub broker daemon: an
// HTTP front end over internal/broker, federating with peer daemons
// through internal/overlay. Consumers subscribe with tree patterns,
// publishers POST XML documents, and the broker maintains semantic
// communities incrementally so routing cost scales with the number of
// communities rather than subscriptions. With -peers (or -federate) the
// daemon joins a broker overlay: it gossips similarity-aggregated
// subscription advertisements and forwards publications only toward
// peers whose aggregates match.
//
// API (all bodies JSON unless noted):
//
//	POST   /subscribe          {"pattern": "/a/b[c]",
//	                            "mode": "at-least-once"}  → {"id": 7, "mode": "..."}
//	                           (mode optional; default from -delivery-mode)
//	DELETE /subscribe/{id}                                → 204
//	POST   /publish            raw XML document           → routing summary
//	POST   /publish            JSON ["<a/>", ...] or {"docs": [...]}
//	                           (Content-Type: application/json)
//	                                                      → aggregate batch summary
//	GET    /deliveries/{id}?max=100&wait=5s               → {"deliveries": [...], "mode": ...,
//	                                                         "gap": N (at-most-once: evictions since last poll),
//	                                                         "cursor"/"committed" (at-least-once)}
//	POST   /ack/{id}           {"cursor": N}              → {"acked": M}
//	                           (at-least-once only: commits every delivery with cursor ≤ N)
//	GET    /doc/{seq}                                     → raw XML of a recent publish
//	GET    /stats                                         → broker stats
//	GET    /metrics                                       → Prometheus text exposition
//	GET    /trace/{id}                                    → this node's spans for a publication trace
//	POST   /explain            raw XML document           → routing decision record (nothing published)
//	GET    /introspect/communities                        → clustering snapshot (community, shard, size, rep_id, rep,
//	                                                         members, log_entries, slowest_lag)
//	GET    /introspect/subscriptions                      → live subscriptions with queue depth
//	GET    /introspect/routes                             → per-origin advert routing table (federated)
//	GET    /introspect/links                              → per-link health and backoff (federated)
//	GET    /events                                        → recent WARN+ operational events (bounded ring)
//	GET    /healthz                                       → {"status":"ok"} when ready;
//	                                                        503 {"status":"starting"|"degraded"|"draining","reason":...}
//	GET    /peer/stream        Upgrade: treesim-peer/1    → 101, then the peer link's frames (federation):
//	                           publications and advert batches in, one ack per frame out
//	                           (ok | busy | closed | bad)
//	GET    /peer/info                                     → overlay node snapshot
//
// /deliveries long-polls: with wait set and an empty queue it blocks up
// to that duration for the first delivery. Flags configure the
// estimator, clustering, queue and federation knobs; see -h.
//
// Errors answer {"error": "..."}: 503 when the engine or node is closed
// or a durable subscribe meets a degraded journal (retry later,
// elsewhere), 404 for an unknown subscription or document and for an
// overlay surface on a standalone daemon, 409 for an ack on an
// at-most-once subscription, 413 for a publish or explain body over
// -max-body, and 400 for the rest — among them a document that is not
// XML or whose elements nest deeper than xmltree.MaxDepth − 2 = 2046
// (matching sizes scratch per level, so depth is bounded where bytes
// enter: here and on peer frames).
//
// Every subsystem reports into one telemetry registry, so GET /metrics
// is the single scrape covering broker, persistence, and overlay (the
// metric catalogue is in the README's Observability section). With
// -debug-addr a second listener serves net/http/pprof and expvar,
// kept off the public port. Federated daemons stamp each locally
// published document with a trace ID (returned in the publish
// response); GET /trace/{id} on each node returns the hop spans it
// retains, from which a forwarding tree can be assembled.
//
// The listener binds before recovery: /healthz answers immediately,
// 503 {"status":"starting"} while the snapshot and WAL replay, 200
// {"status":"ok"} once serving, 503 {"status":"draining"} during
// shutdown.
//
// Once ready the daemon serves on one P and a governor (procs.go) adds
// a P, up to the core count, only while its CPU use keeps the Ps it has
// busy; GOMAXPROCS in the environment pins the count instead.
//
// With -data-dir the broker is crash-safe: committed subscription churn
// is write-ahead logged, snapshots are taken periodically
// (-snapshot-interval) and on shutdown, and a restarted daemon —
// including after SIGKILL — recovers its subscriptions, community
// partition, estimator synopsis and overlay epoch watermarks from the
// directory before serving.
//
// Shutdown (SIGINT/SIGTERM) is ordered so a loaded daemon exits
// cleanly: first new publishes, subscribes and peer traffic are
// refused (503) and the overlay node detaches (peer streams ack what
// they are serving and close), then the engine closes —
// draining the ingest pipeline and closing every delivery queue, which
// wakes all long-polls — then the final snapshot is taken from the now-
// quiescent engine and the data dir closes, and only then the HTTP
// server waits out the in-flight handlers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"treesim/internal/broker"
	"treesim/internal/core"
	"treesim/internal/fault"
	"treesim/internal/overlay"
	"treesim/internal/persist"
	"treesim/internal/telemetry"
)

func main() {
	d, err := newDaemon(flag.CommandLine, os.Args[1:]) // -h exits 0, a bad flag 2
	if err != nil {
		fmt.Fprintln(os.Stderr, "treesimd:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := d.run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "treesimd:", err)
		os.Exit(1)
	}
}

// daemon is one treesimd process: its settings, the engine, the overlay
// node and the store it runs, and the registry and logger they all
// report into. newDaemon fills the settings; run fills the rest.
type daemon struct {
	cfg  broker.Config
	ocfg overlay.Config // used with -federate or -peers

	addr, dataDir, debugAddr, faultDisk string
	peers                               []string
	federate, walSync                   bool
	fsys                                persist.FS // nil: the real filesystem; -fault-disk arms failpoints
	snapEvery, peerTimeout              time.Duration
	maxBody                             int64
	mode                                broker.DeliveryMode // for subscribes that name none

	reg    *telemetry.Registry
	logger *slog.Logger
	events *telemetry.EventRing
	eng    *broker.Engine
	node   *overlay.Node  // nil when standalone
	store  *persist.Store // nil without -data-dir

	// listening, when set, is called with the bound address once the
	// gate serves and before recovery starts: a test learns a :0 port
	// and sees the starting phase through it.
	listening func(addr string)
}

var (
	representations = map[string]core.Representation{"counters": core.Counters, "sets": core.Sets, "hashes": core.Hashes}
	logLevels       = map[string]slog.Level{"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError}
)

// newDaemon parses args with fs straight into the daemon's broker and
// overlay configs and its own settings. Its errors are configuration
// errors; with fs's ExitOnError, as main uses it, -h and a bad flag
// exit inside Parse instead.
func newDaemon(fs *flag.FlagSet, args []string) (*daemon, error) {
	d := &daemon{reg: telemetry.NewRegistry()}
	c, o := &d.cfg, &d.ocfg
	fs.StringVar(&d.addr, "addr", "127.0.0.1:8690", "listen address")
	rep := fs.String("representation", "hashes", "matching-set representation: counters|sets|hashes (counters: every subscription its own community)")
	fs.IntVar(&c.Estimator.HashCapacity, "hash-capacity", 1000, "per-node sample bound for hashes")
	fs.IntVar(&c.Estimator.SetCapacity, "set-capacity", 1000, "reservoir size for sets")
	fs.Int64Var(&c.Estimator.Seed, "seed", 1, "sampling seed")
	fs.Float64Var(&c.Threshold, "threshold", 0.99, "community rule: below 1, subscriptions with equal estimated samples share a community; 1 or above, every subscription is its own")
	fs.IntVar(&c.QueueCapacity, "queue", 256, "per-consumer delivery capacity: an at-most-once consumer keeps the newest this many, an at-least-once one up to 4× this many unacked")
	mode := fs.String("delivery-mode", "at-most-once", "default delivery contract for new subscriptions: at-most-once|at-least-once")
	fs.DurationVar(&c.AckLease, "ack-lease", 30*time.Second, "redelivery lease for drained-but-unacked at-least-once deliveries")
	fs.IntVar(&c.IngestQueue, "ingest-queue", 1024, "publish ingest pipeline depth")
	maxStale := fs.Int("rebuild-stale", 0, "re-advertise after N subscription mutations when -advert-stale is unset (0: -advert-stale's default)")
	fs.Int64Var(&d.maxBody, "max-body", 1<<20, "maximum request body bytes; a larger publish or explain body answers 413")

	fs.BoolVar(&d.federate, "federate", false, "serve overlay peer endpoints even with no -peers")
	peers := fs.String("peers", "", "comma-separated peer base URLs to federate with (implies -federate)")
	fs.StringVar(&o.ID, "id", "", "overlay node id (default: the listen address)")
	fs.StringVar(&o.Addr, "peer-addr", "", "callback base URL advertised to peers (default: http://<listen address>)")
	fs.IntVar(&o.TTL, "ttl", 16, "forwarding hop budget for locally published documents")
	advStale := fs.Int("advert-stale", 0, "re-advertise after N subscription mutations (0: 10% churn, min 1)")
	fs.IntVar(&o.MaxPatternNodes, "advert-max-nodes", 0, "coarsen advertised patterns to at most N nodes (0: exact covers)")
	fs.DurationVar(&o.AdvertTTL, "advert-ttl", time.Minute, "soft-state TTL for peer adverts (negative disables expiry and keepalive refresh)")
	fs.DurationVar(&d.peerTimeout, "peer-timeout", 5*time.Second, "bound on a peer link's handshake, writes, and each frame's wait for its ack (on expiry the link is marked down and probed)")

	fs.StringVar(&d.dataDir, "data-dir", "", "durable state directory (snapshot + WAL); empty runs in-memory only")
	fs.DurationVar(&d.snapEvery, "snapshot-interval", time.Minute, "periodic snapshot period with -data-dir (0 disables; shutdown still snapshots)")
	fs.BoolVar(&d.walSync, "wal-sync", false, "fsync the WAL after every subscription mutation (power-loss durability)")
	fs.StringVar(&d.faultDisk, "fault-disk", "", "TESTING ONLY: inject disk faults, comma-separated point:mode[@nth] terms (e.g. wal.sync:fail@2); points wal.{write,sync,truncate}, snapshot.{write,sync,rename}; modes fail|short|enospc")

	fs.StringVar(&d.debugAddr, "debug-addr", "", "serve net/http/pprof and expvar on this address (empty disables)")
	fs.IntVar(&o.TraceCapacity, "trace-capacity", 0, "publication-trace spans retained per node (0: default 4096, negative disables tracing)")

	level := fs.String("log-level", "info", "minimum log level: debug|info|warn|error")
	format := fs.String("log-format", "text", "log record format: text|json")
	eventCap := fs.Int("event-capacity", 0, "operational events retained for GET /events (0: default 256)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	var ok bool
	if c.Estimator.Representation, ok = representations[strings.ToLower(*rep)]; !ok {
		return nil, fmt.Errorf("unknown representation %q", *rep)
	}
	if *advStale > 0 {
		o.AdvertPolicy = broker.Staleness{MaxStale: *advStale}
	} else if *maxStale > 0 {
		o.AdvertPolicy = broker.Staleness{MaxStale: *maxStale}
	}
	var err error
	if d.mode, err = broker.ParseDeliveryMode(*mode); err != nil {
		return nil, err
	}
	d.peers = splitPeers(*peers)
	if d.faultDisk != "" {
		if d.dataDir == "" {
			return nil, errors.New("-fault-disk requires -data-dir")
		}
		inj, err := fault.ParseSpec(d.faultDisk)
		if err != nil {
			return nil, err
		}
		d.fsys = fault.NewFS(inj)
	}

	// One logging pipeline: a level-filtered text or JSON handler on
	// stderr, wrapped so WARN+ records also land in the bounded event
	// ring behind GET /events (capture into the ring ignores the console
	// level — a daemon logging at error still retains warnings).
	lv, ok := logLevels[strings.ToLower(*level)]
	if !ok {
		return nil, fmt.Errorf("unknown log level %q", *level)
	}
	var h slog.Handler
	switch strings.ToLower(*format) {
	case "text", "":
		h = slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})
	case "json":
		h = slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: lv})
	default:
		return nil, fmt.Errorf("unknown log format %q", *format)
	}
	d.events = telemetry.NewEventRing(*eventCap)
	d.logger = slog.New(telemetry.TeeEvents(h, d.events, slog.LevelWarn))
	// One registry for the whole process: engine, store and overlay node
	// all report into it, and GET /metrics is the single scrape.
	c.Telemetry, o.Telemetry = d.reg, d.reg
	return d, nil
}

func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// run serves until ctx ends, then shuts down in order. The listener
// binds before recovery, so the daemon is live (/healthz answers) while
// readiness waits for the engine: the gate refuses everything but
// /healthz until the engine has recovered, the node is attached and the
// full handler is installed.
func (d *daemon) run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // stops the peer dialers and the snapshot loop on every return
	ln, err := net.Listen("tcp", d.addr)
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	if d.ocfg.ID == "" {
		d.ocfg.ID = addr
	}
	if d.ocfg.Addr == "" {
		d.ocfg.Addr = "http://" + addr
	}
	d.logger = d.logger.With("node", d.ocfg.ID)
	d.cfg.Logger = d.logger.With("component", "broker")
	d.ocfg.Logger = d.logger.With("component", "overlay")
	plog := d.logger.With("component", "persist")

	gate := newServerGate()
	srv := &http.Server{
		Handler: gate,
		// The daemon serves untrusted input: bound header reads and
		// idle keep-alives so dribbling clients cannot pin goroutines.
		// WriteTimeout stays above the 30s long-poll cap on /deliveries.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		WriteTimeout:      60 * time.Second,
	}
	defer srv.Close() // on the error paths; after Shutdown it has nothing left to close
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	if d.listening != nil {
		d.listening(addr)
	}
	if d.debugAddr != "" {
		dbg, err := serveDebug(d.debugAddr, d.logger)
		if err != nil {
			return err
		}
		d.logger.Info("debug endpoints (pprof, expvar) up", "url", "http://"+dbg+"/debug/")
	}

	minEpoch, err := d.openEngine(gate, plog)
	if err != nil {
		return err
	}
	if d.federate || len(d.peers) > 0 {
		d.ocfg.MinEpoch = minEpoch
		d.node = overlay.New(d.eng, d.ocfg)
		if d.store != nil {
			d.journalBootEpoch(plog)
		}
		for _, u := range d.peers {
			go d.dialPeer(ctx, u)
		}
	}
	// The loop starts after the node exists, so its snapshots carry the
	// node's epoch watermarks from the first one on.
	var snapshots sync.WaitGroup
	if d.store != nil {
		snapshots.Add(1)
		go func() {
			defer snapshots.Done()
			d.snapshotEvery(ctx, plog)
		}()
	}
	gate.setReady(d.handler())
	// Recovery ran on the runtime's default Ps; serving starts on one.
	startProcsGovernor(d.reg, d.logger)
	mode := "standalone"
	if d.node != nil {
		mode = fmt.Sprintf("federated id=%s peers=%d", d.node.ID(), len(d.peers))
	}
	d.logger.Info("listening", "addr", addr, "representation", strings.ToLower(d.cfg.Estimator.Representation.String()),
		"threshold", d.cfg.Threshold, "mode", mode)

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	// Ordered shutdown: refuse new ingress (drain gate), detach the
	// overlay (peer traffic answered 503, no further forwards), close
	// the engine — which waits out in-flight handlers' commits, drains
	// the ingest pipeline and closes every delivery queue, waking all
	// long-polls — and only then take the final snapshot and close the
	// store. The engine must close before the store: handlers already
	// past the drain gate can commit (and journal) churn right up to
	// Engine.Close, so snapshotting first would let acked churn
	// post-date the final snapshot and journal against a closed store.
	// Last, the HTTP server waits out the in-flight handlers.
	d.logger.Info("shutdown signal, draining")
	gate.setDraining()
	if d.node != nil {
		d.node.Close()
	}
	d.eng.Close()
	if d.store != nil {
		snapshots.Wait()
		d.closeStore(plog)
	}
	sctx, scancel := context.WithTimeout(context.WithoutCancel(ctx), 15*time.Second)
	defer scancel()
	_ = srv.Shutdown(sctx) // past the timeout the deferred Close cuts what is left
	return nil
}

// dialPeer resolves a configured peer URL to its node id and links it,
// retrying for a minute while the peer daemon comes up.
func (d *daemon) dialPeer(ctx context.Context, base string) {
	deadline := time.Now().Add(60 * time.Second)
	for ctx.Err() == nil {
		err := overlay.DialPeer(d.node, base, d.peerTimeout)
		if err == nil {
			d.logger.Info("federated with peer", "peer", base)
			return
		}
		if time.Now().After(deadline) {
			d.logger.Warn("giving up on peer", "peer", base, "err", err.Error())
			return
		}
		time.Sleep(500 * time.Millisecond)
	}
}
