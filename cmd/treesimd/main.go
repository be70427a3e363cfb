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
//	GET    /introspect/communities                        → clustering snapshot (id, shard, rep, members, log_entries, slowest_lag)
//	GET    /introspect/subscriptions                      → live subscriptions with queue depth
//	GET    /introspect/routes                             → per-origin advert routing table (federated)
//	GET    /introspect/links                              → per-link health and backoff (federated)
//	GET    /events                                        → recent WARN+ operational events (bounded ring)
//	GET    /healthz                                       → {"status":"ok"} when ready;
//	                                                        503 {"status":"starting"|"draining","reason":...}
//	GET    /peer/stream        Upgrade: treesim-peer/1    → 101, then the peer link's frames (federation):
//	                           publications and advert batches in, one ack per frame out
//	                           (ok | busy | closed | bad)
//	GET    /peer/info                                     → overlay node snapshot
//
// /deliveries long-polls: with wait set and an empty queue it blocks up
// to that duration for the first delivery. Flags configure the
// estimator, clustering, queue and federation knobs; see -h.
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
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"treesim/internal/broker"
	"treesim/internal/core"
	"treesim/internal/fault"
	"treesim/internal/metrics"
	"treesim/internal/overlay"
	"treesim/internal/persist"
	"treesim/internal/telemetry"
	"treesim/internal/xmltree"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8690", "listen address")
		rep       = flag.String("representation", "hashes", "matching-set representation: counters|sets|hashes")
		hcap      = flag.Int("hash-capacity", 1000, "per-node sample bound for hashes")
		scap      = flag.Int("set-capacity", 1000, "reservoir size for sets")
		seed      = flag.Int64("seed", 1, "sampling seed")
		metric    = flag.String("metric", "m3", "clustering metric: m1|m2|m3")
		threshold = flag.Float64("threshold", 0.5, "community similarity threshold")
		queueCap  = flag.Int("queue", 256, "per-consumer delivery queue capacity")
		dmode     = flag.String("delivery-mode", "at-most-once", "default delivery contract for new subscriptions: at-most-once|at-least-once")
		ackLease  = flag.Duration("ack-lease", 30*time.Second, "redelivery lease for drained-but-unacked at-least-once deliveries")
		ingestQ   = flag.Int("ingest-queue", 1024, "publish ingest pipeline depth")
		maxStale  = flag.Int("rebuild-stale", 0, "rebuild after N mutations (0: use -rebuild-fraction)")
		fraction  = flag.Float64("rebuild-fraction", 0.25, "rebuild when churn exceeds this fraction of live subscriptions")
		maxBody   = flag.Int64("max-body", 1<<20, "maximum request body bytes; a larger publish or explain body answers 413")

		federate  = flag.Bool("federate", false, "serve overlay peer endpoints even with no -peers")
		peers     = flag.String("peers", "", "comma-separated peer base URLs to federate with (implies -federate)")
		nodeID    = flag.String("id", "", "overlay node id (default: the listen address)")
		peerAddr  = flag.String("peer-addr", "", "callback base URL advertised to peers (default: http://<listen address>)")
		ttl       = flag.Int("ttl", 16, "forwarding hop budget for locally published documents")
		advStale  = flag.Int("advert-stale", 0, "re-advertise after N subscription mutations (0: 10% churn, min 1)")
		advMaxPat = flag.Int("advert-max-nodes", 0, "coarsen advertised patterns to at most N nodes (0: exact covers)")
		advertTTL = flag.Duration("advert-ttl", time.Minute, "soft-state TTL for peer adverts (negative disables expiry and keepalive refresh)")
		peerTO    = flag.Duration("peer-timeout", 5*time.Second, "bound on a peer link's handshake, writes, and each frame's wait for its ack (on expiry the link is marked down and probed)")

		dataDir   = flag.String("data-dir", "", "durable state directory (snapshot + WAL); empty runs in-memory only")
		snapEvery = flag.Duration("snapshot-interval", time.Minute, "periodic snapshot period with -data-dir (0 disables; shutdown still snapshots)")
		walSync   = flag.Bool("wal-sync", false, "fsync the WAL after every subscription mutation (power-loss durability)")
		faultDisk = flag.String("fault-disk", "", "TESTING ONLY: inject disk faults, comma-separated point:mode[@nth] terms (e.g. wal.sync:fail@2); points wal.{write,sync,truncate}, snapshot.{write,sync,rename}; modes fail|short|enospc")

		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address (empty disables)")
		traceCap  = flag.Int("trace-capacity", 0, "publication-trace spans retained per node (0: default 4096, negative disables tracing)")

		logLevel  = flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
		logFormat = flag.String("log-format", "text", "log record format: text|json")
		eventCap  = flag.Int("event-capacity", 0, "operational events retained for GET /events (0: default 256)")
	)
	flag.Parse()

	cfg, err := buildConfig(*rep, *metric, *hcap, *scap, *seed, *threshold, *queueCap, *ingestQ, *maxStale, *fraction)
	if err != nil {
		fmt.Fprintln(os.Stderr, "treesimd:", err)
		os.Exit(2)
	}
	cfg.AckLease = *ackLease
	defaultMode, err := broker.ParseDeliveryMode(*dmode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "treesimd:", err)
		os.Exit(2)
	}
	// One registry for the whole process: engine, store, and overlay
	// node all report into it, and GET /metrics is the single scrape.
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg

	// Bind before recovery: the daemon is live (healthz answers) while
	// readiness waits for the engine. Serving starts immediately behind
	// the gate, which refuses everything but /healthz until setReady.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "treesimd:", err)
		os.Exit(1)
	}
	// The logger and event ring exist before any subsystem: every record
	// flows through one handler chain (level filter + format + WARN-tee
	// into the ring GET /events serves), stamped with the node identity.
	nodeName := *nodeID
	if nodeName == "" {
		nodeName = ln.Addr().String()
	}
	logger, events, err := buildLogger(*logLevel, *logFormat, *eventCap, nodeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "treesimd:", err)
		os.Exit(2)
	}
	cfg.Logger = logger.With("component", "broker")

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
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	if *debugAddr != "" {
		dbg, err := serveDebug(*debugAddr, logger)
		if err != nil {
			fmt.Fprintln(os.Stderr, "treesimd:", err)
			os.Exit(1)
		}
		logger.Info("debug endpoints (pprof, expvar) up", "url", "http://"+dbg+"/debug/")
	}

	var (
		eng      *broker.Engine
		pers     *daemonPersist
		minEpoch uint64
	)
	if *dataDir != "" {
		var fsys persist.FS
		if *faultDisk != "" {
			inj, err := fault.ParseSpec(*faultDisk)
			if err != nil {
				fmt.Fprintln(os.Stderr, "treesimd:", err)
				os.Exit(2)
			}
			fsys = fault.NewFS(inj)
			logger.Warn("disk fault injection armed", "schedule", *faultDisk)
		}
		gate.setStarting(fmt.Sprintf("recovering snapshot and WAL from %s", *dataDir))
		pers, eng, minEpoch, err = openDataDir(*dataDir, cfg, *walSync, fsys, reg, logger.With("component", "persist"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "treesimd:", err)
			os.Exit(1)
		}
		go pers.run(*snapEvery)
	} else {
		if *faultDisk != "" {
			fmt.Fprintln(os.Stderr, "treesimd: -fault-disk requires -data-dir")
			os.Exit(2)
		}
		eng = broker.New(cfg)
	}
	defer eng.Close()

	var stopping atomic.Bool
	peerList := splitPeers(*peers)
	var node *overlay.Node
	if *federate || len(peerList) > 0 {
		ocfg := overlay.Config{
			ID:              *nodeID,
			Addr:            *peerAddr,
			TTL:             *ttl,
			MaxPatternNodes: *advMaxPat,
			AdvertTTL:       *advertTTL,
			MinEpoch:        minEpoch,
			Telemetry:       reg,
			TraceCapacity:   *traceCap,
			Logger:          logger.With("component", "overlay"),
		}
		if ocfg.ID == "" {
			ocfg.ID = ln.Addr().String()
		}
		if ocfg.Addr == "" {
			ocfg.Addr = "http://" + ln.Addr().String()
		}
		if *advStale > 0 {
			ocfg.AdvertPolicy = broker.Staleness{MaxStale: *advStale}
		}
		node = overlay.New(eng, ocfg)
		if pers != nil {
			pers.setNode(node)
		}
		for _, u := range peerList {
			go dialPeer(node, u, *peerTO, &stopping, logger)
		}
	}

	// Ready-phase health: a failed store (or a journal error latching
	// the engine degraded) turns /healthz into 503 "degraded" while the
	// daemon keeps serving reads and at-most-once traffic.
	persRef := pers
	engRef := eng
	gate.setDegradedCheck(func() (bool, string) {
		if persRef != nil && persRef.store.Failed() {
			return true, "persistent store failed (fail-stop); serving without durability"
		}
		if engRef.Degraded() {
			return true, "journal append failed; serving without durability"
		}
		return false, ""
	})
	gate.setReady(newHandler(eng, node, reg, events, *maxBody, *peerTO, defaultMode, logger))
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("shutdown signal, draining")
		// Ordered shutdown: refuse new ingress (drain gate), detach the
		// overlay (peer traffic answered 503, no further forwards), close
		// the engine — which waits out in-flight handlers' commits, drains
		// the ingest pipeline and closes every delivery queue, waking all
		// long-polls — and only then take the final snapshot and close the
		// store. The engine must close before the store: handlers already
		// past the drain gate can commit (and journal) churn right up to
		// Engine.Close, so snapshotting first would let acked churn
		// post-date the final snapshot and journal against a closed store.
		// Shutdown closes the listener right away, so Serve returns while
		// handlers may still be writing; main blocks on shutdownDone
		// rather than exiting under them.
		stopping.Store(true)
		gate.setDraining()
		if node != nil {
			node.Close()
		}
		eng.Close()
		if pers != nil {
			pers.shutdown()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
	}()
	mode := "standalone"
	if node != nil {
		mode = fmt.Sprintf("federated id=%s peers=%d", node.ID(), len(peerList))
	}
	logger.Info("listening", "addr", ln.Addr().String(),
		"representation", *rep, "metric", *metric, "threshold", *threshold, "mode", mode)
	if err := <-serveErr; err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "treesimd:", err)
		os.Exit(1)
	}
	if stopping.Load() {
		<-shutdownDone // let in-flight responses finish before exiting
	}
}

// dialPeer resolves a configured peer URL to its node id and links it,
// retrying while the peer daemon comes up.
func dialPeer(node *overlay.Node, base string, timeout time.Duration, stopping *atomic.Bool, logger *slog.Logger) {
	deadline := time.Now().Add(60 * time.Second)
	for !stopping.Load() {
		err := overlay.DialPeer(node, base, timeout)
		if err == nil {
			logger.Info("federated with peer", "peer", base)
			return
		}
		if time.Now().After(deadline) {
			logger.Warn("giving up on peer", "peer", base, "err", err.Error())
			return
		}
		time.Sleep(500 * time.Millisecond)
	}
}

// buildLogger assembles the daemon's one logging pipeline: a level-
// filtered text or JSON handler on stderr, wrapped so WARN+ records
// also land in the bounded event ring behind GET /events (capture into
// the ring ignores the console level — a daemon logging at error still
// retains warnings for scrapes). Every record carries the node id.
func buildLogger(level, format string, eventCap int, node string) (*slog.Logger, *telemetry.EventRing, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info", "":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, nil, fmt.Errorf("unknown log level %q", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	switch strings.ToLower(format) {
	case "text", "":
		h = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return nil, nil, fmt.Errorf("unknown log format %q", format)
	}
	events := telemetry.NewEventRing(eventCap)
	return slog.New(telemetry.TeeEvents(h, events, slog.LevelWarn)).With("node", node), events, nil
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

func buildConfig(rep, metric string, hcap, scap int, seed int64, threshold float64, queueCap, ingestQ, maxStale int, fraction float64) (broker.Config, error) {
	cfg := broker.Config{
		Estimator:     core.Config{HashCapacity: hcap, SetCapacity: scap, Seed: seed},
		Threshold:     threshold,
		QueueCapacity: queueCap,
		IngestQueue:   ingestQ,
	}
	switch strings.ToLower(rep) {
	case "counters":
		cfg.Estimator.Representation = core.Counters
	case "sets":
		cfg.Estimator.Representation = core.Sets
	case "hashes":
		cfg.Estimator.Representation = core.Hashes
	default:
		return cfg, fmt.Errorf("unknown representation %q", rep)
	}
	switch strings.ToLower(metric) {
	case "m1":
		cfg.Metric = metrics.M1
	case "m2":
		cfg.Metric = metrics.M2
	case "m3":
		cfg.Metric = metrics.M3
	default:
		return cfg, fmt.Errorf("unknown metric %q", metric)
	}
	if maxStale > 0 {
		cfg.Rebuild = broker.Staleness{MaxStale: maxStale}
	} else {
		cfg.Rebuild = broker.DirtyFraction{Fraction: fraction, MinStale: 64}
	}
	return cfg, nil
}

// publishResponse is the POST /publish payload: the local routing
// summary plus how many overlay links the document was forwarded on
// and, when federated with tracing enabled, the trace ID under which
// GET /trace/{id} retrieves the hop spans at every broker it reached.
type publishResponse struct {
	broker.PublishResult
	Forwarded int    `json:"forwarded"`
	Trace     string `json:"trace,omitempty"`
}

// newHandler wires the broker (and overlay node, when federated) into a
// net/http mux (method-and-path patterns, Go ≥ 1.22).
func newHandler(eng *broker.Engine, node *overlay.Node, reg *telemetry.Registry, events *telemetry.EventRing, maxBody int64, peerTimeout time.Duration, defaultMode broker.DeliveryMode, logger *slog.Logger) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /subscribe", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Pattern string `json:"pattern"`
			Mode    string `json:"mode"`
		}
		if err := json.NewDecoder(bodyReader(r, maxBody)).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		mode := defaultMode
		if req.Mode != "" {
			var err error
			if mode, err = broker.ParseDeliveryMode(req.Mode); err != nil {
				httpError(w, http.StatusBadRequest, "%v", err)
				return
			}
		}
		id, err := eng.SubscribeOpts(req.Pattern, broker.SubscribeOptions{Mode: mode})
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, broker.ErrClosed) || errors.Is(err, broker.ErrDegraded) {
				status = http.StatusServiceUnavailable // retry later, elsewhere
			}
			httpError(w, status, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "mode": mode.String()})
	})

	mux.HandleFunc("DELETE /subscribe/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad id: %v", err)
			return
		}
		if !eng.Unsubscribe(id) {
			httpError(w, http.StatusNotFound, "unknown subscription %d", id)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("POST /publish", func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
			handlePublishBatch(w, r, eng, node, maxBody)
			return
		}
		t, err := xmltree.Parse(bodyReader(r, maxBody), eng.Estimator().Config().ParseOptions)
		if err != nil {
			httpError(w, bodyStatus(err), "treesimd: publish: %v", err)
			return
		}
		resp := publishResponse{}
		if node != nil {
			resp.PublishResult, resp.Forwarded, resp.Trace, err = node.PublishTraced(t)
		} else {
			resp.PublishResult, err = eng.Publish(t)
		}
		if err != nil {
			status := bodyStatus(err)
			if err == broker.ErrClosed || err == overlay.ErrClosed {
				status = http.StatusServiceUnavailable
			}
			httpError(w, status, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("GET /deliveries/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad id: %v", err)
			return
		}
		max := 1000
		if s := r.URL.Query().Get("max"); s != "" {
			if max, err = strconv.Atoi(s); err != nil || max <= 0 {
				httpError(w, http.StatusBadRequest, "bad max %q", s)
				return
			}
		}
		var wait time.Duration
		if s := r.URL.Query().Get("wait"); s != "" {
			if wait, err = time.ParseDuration(s); err != nil || wait < 0 {
				httpError(w, http.StatusBadRequest, "bad wait %q", s)
				return
			}
			if wait > 30*time.Second {
				wait = 30 * time.Second
			}
		}
		res, err := eng.DrainBatch(id, max, wait)
		if err != nil {
			httpError(w, http.StatusNotFound, "%v", err)
			return
		}
		ds := res.Deliveries
		if ds == nil {
			ds = []broker.Delivery{}
		}
		resp := map[string]any{
			"deliveries": ds,
			"pending":    eng.Pending(id),
			"mode":       res.Mode.String(),
		}
		if res.Mode == broker.AtLeastOnce {
			// Batch bookkeeping for the ack protocol: cursor is what the
			// consumer acks after processing, committed its durable floor.
			resp["cursor"] = res.Cursor
			resp["committed"] = res.Committed
			if res.Redelivered > 0 {
				resp["redelivered"] = res.Redelivered
			}
		} else {
			// Explicit loss marker: deliveries evicted (drop-oldest) since
			// the previous poll observed the queue.
			resp["gap"] = res.Gap
		}
		writeJSON(w, http.StatusOK, resp)
	})

	// POST /ack/{id} commits an at-least-once consumer's progress: every
	// delivery with cursor ≤ the posted cursor is discharged, never to be
	// redelivered, and its document's retention pin drops. Acks are
	// idempotent; re-acking a committed cursor is a 200 with acked 0.
	mux.HandleFunc("POST /ack/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad id: %v", err)
			return
		}
		var req struct {
			Cursor uint64 `json:"cursor"`
		}
		if err := json.NewDecoder(bodyReader(r, maxBody)).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		acked, err := eng.Ack(id, req.Cursor)
		if err != nil {
			status := http.StatusBadRequest // ErrBadCursor: cursor never issued
			switch {
			case errors.Is(err, broker.ErrNotFound):
				status = http.StatusNotFound
			case errors.Is(err, broker.ErrWrongMode):
				status = http.StatusConflict
			case errors.Is(err, broker.ErrClosed):
				status = http.StatusServiceUnavailable
			}
			httpError(w, status, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"acked": acked})
	})

	mux.HandleFunc("GET /doc/{seq}", func(w http.ResponseWriter, r *http.Request) {
		seq, err := strconv.ParseUint(r.PathValue("seq"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad seq: %v", err)
			return
		}
		t := eng.Document(seq)
		if t == nil {
			httpError(w, http.StatusNotFound, "document %d not retained", seq)
			return
		}
		w.Header().Set("Content-Type", "application/xml")
		xmltree.WriteXML(w, t, false)
	})

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, eng.Stats())
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			logger.Error("/metrics write failed", "err", err.Error())
		}
	})

	// POST /explain dry-runs the routing decision for a document without
	// publishing it: the body is raw XML exactly as POST /publish takes
	// it, the response the structured decision record. Federated daemons
	// include the per-link forward plan; ?origin= and ?from= re-run the
	// plan as if the document were a forwarded publication from that
	// origin arriving on that link; a from without an origin, or naming
	// no attached link, answers 400.
	mux.HandleFunc("POST /explain", func(w http.ResponseWriter, r *http.Request) {
		t, err := xmltree.Parse(bodyReader(r, maxBody), eng.Estimator().Config().ParseOptions)
		if err != nil {
			httpError(w, bodyStatus(err), "treesimd: explain: %v", err)
			return
		}
		if node != nil {
			ex, err := node.ExplainForward(t, r.URL.Query().Get("origin"), r.URL.Query().Get("from"))
			if err != nil {
				status := http.StatusServiceUnavailable // the node or engine is closed
				if errors.Is(err, overlay.ErrScenario) {
					status = http.StatusBadRequest
				}
				httpError(w, status, "%v", err)
				return
			}
			writeJSON(w, http.StatusOK, ex)
			return
		}
		ex, err := eng.Explain(t)
		if err != nil {
			httpError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		// Same envelope shape as the federated answer, minus the plan.
		writeJSON(w, http.StatusOK, map[string]any{"local": ex})
	})

	mux.HandleFunc("GET /introspect/communities", func(w http.ResponseWriter, r *http.Request) {
		cs := eng.IntrospectCommunities()
		if cs == nil {
			cs = []broker.CommunityInfo{}
		}
		writeJSON(w, http.StatusOK, map[string]any{"communities": cs})
	})

	mux.HandleFunc("GET /introspect/subscriptions", func(w http.ResponseWriter, r *http.Request) {
		ss := eng.IntrospectSubscriptions()
		if ss == nil {
			ss = []broker.SubscriptionInfo{}
		}
		writeJSON(w, http.StatusOK, map[string]any{"subscriptions": ss})
	})

	mux.HandleFunc("GET /introspect/routes", func(w http.ResponseWriter, r *http.Request) {
		if node == nil {
			httpError(w, http.StatusNotFound, "routing tables live on the overlay; start with -federate or -peers")
			return
		}
		rs := node.IntrospectRoutes()
		if rs == nil {
			rs = []overlay.RouteInfo{}
		}
		writeJSON(w, http.StatusOK, map[string]any{"node": node.ID(), "routes": rs})
	})

	mux.HandleFunc("GET /introspect/links", func(w http.ResponseWriter, r *http.Request) {
		if node == nil {
			httpError(w, http.StatusNotFound, "links live on the overlay; start with -federate or -peers")
			return
		}
		ls := node.IntrospectLinks()
		if ls == nil {
			ls = []overlay.LinkInfo{}
		}
		writeJSON(w, http.StatusOK, map[string]any{"node": node.ID(), "links": ls})
	})

	mux.HandleFunc("GET /events", func(w http.ResponseWriter, r *http.Request) {
		evs := events.Snapshot()
		if evs == nil {
			evs = []telemetry.Event{}
		}
		writeJSON(w, http.StatusOK, map[string]any{"events": evs, "total": events.Total()})
	})

	mux.HandleFunc("GET /trace/{id}", func(w http.ResponseWriter, r *http.Request) {
		if node == nil {
			httpError(w, http.StatusNotFound, "tracing runs on the overlay; start with -federate or -peers")
			return
		}
		id := r.PathValue("id")
		spans := node.TraceSpans(id)
		if spans == nil {
			spans = []telemetry.Span{}
		}
		writeJSON(w, http.StatusOK, map[string]any{"trace": id, "node": node.ID(), "spans": spans})
	})

	// /healthz is owned by the server gate, which answers before the
	// mux exists; nothing to register here.

	if node != nil {
		overlay.RegisterHTTP(mux, node, maxBody, peerTimeout)
	}

	return mux
}

// batchResponse summarizes a batched POST /publish: aggregate routing
// counts across the batch, plus per-batch error accounting (documents
// that fail to parse are skipped and counted, the rest are published).
type batchResponse struct {
	Published  int    `json:"published"`
	Matched    int    `json:"matched"`
	Deliveries int    `json:"deliveries"`
	Dropped    int    `json:"dropped"`
	Forwarded  int    `json:"forwarded"`
	Errors     int    `json:"errors"`
	FirstError string `json:"first_error,omitempty"`
}

// handlePublishBatch is the batched publish pipeline: the request body
// is a JSON array of XML document strings (either bare or wrapped as
// {"docs": [...]}), decoded and parsed on one goroutine while a second
// stage routes already-parsed documents — XML decoding overlaps
// matching, and the broker sees PublishBatch chunks instead of one
// engine entry per document. Federated daemons route per document
// through the overlay node (forwarding is a per-document decision) but
// keep the same parse/route overlap.
func handlePublishBatch(w http.ResponseWriter, r *http.Request, eng *broker.Engine, node *overlay.Node, maxBody int64) {
	var raw json.RawMessage
	if err := json.NewDecoder(bodyReader(r, maxBody)).Decode(&raw); err != nil {
		httpError(w, bodyStatus(err), "bad request body: %v", err)
		return
	}
	var docs []string
	if err := json.Unmarshal(raw, &docs); err != nil {
		var wrapped struct {
			Docs []string `json:"docs"`
		}
		if err := json.Unmarshal(raw, &wrapped); err != nil {
			httpError(w, http.StatusBadRequest, "want a JSON array of XML strings or {\"docs\": [...]}: %v", err)
			return
		}
		docs = wrapped.Docs
	}
	resp := batchResponse{}
	if len(docs) == 0 {
		writeJSON(w, http.StatusOK, resp)
		return
	}

	// Stage 1: parse/flatten. The small buffer lets decoding run ahead
	// of routing without holding the whole batch as trees.
	parsed := make(chan *xmltree.Tree, 64)
	var parseErrs atomic.Int64
	var firstErr atomic.Pointer[string]
	opts := eng.Estimator().Config().ParseOptions
	go func() {
		defer close(parsed)
		for i, d := range docs {
			t, err := xmltree.ParseString(d, opts)
			if err != nil {
				parseErrs.Add(1)
				msg := fmt.Sprintf("doc %d: %v", i, err)
				firstErr.CompareAndSwap(nil, &msg)
				continue
			}
			parsed <- t
		}
	}()

	// Stage 2: route in engine-sized chunks.
	const chunk = 32
	batch := make([]*xmltree.Tree, 0, chunk)
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		if node != nil {
			for _, t := range batch {
				res, fwd, err := node.Publish(t)
				if err != nil {
					return false
				}
				resp.Published++
				resp.Matched += res.Matched
				resp.Deliveries += res.Deliveries
				resp.Dropped += res.Dropped
				resp.Forwarded += fwd
			}
		} else {
			rs, err := eng.PublishBatch(batch)
			if err != nil {
				return false
			}
			for _, res := range rs {
				resp.Published++
				resp.Matched += res.Matched
				resp.Deliveries += res.Deliveries
				resp.Dropped += res.Dropped
			}
		}
		batch = batch[:0]
		return true
	}
	for t := range parsed {
		batch = append(batch, t)
		if len(batch) >= chunk {
			if !flush() {
				// Engine closed mid-batch: drain the parser and report
				// what landed.
				for range parsed {
				}
				httpError(w, http.StatusServiceUnavailable, "%v", broker.ErrClosed)
				return
			}
		}
	}
	if !flush() {
		httpError(w, http.StatusServiceUnavailable, "%v", broker.ErrClosed)
		return
	}
	resp.Errors = int(parseErrs.Load())
	if p := firstErr.Load(); p != nil {
		resp.FirstError = *p
	}
	status := http.StatusOK
	if resp.Published == 0 && resp.Errors > 0 {
		status = http.StatusBadRequest
	}
	writeJSON(w, status, resp)
}

// bodyReader bounds a request body.
func bodyReader(r *http.Request, maxBody int64) io.ReadCloser {
	return http.MaxBytesReader(nil, r.Body, maxBody)
}

// bodyStatus is the status for a request body that failed to read or
// parse: 413 when it ran past -max-body, 400 otherwise.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
