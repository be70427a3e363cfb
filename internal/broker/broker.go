// Package broker is a live content-based pub/sub engine layered on the
// paper's similarity machinery: consumers subscribe with tree patterns
// at runtime, publishers push XML documents, and the broker keeps the
// consumers clustered into semantic communities so each document is
// matched once per community representative and flooded within the
// communities that hit (Chand, Felber, Garofalakis, ICDE'07, Section 1).
//
// What makes it live:
//
//   - Communities are equal estimated samples. A subscription joins
//     the community whose members' SEL evaluations carry the same
//     sample as its own (matchset.SampleKey: a Hashes value's level and
//     ids), so on the view they all read M3 similarity 1 to each other;
//     a pattern whose evaluation carries no sample (an empty match, a
//     Counters estimator), and every pattern at Threshold ≥ 1, founds
//     its own. A subscribe is one SEL evaluation plus one map lookup,
//     and a subscribe or unsubscribe edits only its community's record.
//     Equal samples do not depend on arrival order, so neither does the
//     partition.
//   - One similarity view per partition. Evaluations run on the
//     engine's similarity view (core.View): a frozen copy of the
//     synopsis that remembers every pattern's SEL evaluation. The
//     samples are bounded samples of the stream's distribution, so the
//     view is re-taken only when there is none, when the stream has
//     doubled since it was taken, or on a forced Rebuild — O(log N)
//     times over a stream of N documents, a frame that always covers
//     more than half of it — and taking one re-buckets the whole
//     registry on it: one cold evaluation per subscription, one
//     journaled OpRebuild. Every community is therefore keyed on one
//     view, and nothing drifts between re-buckets. A stream whose
//     distribution drifts wants core.WindowEstimator, not a fresher
//     view.
//   - One matching forest and one routing table. The forest holds
//     exactly the communities' representatives, and the table one
//     record per community — forest handle, delivery log,
//     representative, members — which is the clustering itself (the
//     handle is the community's: joiners never touch it, a leaving
//     representative hands it to its successor); a publish flattens
//     the document once and walks it once, on the publisher's own
//     goroutine, and that one pass decides every community. Explain is
//     the same match on the same table.
//   - A batched ingest pipeline. Published documents are handed to a
//     background ingester that feeds the estimator's synopsis in
//     batches (one lock acquisition per batch); publishing waits on
//     synopsis maintenance only when the bounded pipeline is full
//     (backpressure), and even then never stalls drains or stats.
//   - Delivery shared like routing: one bounded log per community, one
//     append per matching publish, read by every member through its own
//     long-polled cursor, whatever its contract: an at-most-once one
//     loses its oldest deliveries when slow, counted; an at-least-once
//     one keeps its unacked ones and sheds only past four capacities.
//
// Matching and concurrency: parallelism comes from concurrent
// publishers, not from splitting one publish — they share the routing
// read lock and Forest.Match is re-entrant, and drains synchronize per
// subscription and log. The routing table is written only with the
// registry and routing locks both held exclusively, so publishes and
// Explain read it under the routing lock alone, registry readers under
// the registry lock alone. Churn takes the routing write lock for one
// forest edit plus one record's edit. Subscribe, Unsubscribe and
// re-buckets are exclusive on the registry but hold it only for the
// commit — a subscribe evaluates its pattern, and a re-bucket the
// registry, outside the registry lock; subscribes and re-buckets take
// turns on their own lock (keyMu), which nothing else takes. Evaluations run on the view,
// never on the live estimator: churn takes the estimator's read lock
// only to read the stream length and, at a refresh, to copy the synopsis
// structure (no SEL work), so the ingester is never stalled behind a
// similarity computation.
package broker

import (
	"fmt"
	"log/slog"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"treesim/internal/core"
	"treesim/internal/intern"
	"treesim/internal/matching"
	"treesim/internal/matchset"
	"treesim/internal/metrics"
	"treesim/internal/pattern"
	"treesim/internal/persist"
	"treesim/internal/telemetry"
	"treesim/internal/xmltree"
)

// Config configures an Engine. The zero value works, with the
// estimator's zero value: Counters, whose evaluations carry no sample,
// so every subscription is its own community. Give the estimator the
// Hashes representation (as the daemon does) for communities.
type Config struct {
	// Estimator configures the underlying streaming estimator.
	Estimator core.Config
	// Metric is not read by the engine; kept because the frozen harness
	// sets it (ROADMAP item 6).
	Metric metrics.Metric
	// Threshold selects the community rule: below 1, subscriptions whose
	// evaluations carry equal samples share a community — the engine's
	// default 0.5 and the daemon's 0.99 are that one rule — and 1 or
	// above, every subscription is its own.
	Threshold float64
	// QueueCapacity bounds what an at-most-once consumer can have pending
	// (default 256): the next delivery drops its oldest, counted. An
	// at-least-once one holds up to four times as many unacked, and past
	// that sheds its oldest — counted, never silent — so a dead consumer
	// cannot pin unbounded memory. Both read their community's one log.
	QueueCapacity int
	// IngestQueue bounds the publish→synopsis pipeline (default 1024
	// documents). A full pipeline applies backpressure to publishers.
	IngestQueue int
	// PrecisionSample exact-matches every Nth delivery against the
	// receiving subscription to estimate delivery precision (default 16;
	// 0 keeps the default, negative disables sampling).
	PrecisionSample int
	// Telemetry is the metrics registry the engine registers its
	// counters, gauges, and latency histograms into (nil: a private
	// registry, still readable through Stats). Give a registry to at
	// most one engine — handles are keyed by metric name, so two
	// engines sharing one registry would double-count.
	Telemetry *telemetry.Registry
	// DocCache is how many recent published documents stay retrievable
	// by sequence number (Document; the daemon's GET /doc/{seq}), so
	// consumers can fetch the content behind a delivery. Default 4096;
	// negative disables retention. Documents referenced by unacked
	// at-least-once deliveries are pinned outside this budget and stay
	// retrievable until every referencing subscription acks, sheds, or
	// unsubscribes.
	DocCache int
	// AckLease is how long a drained at-least-once delivery stays in
	// flight before a missing ack returns it to redeliverable (default
	// 30s). It is also the consumer-session lease: a consumer that
	// stops polling loses its window after AckLease and a reconnecting
	// one resumes from the committed cursor with redelivery.
	AckLease time.Duration
	// Rebuild is not read by the engine; kept because the frozen harness
	// sets it (ROADMAP item 6).
	Rebuild RebuildPolicy
	// Logger receives the engine's operational event records — full
	// re-clusterings and remote-ingest sheds (the latter rate-limited
	// to about one record per second). Events are emitted at WARN so an
	// event ring teeing WARN+ retains them even when console logging
	// runs quieter. nil discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Threshold == 0 {
		c.Threshold = 0.5
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 256
	}
	if c.IngestQueue <= 0 {
		c.IngestQueue = 1024
	}
	if c.PrecisionSample == 0 {
		c.PrecisionSample = 16
	}
	if c.DocCache == 0 {
		c.DocCache = 4096
	}
	if c.AckLease <= 0 {
		c.AckLease = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// DeliveryMode selects a subscription's delivery contract, fixed at
// subscribe time.
type DeliveryMode uint8

const (
	// AtMostOnce is the default: a bounded drop-oldest window. A slow
	// consumer loses the oldest deliveries first; the loss is counted
	// and surfaces as the drain's gap marker, never silently.
	AtMostOnce DeliveryMode = iota
	// AtLeastOnce is the acked contract: deliveries are a cursor-ordered
	// log, drains lease out a window, Ack advances the committed cursor,
	// and unacked deliveries past the lease are redelivered — across
	// consumer reconnects and (with a journal) broker crashes.
	AtLeastOnce
)

// String renders the mode as its wire name.
func (m DeliveryMode) String() string {
	if m == AtLeastOnce {
		return "at-least-once"
	}
	return "at-most-once"
}

// ParseDeliveryMode parses a wire-format mode name. The empty string is
// the default (at-most-once).
func ParseDeliveryMode(s string) (DeliveryMode, error) {
	switch s {
	case "", "at-most-once":
		return AtMostOnce, nil
	case "at-least-once":
		return AtLeastOnce, nil
	}
	return AtMostOnce, fmt.Errorf("broker: unknown delivery mode %q", s)
}

// checkMode rejects a mode that is neither contract: Subscribe, Restore
// and Apply would otherwise serve and report it as at-most-once while
// the journal and snapshot kept the unknown value.
func checkMode(m DeliveryMode) error {
	if m > AtLeastOnce {
		return fmt.Errorf("broker: unknown delivery mode %d", m)
	}
	return nil
}

// Delivery is one document delivered to one subscription.
type Delivery struct {
	// Doc is the broker-assigned publish sequence number.
	Doc uint64 `json:"doc"`
	// Community is the index, when the document was published, of the
	// community whose representative matched; a later dissolve shifts
	// the indices above it (ROADMAP item 4).
	Community int `json:"community"`
	// Cursor is the subscription-local delivery cursor (at-least-once
	// mode only; acking a cursor acknowledges every delivery up to it).
	Cursor uint64 `json:"cursor,omitempty"`
	// Redelivered marks a delivery handed out before (lease lapse or
	// crash recovery) — the duplicate the at-least-once contract allows.
	Redelivered bool `json:"redelivered,omitempty"`
}

// PublishResult summarizes the routing of one published document.
type PublishResult struct {
	// Seq is the broker-assigned publish sequence number.
	Seq uint64 `json:"seq"`
	// Matched is the number of communities whose representative matched.
	Matched int `json:"matched"`
	// Deliveries is the number of subscriptions the document was delivered to.
	Deliveries int `json:"deliveries"`
	// Dropped counts older deliveries this document pushed out: each
	// at-most-once member's past capacity, each at-least-once member's
	// past four. The document itself still reaches them — the oldest
	// makes room.
	Dropped int `json:"dropped"`
	// IngestWaitNS is time this publish spent blocked on the synopsis
	// ingest pipeline; MatchNS the match and fan-out time. Both
	// feed the corresponding telemetry histograms and the overlay's
	// per-hop trace spans. Additive fields: older clients ignore them.
	IngestWaitNS int64 `json:"ingest_wait_ns,omitempty"`
	MatchNS      int64 `json:"match_ns,omitempty"`
}

// subscriber is one live subscription.
type subscriber struct {
	id   uint64
	pat  *pattern.Pattern
	expr string
	// mode is the delivery contract, fixed at subscribe time; cur is the
	// subscription's cursor on its community's log, of that mode.
	mode DeliveryMode
	cur  *cursor
	// group is the community's record it is a member of (route.go).
	group *routeGroup
}

// pending is the number of undischarged deliveries.
func (s *subscriber) pending() int {
	var si SubscriptionInfo
	s.cur.describe(&si)
	return si.Pending + si.InFlight
}

// Engine is the live broker. Create with New, stop with Close.
type Engine struct {
	cfg Config
	est *core.Estimator

	// mu guards the subscription registry and clustering. Publishes do
	// NOT take it: the routing state they need lives under routeMu.
	// bySample indexes the communities by their sample's key
	// (matchset.SampleKey); a community with no sample, or whose key an
	// older community with another sample holds, is not in it.
	mu       sync.RWMutex
	byID     map[uint64]*subscriber
	bySample map[uint64]*routeGroup
	nextID   uint64
	closed   bool

	// routeMu guards the matching plane (route.go): the forest, the
	// routing table — one record per community, in community-index order,
	// written under the registry lock too — and routeClosed. Publishes and
	// Explain hold it shared; table edits and Close exclusively. matchNS
	// times one match + fan-out (observing is two atomics, no allocation).
	// founded counts the communities founded since the last batch
	// install of the forest (installSubLocked).
	routeMu     sync.RWMutex
	routeClosed bool
	forest      *matching.Forest
	groups      []*routeGroup
	founded     int
	matchNS     *telemetry.Histogram

	// view is the similarity frame the communities are keyed on
	// (keyedView). keyMu serializes keying: a subscribe's evaluation and
	// commit, and a re-bucket, which swaps the view. Taken before the
	// registry lock, never after it.
	view  atomic.Pointer[core.View]
	keyMu sync.Mutex

	// shedLogNS is the unix-nano timestamp of the last shed event
	// record, the CAS gate rate-limiting shed logging to ~1/s — a
	// saturated pipeline sheds thousands of times per second and must
	// not turn the logger into a second bottleneck.
	shedLogNS atomic.Int64

	// churnHook, when set, observes committed registry mutations
	// (SetChurnHook; the overlay layer's re-advertisement trigger).
	churnHook atomic.Pointer[func(ChurnEvent)]

	// pipeMu guards the ingest pipeline's lifecycle separately from the
	// registry lock: a publisher blocked on a full pipeline (holding
	// pipeMu.RLock during the send) must not stall registry readers —
	// otherwise one pending Subscribe would freeze Drain/Stats behind
	// the RWMutex writer gate until the ingester caught up.
	pipeMu     sync.RWMutex
	pipeClosed bool
	ingest     chan ingestItem
	ingestWG   sync.WaitGroup

	// scratchPool recycles the per-publish scratch (routeScratch).
	scratchPool sync.Pool

	// wal, when set, records committed mutations for crash recovery
	// (SetJournal). Append failures are counted and latch degraded: the
	// store underneath is fail-stop, so the first error means every later
	// append would fail too — the engine keeps serving reads and
	// at-most-once traffic but refuses new at-least-once subscriptions,
	// whose redelivery contract it could no longer honor across a crash.
	// lsn is the highest LSN it has returned (State.WalLSN).
	wal      atomic.Pointer[Journal]
	degraded atomic.Bool
	lsn      atomic.Uint64

	// sweepStop/sweepWG bound the background lease sweeper that
	// returns lapsed at-least-once leases to redeliverable and wakes
	// parked long-polls.
	sweepStop chan struct{}
	sweepWG   sync.WaitGroup

	pubSeq   atomic.Uint64
	counters counters
	// tel is the metrics registry (cfg.Telemetry or a private one);
	// pubLat/ingestWait are the publish-path latency histograms, read
	// back by Stats for p50/p99; subLat is the subscribe latency and
	// rebuildLat the re-bucketing's.
	tel        *telemetry.Registry
	pubLat     *telemetry.Histogram
	ingestWait *telemetry.Histogram
	subLat     *telemetry.Histogram
	rebuildLat *telemetry.Histogram
	docs       *docRing
}

// New starts an engine (including its background ingester).
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return newEngine(cfg, core.NewEstimator(cfg.Estimator))
}

// newEngine assembles an engine around an existing estimator — the
// shared constructor of New (fresh estimator) and Restore (estimator
// loaded from a snapshot). cfg already has defaults applied.
func newEngine(cfg Config, est *core.Estimator) *Engine {
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	e := &Engine{
		cfg:       cfg,
		est:       est,
		byID:      make(map[uint64]*subscriber),
		bySample:  make(map[uint64]*routeGroup),
		forest:    matching.NewForest(),
		ingest:    make(chan ingestItem, cfg.IngestQueue),
		tel:       tel,
		counters:  newCounters(tel),
		sweepStop: make(chan struct{}),
	}
	lb := telemetry.DefaultLatencyBuckets()
	e.pubLat = tel.Histogram("treesim_broker_publish_ns", "End-to-end publish latency (ingest enqueue + routing), nanoseconds.", lb)
	e.ingestWait = tel.Histogram("treesim_broker_ingest_wait_ns", "Time a publish spent blocked on the synopsis ingest pipeline, nanoseconds.", lb)
	e.subLat = tel.Histogram("treesim_broker_subscribe_ns", "Subscribe latency from entry to commit (SEL evaluation, community lookup, journal), nanoseconds.", lb)
	e.rebuildLat = tel.Histogram("treesim_broker_rebuild_ns", "Re-bucketing latency on a new similarity view (one SEL evaluation per live subscription, bucketing by sample, journal), nanoseconds.", lb)
	// The name and the shard label date from the sharded layout; one
	// series remains (README's metric-name stability promise).
	e.matchNS = tel.Histogram("treesim_broker_shard_match_ns",
		"Time to match one document against the forest and fan it out, nanoseconds.", lb,
		"shard", "0")
	e.registerGauges()
	if cfg.DocCache > 0 {
		e.docs = &docRing{buf: make([]docEntry, cfg.DocCache), pinned: make(map[uint64]*pinnedDoc)}
	}
	e.ingestWG.Add(1)
	go e.runIngest()
	e.sweepWG.Add(1)
	go e.runLeaseSweeper()
	return e
}

// runLeaseSweeper reclaims lapsed at-least-once leases every AckLease/4,
// clamped to [10ms, 1s]. Drains reclaim inline too; the sweeper exists so
// a long-poller whose deliveries are all in flight is woken when a lease
// lapses, and so lease-expiry metrics move without consumer traffic.
func (e *Engine) runLeaseSweeper() {
	defer e.sweepWG.Done()
	t := time.NewTicker(min(max(e.cfg.AckLease/4, 10*time.Millisecond), time.Second))
	defer t.Stop()
	for {
		select {
		case <-e.sweepStop:
			return
		case <-t.C:
			e.SweepLeases(time.Now())
		}
	}
}

// SweepLeases reclaims every at-least-once lease lapsed as of now and
// returns the number of deliveries flipped back to redeliverable.
// The background sweeper calls it on a timer; tests call it directly
// for deterministic expiry.
func (e *Engine) SweepLeases(now time.Time) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := 0
	for _, g := range e.groups {
		for _, s := range g.alo {
			s.cur.poll(0, func(l *commLog) bool {
				n += s.cur.expireLocked(l, now)
				return true
			})
		}
	}
	e.counters.leaseExpiries.Add(uint64(n))
	return n
}

// Estimator exposes the underlying streaming estimator (shared; follow
// its concurrency rules).
func (e *Engine) Estimator() *core.Estimator { return e.est }

// LabelTable is the forest's label table, for a forest that shares it
// (matching.NewForestOver): a document resolved once serves both.
func (e *Engine) LabelTable() *intern.Table { return e.forest.Table() }

// Telemetry returns the engine's metrics registry — the configured one
// or the private registry created when Config.Telemetry was nil.
func (e *Engine) Telemetry() *telemetry.Registry { return e.tel }

// Close stops the ingest pipeline after draining it and closes every
// delivery log: what the cursors hold still drains, and an empty drain no
// longer waits. Publish/Subscribe after Close return ErrClosed.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true // no registry commit follows: the table stays as it is
	e.mu.Unlock()
	// Quiesce the routing plane before closing the logs: holding routeMu
	// exclusively waits out in-flight publishes, so no fan-out races the
	// closes (a post-Close publish routes to nobody).
	e.routeMu.Lock()
	e.routeClosed = true
	for _, g := range e.groups {
		g.log.close()
	}
	e.routeMu.Unlock()
	close(e.sweepStop)
	e.sweepWG.Wait()
	// Acquiring pipeMu exclusively waits out any publisher mid-send, so
	// the channel close below cannot race a send.
	e.pipeMu.Lock()
	e.pipeClosed = true
	close(e.ingest)
	e.pipeMu.Unlock()
	e.ingestWG.Wait()
	return nil
}

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = fmt.Errorf("broker: engine closed")

// ErrNotFound is returned (wrapped) by operations naming a subscription
// id that is not live — including one that has just been unsubscribed,
// so a drain racing an unsubscribe resolves to a definitive not-found.
var ErrNotFound = fmt.Errorf("broker: unknown subscription")

// ErrWrongMode is returned (wrapped) by Ack on a subscription that is
// not at-least-once: an at-most-once consumer has nothing to ack.
var ErrWrongMode = fmt.Errorf("broker: subscription is not at-least-once")

// ErrBadCursor is returned by Ack for a cursor the subscription's log
// never assigned — a consumer can only acknowledge what it was handed.
var ErrBadCursor = fmt.Errorf("broker: cursor was never issued")

// ErrDegraded is returned by operations that need a working journal —
// new at-least-once subscriptions — after a journal append has failed.
// The fail-stop store never recovers in-process, so neither does this.
var ErrDegraded = fmt.Errorf("broker: journal failed, durability degraded")

// noteJournalError records a journal append failure and latches the
// engine degraded.
func (e *Engine) noteJournalError() {
	e.counters.journalErrors.Add(1)
	e.degraded.Store(true)
}

// Degraded reports whether a journal append has ever failed. While
// degraded the engine routes and delivers normally, but mutations are
// no longer durable and new at-least-once subscriptions are refused.
func (e *Engine) Degraded() bool { return e.degraded.Load() }

// ChurnEvent describes one committed registry mutation, delivered to
// the churn hook. The overlay federation layer uses the stream to
// decide when accumulated churn warrants re-advertising its aggregates
// to peer brokers (its AdvertPolicy).
type ChurnEvent struct {
	// Live is the number of live subscriptions after this event.
	Live int
}

// SetChurnHook installs f to be called after every committed registry
// mutation (subscribe, unsubscribe); a re-bucketing moves no live
// pattern and is none. f runs on the mutating goroutine outside all
// engine locks, so it may call back into the engine (e.g.
// LivePatterns); it must not block for long — it stalls the mutator
// that triggered it. A nil f uninstalls the hook.
func (e *Engine) SetChurnHook(f func(ChurnEvent)) {
	if f == nil {
		e.churnHook.Store(nil)
		return
	}
	e.churnHook.Store(&f)
}

func (e *Engine) notifyChurn(ev ChurnEvent) {
	if f := e.churnHook.Load(); f != nil {
		(*f)(ev)
	}
}

// SubscribeOptions selects per-subscription behavior beyond the
// pattern. The zero value is today's default contract (at-most-once).
type SubscribeOptions struct {
	// Mode is the delivery contract (default AtMostOnce).
	Mode DeliveryMode
}

// Subscribe registers a tree-pattern subscription given as an XPath
// expression and returns its id. The subscription joins the community
// whose sample its SEL evaluation carries, or founds its own.
func (e *Engine) Subscribe(expr string) (uint64, error) {
	return e.SubscribeOpts(expr, SubscribeOptions{})
}

// SubscribeOpts is Subscribe with explicit options.
func (e *Engine) SubscribeOpts(expr string, opt SubscribeOptions) (uint64, error) {
	p, err := pattern.Parse(expr)
	if err != nil {
		return 0, err
	}
	return e.SubscribePatternOpts(p, expr, opt)
}

// SubscribePattern is Subscribe for a pre-parsed pattern.
func (e *Engine) SubscribePattern(p *pattern.Pattern, expr string) (uint64, error) {
	return e.SubscribePatternOpts(p, expr, SubscribeOptions{})
}

// SubscribePatternOpts is the full subscribe entry point.
//
// The pattern is evaluated on the keyed view (keyedView, which first
// re-buckets the registry when a new view is due) without holding the
// registry lock, so concurrent publishes and drains keep flowing; the
// commit is one map lookup. Subscribes take turns with each other and
// with re-buckets (keyMu), so every key is from the view the
// communities are keyed on.
//
// An empty expr registers p.String(): the expression is what the
// journal, snapshots and introspection keep, and "" parses as the
// match-all pattern.
func (e *Engine) SubscribePatternOpts(p *pattern.Pattern, expr string, opt SubscribeOptions) (uint64, error) {
	if err := checkMode(opt.Mode); err != nil {
		return 0, err
	}
	if opt.Mode == AtLeastOnce && e.degraded.Load() {
		// The redelivery contract is backed by the journal; without it a
		// crash would silently void every unacked delivery. Existing
		// at-least-once subscriptions keep draining what the log holds,
		// but new contracts are refused.
		return 0, ErrDegraded
	}
	if expr == "" {
		expr = p.String()
	}
	start := time.Now()
	e.keyMu.Lock()
	val := e.keyedView().Eval(p)
	e.mu.Lock()
	closed := e.closed
	var id uint64
	if !closed {
		id = e.commitSubscribeLocked(p, expr, e.sample(val), opt)
	}
	ev := ChurnEvent{Live: len(e.byID)}
	e.mu.Unlock()
	e.keyMu.Unlock()
	if closed {
		return 0, ErrClosed
	}
	e.subLat.ObserveDuration(time.Since(start).Nanoseconds())
	e.notifyChurn(ev)
	return id, nil
}

// sample is what the community rule keys an evaluation on: the value
// itself below Threshold 1, nothing (a community of its own) at or
// above it.
func (e *Engine) sample(val matchset.Value) matchset.Value {
	if e.cfg.Threshold >= 1 {
		return nil
	}
	return val
}

// keyedView returns the view the communities are keyed on, first
// re-bucketing the registry on a new one (rebucket) when one is due:
// there is none yet, or the stream has doubled since it was taken.
// Reading the stream length is all it takes of the estimator's lock.
// Caller holds keyMu.
func (e *Engine) keyedView() *core.View {
	if v := e.view.Load(); v != nil {
		if docs := e.est.DocsObserved(); docs == 0 || docs < 2*v.Docs() {
			return v
		}
	}
	return e.rebucket(false)
}

// commitSubscribeLocked installs a new subscription in the community
// bySample holds for its sample's key, if its representative carries
// the same sample on the keyed view (a cache hit), or in a new one.
// Caller holds the registry lock exclusively.
func (e *Engine) commitSubscribeLocked(p *pattern.Pattern, expr string, sample matchset.Value, opt SubscribeOptions) uint64 {
	g := len(e.groups)
	if key, ok := matchset.SampleKey(sample); ok {
		if rg := e.bySample[key]; rg != nil && matchset.SameSample(e.view.Load().Eval(rg.rep.pat), sample) {
			g = slices.Index(e.groups, rg)
		}
	}
	e.nextID++
	id := e.nextID
	e.journal(persist.Record{Op: persist.OpSubscribe, ID: id, Expr: expr, Group: g, Mode: uint8(opt.Mode)})
	e.installSubLocked(id, p, expr, g, opt.Mode, sample)
	e.counters.subscribes.Add(1)
	return id
}

// installSubLocked enters a subscription placed in community g (by
// commitSubscribeLocked, or as journaled on replay) into the registry
// and g's record. g == len(e.groups) means it founded the community: its
// pattern — it is the representative — enters the forest, and the
// community is indexed under sample, if it carries one and no community
// holds its key (replay passes nil). Once the communities founded since
// the last batch install reach a quarter of all, the forest is
// renumbered into label order (an empty Forest.Replace), as a
// re-bucket's install would: a registry that fills up one subscribe at
// a time matches in label order too. A joiner edits no forest. Caller
// holds the registry lock exclusively.
func (e *Engine) installSubLocked(id uint64, p *pattern.Pattern, expr string, g int, mode DeliveryMode, sample matchset.Value) {
	s := e.newSubscriber(id, p, expr, mode)
	e.byID[id] = s
	e.routeMu.Lock()
	defer e.routeMu.Unlock()
	if g == len(e.groups) {
		rg := &routeGroup{fh: e.forest.Add(p), log: e.newCommLog(), rep: s}
		e.groups = append(e.groups, rg)
		e.index(rg, sample)
		if e.founded++; 4*e.founded >= len(e.groups) {
			e.forest.Replace(nil, nil)
			e.founded = 0
		}
	}
	e.groups[g].add(s)
}

// index enters rg into bySample under sample's key, unless sample
// carries none or another community holds the key. Caller holds the
// registry lock exclusively.
func (e *Engine) index(rg *routeGroup, sample matchset.Value) {
	if key, ok := matchset.SampleKey(sample); ok && e.bySample[key] == nil {
		rg.key, e.bySample[key] = key, rg
	}
}

// Unsubscribe removes a subscription and takes its cursor off its log.
// It reports whether the id was live; on a closed engine it commits
// nothing and reports false.
func (e *Engine) Unsubscribe(id uint64) bool {
	e.mu.Lock()
	if e.closed || e.byID[id] == nil {
		e.mu.Unlock()
		return false
	}
	e.journal(persist.Record{Op: persist.OpUnsubscribe, ID: id})
	s := e.removeSubLocked(id)
	e.counters.unsubscribes.Add(1)
	ev := ChurnEvent{Live: len(e.byID)}
	e.mu.Unlock()
	if v := e.view.Load(); v != nil {
		v.Forget(s.pat) // or the view's SEL cache grows with every pattern ever subscribed
	}
	e.notifyChurn(ev)
	return true
}

// removeSubLocked is the unsubscribe commit: it drops the subscription
// from the registry and its community's record, and hands the
// community's forest handle to the smallest surviving id if it was the
// representative, or drops the record — shifting later communities'
// indices down by one — if it was the last member. Caller holds the
// registry lock exclusively. Returns the removed subscription, nil if
// the id was not live.
func (e *Engine) removeSubLocked(id uint64) *subscriber {
	s := e.byID[id]
	if s == nil {
		return nil
	}
	delete(e.byID, id)
	e.routeMu.Lock()
	defer e.routeMu.Unlock()
	g := s.group
	g.remove(s)
	// Here, so a publish's member count is the log's; the retention pins
	// of what the consumer held drop with its exit from the contract.
	s.cur.move(nil)
	if g.rep != s {
		return s
	}
	// The handle the Remove frees is the one the successor's Add gets.
	e.forest.Remove(g.fh)
	if left := g.members(); len(left) > 0 {
		g.rep, g.fh = left[0], e.forest.Add(left[0].pat)
	} else {
		i := slices.Index(e.groups, g)
		e.groups = slices.Delete(e.groups, i, i+1)
		if e.bySample[g.key] == g {
			delete(e.bySample, g.key)
		}
	}
	return s
}

// rebucket takes a new similarity view from the estimator, keys the
// communities on it and re-buckets the whole registry on it:
// subscriptions in id order, each joining the first community with its
// sample or founding one, its smallest id the representative. The view
// is swapped first, so the old one and its evaluations are garbage
// before the cold pass — one SEL evaluation per live subscription — runs,
// off the registry lock; the commit evaluates again under it (all cache
// hits: keyMu holds subscribes off, and unsubscribes only leave),
// journals the partition as one OpRebuild and installs it. Unless forced
// (Rebuild), a partition that comes out as it was, community for
// community (an empty registry; singletons at Threshold ≥ 1), is only
// re-keyed, with nothing to journal. It returns the view. Caller holds
// keyMu.
func (e *Engine) rebucket(force bool) *core.View {
	start := time.Now()
	v := e.est.View()
	e.view.Store(v)
	e.counters.viewRefreshes.Add(1)
	e.mu.RLock()
	subs := e.registryLocked()
	e.mu.RUnlock()
	for _, s := range subs {
		v.Eval(s.pat)
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return v
	}
	subs = e.registryLocked()
	var groups [][]*subscriber
	var reps []*subscriber
	var samples []matchset.Value
	first := make(map[uint64]int) // sample key → the first community with it
	for _, s := range subs {
		val := e.sample(v.Eval(s.pat))
		key, ok := matchset.SampleKey(val)
		g, hit := first[key]
		if !ok || !hit || !matchset.SameSample(samples[g], val) {
			if ok && !hit {
				first[key] = len(groups)
			}
			g = len(groups)
			groups, reps, samples = append(groups, nil), append(reps, s), append(samples, val)
		}
		groups[g] = append(groups[g], s)
	}
	rec := persist.Record{Op: persist.OpRebuild, Groups: make([][]uint64, len(groups)), Reps: make([]uint64, len(reps))}
	for g, members := range groups {
		for _, s := range members {
			rec.Groups[g] = append(rec.Groups[g], s.id)
		}
		rec.Reps[g] = reps[g].id
	}
	if cur, curReps := e.partitionIDsLocked(); !force && slices.EqualFunc(rec.Groups, cur, slices.Equal) && slices.Equal(rec.Reps, curReps) {
		e.keyLocked(samples)
		e.mu.Unlock()
		return v
	}
	e.journal(rec)
	e.installLocked(groups, reps, samples)
	e.counters.rebuilds.Add(1)
	live, communities := len(e.byID), len(e.groups)
	e.mu.Unlock()
	e.rebuildLat.ObserveDuration(time.Since(start).Nanoseconds())
	e.cfg.Logger.Warn("registry reclustered", "live", live, "communities", communities, "view_docs", v.Docs())
	return v
}

// Rebuild re-buckets the registry on a new similarity view now (ops
// escape hatch), after any subscribe or re-bucket in flight.
func (e *Engine) Rebuild() {
	e.keyMu.Lock()
	e.rebucket(true)
	e.keyMu.Unlock()
}

// registryLocked is every live subscription in id order: the order a
// re-bucket takes the registry in and a State indexes it by. Caller
// holds the registry lock.
func (e *Engine) registryLocked() []*subscriber {
	return slices.SortedFunc(maps.Values(e.byID), idOrder)
}

// newSubscriber builds a subscription with its mode's cursor, on no log
// yet: joining its community puts it at the log's tail.
func (e *Engine) newSubscriber(id uint64, p *pattern.Pattern, expr string, mode DeliveryMode) *subscriber {
	s := &subscriber{id: id, pat: p, expr: expr, mode: mode, cur: new(cursor)}
	if mode == AtLeastOnce {
		s.cur.ack = &acks{docs: e.docs, off: 1}
	}
	return s
}

func (e *Engine) newCommLog() *commLog { return &commLog{capacity: e.cfg.QueueCapacity, docs: e.docs} }

// DrainResult is one drain's batch plus the delivery-contract context
// the plain []Delivery return never carried.
type DrainResult struct {
	// Deliveries is the batch, in cursor order for at-least-once
	// subscriptions.
	Deliveries []Delivery
	// Mode is the subscription's delivery contract.
	Mode DeliveryMode
	// Cursor is the highest cursor in the batch (at-least-once; 0 on an
	// empty batch). Acking it acknowledges the whole batch and every
	// earlier delivery.
	Cursor uint64
	// Committed is the subscription's committed (acked) cursor.
	Committed uint64
	// Redelivered counts batch entries handed out before (lease lapse
	// or crash recovery).
	Redelivered int
	// Gap counts at-most-once deliveries lost (drop-oldest) since the
	// previous drain reported them — the explicit marker that the
	// consumer missed documents between polls.
	Gap uint64
}

// Drain removes and returns up to max queued deliveries for the given
// subscription. If the queue is empty it long-polls up to wait before
// returning an empty batch. Unknown ids error. For at-least-once
// subscriptions the batch is leased, not discharged — pair with Ack
// (DrainBatch exposes the cursor bookkeeping).
func (e *Engine) Drain(id uint64, max int, wait time.Duration) ([]Delivery, error) {
	r, err := e.DrainBatch(id, max, wait)
	return r.Deliveries, err
}

// DrainBatch is Drain with the full delivery-contract envelope: the
// batch cursor and committed watermark (at-least-once) or the eviction
// gap marker (at-most-once). At-least-once batches go in flight under
// the configured lease; the hand-out is journaled (OpDrained) so a
// broker crash still owes the window — the recovered log redelivers it,
// flagged Redelivered.
func (e *Engine) DrainBatch(id uint64, max int, wait time.Duration) (DrainResult, error) {
	s, closed := e.lookup(id)
	if s == nil {
		return DrainResult{}, fmt.Errorf("%w %d", ErrNotFound, id)
	}
	r := DrainResult{Mode: s.mode}
	if max <= 0 {
		max = 1 << 30
	}
	if s.mode == AtLeastOnce {
		e.counters.leaseExpiries.Add(uint64(s.cur.drainAcked(&r, max, wait, e.cfg.AckLease)))
		e.counters.redeliveries.Add(uint64(r.Redelivered))
		// Journal the hand-out (skipped on a closed engine — the store may
		// already be sealed behind the final snapshot). A lost OpDrained
		// only costs the redelivered flag, never the redelivery itself.
		if r.Cursor > 0 && !closed {
			e.journal(persist.Record{Op: persist.OpDrained, ID: id, Cursor: r.Cursor})
		}
	} else {
		r.Deliveries, r.Gap = s.cur.drain(max, wait)
	}
	e.counters.drained.Add(uint64(len(r.Deliveries)))
	return r, nil
}

// Ack acknowledges every delivery of subscription id with cursor ≤
// upto: the committed cursor advances, the discharged documents'
// retention pins drop, and none of the acked window is ever redelivered
// — the advance is journaled (OpAck) before Ack returns, so it holds
// across a crash. Returns the number of deliveries discharged (0 when
// re-acking an already-committed cursor — acks are idempotent).
// Errors: unknown id (ErrNotFound), an at-most-once subscription
// (ErrWrongMode), a cursor the log never issued (ErrBadCursor), or a
// closed engine (ErrClosed — acks are mutations).
func (e *Engine) Ack(id uint64, upto uint64) (int, error) {
	s, closed := e.lookup(id)
	if closed {
		return 0, ErrClosed
	}
	if s == nil {
		return 0, fmt.Errorf("%w %d", ErrNotFound, id)
	}
	if s.mode != AtLeastOnce {
		return 0, fmt.Errorf("%w (id %d)", ErrWrongMode, id)
	}
	acked, advanced, err := s.cur.ackUpto(upto, true)
	if err != nil {
		return 0, fmt.Errorf("%w (id %d, cursor %d)", err, id, upto)
	}
	if acked > 0 {
		e.counters.acked.Add(uint64(acked))
	}
	if advanced {
		e.journal(persist.Record{Op: persist.OpAck, ID: id, Cursor: upto})
	}
	return acked, nil
}

// LivePatterns is every live subscription's pattern, in id order: the
// population whose containment cover the overlay advertises. A
// subscription's *pattern.Pattern is the same value in every call for
// as long as it is live, and the overlay keys its cover on that.
// Patterns are shared with the engine and must not be mutated.
func (e *Engine) LivePatterns() []*pattern.Pattern {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]*pattern.Pattern, 0, len(e.byID))
	for _, s := range e.registryLocked() {
		out = append(out, s.pat)
	}
	return out
}

// Document returns the published document with the given sequence
// number, or nil if it has aged out of the retention ring (Config
// .DocCache) or never existed. Consumers resolve a Delivery.Doc to
// content through this (the daemon's GET /doc/{seq}).
func (e *Engine) Document(seq uint64) *xmltree.Tree {
	t, err := xmltree.Unpack(e.PackedDocument(seq))
	if err != nil { // the ring holds only what Pack wrote
		panic(fmt.Sprintf("broker: retained document %d: %v", seq, err))
	}
	return t
}

// PackedDocument is Document without the unpacking: the retained bytes
// (xmltree.Pack's form; shared, not to be written), or nil.
func (e *Engine) PackedDocument(seq uint64) []byte { return e.docs.get(seq) }

// Pending returns the queue depth of a subscription (0 for unknown ids).
func (e *Engine) Pending(id uint64) int {
	if s, _ := e.lookup(id); s != nil {
		return s.pending()
	}
	return 0
}

// lookup is live subscription id (nil if it is not) and whether the
// engine is closed.
func (e *Engine) lookup(id uint64) (s *subscriber, closed bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.byID[id], e.closed
}

// Live returns the number of live subscriptions.
func (e *Engine) Live() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.byID)
}

// CommunityIDs returns the current communities as sets of subscription
// ids (ascending), largest first, ties in community order.
func (e *Engine) CommunityIDs() [][]uint64 {
	e.mu.RLock()
	groups, _ := e.partitionIDsLocked()
	e.mu.RUnlock()
	slices.SortStableFunc(groups, func(a, b []uint64) int { return len(b) - len(a) })
	return groups
}
