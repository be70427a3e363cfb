package broker

import (
	"runtime"
	"time"

	"treesim/internal/telemetry"
)

// counters are the engine's lock-free operational counters — handles
// into the telemetry registry, so GET /stats and GET /metrics read the
// SAME underlying atomics rather than parallel bookkeeping paths. The
// metric names are part of the repo's stable observability surface
// (see README "Observability"); renaming one is a breaking change.
type counters struct {
	published      *telemetry.Counter
	delivered      *telemetry.Counter
	dropped        *telemetry.Counter
	drained        *telemetry.Counter
	filterEvals    *telemetry.Counter
	subscribes     *telemetry.Counter
	unsubscribes   *telemetry.Counter
	rebuilds       *telemetry.Counter
	ingestQueued   *telemetry.Counter
	ingested       *telemetry.Counter
	remoteInjected *telemetry.Counter
	remoteShed     *telemetry.Counter
	journalErrors  *telemetry.Counter
	sampled        *telemetry.Counter
	sampledHits    *telemetry.Counter
	acked          *telemetry.Counter
	redeliveries   *telemetry.Counter
	leaseExpiries  *telemetry.Counter
	ackShed        *telemetry.Counter
	viewRefreshes  *telemetry.Counter
}

func newCounters(reg *telemetry.Registry) counters {
	return counters{
		published:      reg.Counter("treesim_broker_published_total", "Documents routed (local publishes plus overlay injections)."),
		delivered:      reg.Counter("treesim_broker_deliveries_total", "Deliveries enqueued onto consumer queues."),
		dropped:        reg.Counter("treesim_broker_dropped_total", "Deliveries pushed out by newer ones: at-most-once evictions past the queue capacity (drop-oldest) and at-least-once sheds past four times it."),
		drained:        reg.Counter("treesim_broker_drained_total", "Deliveries handed to consumers by Drain."),
		filterEvals:    reg.Counter("treesim_broker_filter_evals_total", "Community-representative match tests (the clustered routing cost): per publish, exactly the patterns the forest holds and evaluates."),
		subscribes:     reg.Counter("treesim_broker_subscribes_total", "Committed subscriptions."),
		unsubscribes:   reg.Counter("treesim_broker_unsubscribes_total", "Committed unsubscriptions."),
		rebuilds:       reg.Counter("treesim_broker_rebuilds_total", "Re-buckets on a new similarity view that journaled a partition (forced, or one the new view moved)."),
		ingestQueued:   reg.Counter("treesim_broker_ingest_queued_total", "Documents accepted into the synopsis ingest pipeline."),
		ingested:       reg.Counter("treesim_broker_ingested_total", "Documents the background ingester fed to the estimator."),
		remoteInjected: reg.Counter("treesim_broker_remote_injected_total", "Documents injected by peer brokers via the overlay."),
		remoteShed:     reg.Counter("treesim_broker_remote_shed_total", "Remote injections shed because the ingest pipeline was full."),
		journalErrors:  reg.Counter("treesim_broker_journal_errors_total", "WAL journal append failures (mutation committed in memory; durability degraded)."),
		sampled:        reg.Counter("treesim_broker_precision_samples_total", "Deliveries exact-matched for the precision proxy."),
		sampledHits:    reg.Counter("treesim_broker_precision_hits_total", "Precision samples whose subscription exactly matched."),
		acked:          reg.Counter("treesim_broker_acked_total", "At-least-once deliveries discharged by consumer acknowledgment."),
		redeliveries:   reg.Counter("treesim_broker_redeliveries_total", "At-least-once deliveries handed out more than once (lease lapse or crash recovery)."),
		leaseExpiries:  reg.Counter("treesim_broker_lease_expiries_total", "Consumer lease lapses returning in-flight deliveries to redeliverable."),
		ackShed:        reg.Counter("treesim_broker_ack_shed_total", "At-least-once deliveries shed by cursor-log capacity overflow (oldest first; counted loss)."),
		viewRefreshes:  reg.Counter("treesim_broker_similarity_view_refreshes_total", "Similarity views taken from the estimator (first subscribe, stream doubled, forced rebuild); the registry is re-bucketed on each, one cold SEL evaluation per live subscription."),
	}
}

// registerGauges installs the scrape-time gauges that read engine
// state under its own locks (no second bookkeeping path).
func (e *Engine) registerGauges() {
	e.tel.GaugeFunc("treesim_broker_live_subscriptions", "Live subscriptions.", func() float64 {
		return float64(e.Live())
	})
	e.tel.GaugeFunc("treesim_broker_communities", "Current community count.", func() float64 {
		e.mu.RLock()
		defer e.mu.RUnlock()
		return float64(len(e.groups))
	})
	e.tel.GaugeFunc("treesim_broker_ingest_pending", "Synopsis ingest pipeline backlog.", func() float64 {
		return float64(e.ingestPending())
	})
	e.tel.GaugeFunc("treesim_broker_delivery_ring_occupancy", "Total deliveries waiting across consumers, at-least-once ones in flight included.", func() float64 {
		e.mu.RLock()
		defer e.mu.RUnlock()
		total := 0
		for _, s := range e.byID {
			total += s.pending()
		}
		return float64(total)
	})
	e.tel.GaugeFunc("treesim_broker_delivery_log_entries", "Deliveries the communities' logs hold: one per matched community and publish, however many members read it, up to the queue capacity each and, for at-least-once members' unacked backlog, four times it.", func() float64 {
		e.mu.RLock()
		defer e.mu.RUnlock()
		total := 0
		for _, g := range e.groups {
			n, _ := g.log.lag()
			total += n
		}
		return float64(total)
	})
	e.tel.GaugeFunc("treesim_broker_similarity_view_docs", "Stream length the current similarity view covers (0 before the first subscribe); docs observed minus this is its staleness.", func() float64 {
		if v := e.view.Load(); v != nil {
			return float64(v.Docs())
		}
		return 0
	})
	e.tel.GaugeFunc("treesim_broker_pinned_docs", "Documents pinned in retention by unacked at-least-once deliveries.", func() float64 {
		return float64(e.docs.pinnedCount())
	})
	e.tel.GaugeFunc("treesim_broker_docs_retained_bytes", "Packed bytes of the documents held in retention, ring and pins.", func() float64 {
		if e.docs == nil {
			return 0
		}
		return float64(e.docs.bytes.Load())
	})
	e.tel.GaugeFunc("treesim_broker_degraded", "1 after a journal append failure (durability lost, at-least-once subscribes refused), 0 while healthy.", func() float64 {
		if e.Degraded() {
			return 1
		}
		return 0
	})
}

func (e *Engine) ingestPending() uint64 {
	queued, ingested := e.counters.ingestQueued.Load(), e.counters.ingested.Load()
	if queued > ingested {
		return queued - ingested
	}
	return 0
}

// Stats is a point-in-time snapshot of the broker, the payload of the
// daemon's GET /stats endpoint.
type Stats struct {
	// Live is the number of live subscriptions; Communities and
	// Singletons describe the current clustering.
	Live        int `json:"live"`
	Communities int `json:"communities"`
	Singletons  int `json:"singletons"`
	// Rebuilds counts journaled re-buckets.
	Rebuilds uint64 `json:"rebuilds"`

	// CPUs is GOMAXPROCS when the stats were taken — the parallelism
	// context for every throughput figure below (load generators carry
	// it into their benchmark reports). treesimd's governor moves it
	// with the daemon's CPU use. Shards is always 1: the engine has one
	// forest, and the field stays for those same reports.
	Shards int `json:"shards"`
	CPUs   int `json:"cpus"`

	Subscribes   uint64 `json:"subscribes"`
	Unsubscribes uint64 `json:"unsubscribes"`

	// Published counts routed documents (local publishes plus overlay
	// injections); RemoteInjected the subset that arrived from peer
	// brokers; RemoteShed the remote injections refused because the
	// ingest pipeline was full (the peer was told to back off);
	// DocsObserved how many the synopsis has ingested; IngestPending the
	// pipeline backlog.
	Published      uint64 `json:"published"`
	RemoteInjected uint64 `json:"remote_injected"`
	RemoteShed     uint64 `json:"remote_shed"`
	DocsObserved   int    `json:"docs_observed"`
	IngestPending  uint64 `json:"ingest_pending"`

	// JournalErrors counts write-ahead-log append failures (the
	// mutation still committed in memory). Degraded is the fail-stop
	// latch those failures set: once true the engine keeps routing but
	// refuses new at-least-once subscriptions and stops promising
	// durability (the store underneath never recovers in-process).
	JournalErrors uint64 `json:"journal_errors"`
	Degraded      bool   `json:"degraded"`

	// FilterEvals counts representative match tests (the community
	// architecture's routing cost); Deliveries, Dropped and Drained
	// track the consumer queues.
	FilterEvals uint64 `json:"filter_evals"`
	Deliveries  uint64 `json:"deliveries"`
	Dropped     uint64 `json:"dropped"`
	Drained     uint64 `json:"drained"`

	// The at-least-once ledger: Acked deliveries discharged by consumer
	// acknowledgment, Redeliveries hand-outs of an already-handed-out
	// delivery, LeaseExpiries in-flight windows reclaimed from lapsed
	// consumers, AckShed cursor-log overflow evictions (counted loss),
	// and PinnedDocs documents held in retention by unacked deliveries.
	Acked         uint64 `json:"acked"`
	Redeliveries  uint64 `json:"redeliveries"`
	LeaseExpiries uint64 `json:"lease_expiries"`
	AckShed       uint64 `json:"ack_shed"`
	PinnedDocs    int    `json:"pinned_docs"`

	// PrecisionProxy estimates delivery precision by exact-matching a
	// sample of deliveries against their subscriptions. With zero
	// samples no delivery was wrong, so it is 1.
	PrecisionProxy   float64 `json:"precision_proxy"`
	PrecisionSamples uint64  `json:"precision_samples"`

	// PublishP50/P99 are publish-path latency percentiles estimated
	// from the treesim_broker_publish_ns histogram (exact to within one
	// bucket's width, over the engine's whole lifetime).
	PublishP50 time.Duration `json:"publish_p50_ns"`
	PublishP99 time.Duration `json:"publish_p99_ns"`
}

// Stats snapshots the engine. Every counter is read from the same
// telemetry registry handle GET /metrics scrapes.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	live := len(e.byID)
	groups := len(e.groups)
	singles := 0
	for _, g := range e.groups {
		if len(g.amo)+len(g.alo) == 1 {
			singles++
		}
	}
	e.mu.RUnlock()

	c := &e.counters
	s := Stats{
		Live:             live,
		Communities:      groups,
		Singletons:       singles,
		Shards:           1,
		CPUs:             runtime.GOMAXPROCS(0),
		Rebuilds:         c.rebuilds.Load(),
		Subscribes:       c.subscribes.Load(),
		Unsubscribes:     c.unsubscribes.Load(),
		Published:        c.published.Load(),
		RemoteInjected:   c.remoteInjected.Load(),
		RemoteShed:       c.remoteShed.Load(),
		JournalErrors:    c.journalErrors.Load(),
		Degraded:         e.Degraded(),
		DocsObserved:     e.est.DocsObserved(),
		FilterEvals:      c.filterEvals.Load(),
		Deliveries:       c.delivered.Load(),
		Dropped:          c.dropped.Load(),
		Drained:          c.drained.Load(),
		PrecisionSamples: c.sampled.Load(),
		IngestPending:    e.ingestPending(),
		Acked:            c.acked.Load(),
		Redeliveries:     c.redeliveries.Load(),
		LeaseExpiries:    c.leaseExpiries.Load(),
		AckShed:          c.ackShed.Load(),
		PinnedDocs:       e.docs.pinnedCount(),
	}
	if s.PrecisionSamples == 0 {
		s.PrecisionProxy = 1 // no samples, no wrong deliveries
	} else {
		s.PrecisionProxy = float64(c.sampledHits.Load()) / float64(s.PrecisionSamples)
	}
	snap := e.pubLat.Snapshot()
	s.PublishP50 = time.Duration(snap.Quantile(0.50))
	s.PublishP99 = time.Duration(snap.Quantile(0.99))
	return s
}
