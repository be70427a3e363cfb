package overlay

import (
	"cmp"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"treesim/internal/broker"
	"treesim/internal/matching"
	"treesim/internal/overlay/wire"
	"treesim/internal/telemetry"
	"treesim/internal/xmltree"
)

// ErrClosed is returned by operations on a closed node.
var ErrClosed = fmt.Errorf("overlay: node closed")

// Config configures a Node. The zero value works: a random id, TTL 16,
// and a DirtyFraction re-advertisement policy.
type Config struct {
	// ID is this node's overlay identity (must be unique across the
	// federation; defaults to a random hex string).
	ID string
	// Addr, if set, is the callback base URL included in outgoing
	// messages so peer daemons can auto-establish the reverse link.
	Addr string
	// TTL is the hop budget stamped on locally published documents
	// (default 16, capped at wire.MaxTTL).
	TTL int
	// SeenCapacity bounds the duplicate-suppression set (default 8192
	// publication ids, evicted FIFO).
	SeenCapacity int
	// AdvertPolicy decides when accumulated subscription churn warrants
	// re-advertising the local aggregate, consulted with the churn count
	// since the last advertisement and the live subscription count
	// (default broker.DirtyFraction{Fraction: 0.10, MinStale: 1}, so a
	// lone first subscription advertises immediately while a big
	// registry batches 10% of churn per advert).
	AdvertPolicy broker.RebuildPolicy

	// Telemetry is the metrics registry the node reports forwarding,
	// gossip, liveness, and per-link counters into (nil: a private
	// registry). Share the engine's registry so one scrape covers both.
	Telemetry *telemetry.Registry
	// TraceCapacity bounds the publication-trace span ring (hop records
	// retrievable via Node.TraceSpans and the daemon's GET /trace/{id}).
	// 0 means telemetry.DefaultTraceCapacity; negative disables tracing
	// entirely (publishes go out untraced).
	TraceCapacity int

	// MinEpoch, when set, floors the boot epoch used for the advert
	// version and publication sequence: a restarted node resumes at
	// max(clock epoch, MinEpoch+epochPad+1), so peers accept its state
	// even if the wall clock regressed across the restart. Brokers
	// persist their watermarks in snapshots and feed them back here;
	// because the persisted value is the watermark at the LAST SNAPSHOT
	// — adverts and publications issued after it exceed it — the floor
	// is padded by epochPad before use.
	MinEpoch uint64

	// AdvertTTL is the soft-state lifetime of a remote origin's routes:
	// a table entry not refreshed within the TTL is expired (its routes
	// evicted), closing the forwarding hole a silently dead peer would
	// otherwise leave forever. Origins re-advertise under a new version
	// every AdvertTTL/3 to stay alive. Default 60s; negative disables
	// expiry and refresh (the pre-liveness behavior, used by short-lived
	// harness runs).
	AdvertTTL time.Duration
	// Maintenance is the tick of the background maintenance loop that
	// drives refresh, expiry, and down-link retry probes (default 500ms).
	Maintenance time.Duration
	// RetryBase/RetryMax bound the capped exponential backoff (with
	// ±25% jitter) between retry probes to a marked-down link. Defaults
	// 250ms and 15s.
	RetryBase time.Duration
	RetryMax  time.Duration

	// Logger receives the node's operational event records — link
	// down/recovery transitions and advert expiries. State transitions
	// are emitted at WARN so an event ring teeing WARN+ retains them
	// even when console logging runs quieter. nil discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.ID == "" {
		var b [8]byte
		rand.Read(b[:])
		c.ID = "node-" + hex.EncodeToString(b[:])
	}
	if c.TTL <= 0 {
		c.TTL = 16
	}
	if c.TTL > wire.MaxTTL {
		c.TTL = wire.MaxTTL
	}
	if c.SeenCapacity <= 0 {
		c.SeenCapacity = 8192
	}
	if c.AdvertPolicy == nil {
		c.AdvertPolicy = broker.DirtyFraction{Fraction: 0.10, MinStale: 1}
	}
	if c.AdvertTTL == 0 {
		c.AdvertTTL = 60 * time.Second
	}
	if c.AdvertTTL < 0 {
		c.AdvertTTL = 0 // liveness disabled
	}
	if c.Maintenance <= 0 {
		c.Maintenance = 500 * time.Millisecond
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 250 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 15 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// link is one attached peer, with its send-health state (guarded by the
// node lock; see health.go) and its per-link telemetry handles.
type link struct {
	id string
	tr Transport

	// sends/errs count successful and failed transport sends on this
	// link; up mirrors the damping state (1 healthy, 0 down) so a
	// scrape sees which links are currently out of rotation.
	sends         *telemetry.Counter
	errs          *telemetry.Counter
	up            *telemetry.Gauge
	pubs, adverts linkTraffic // what the link's stream wrote

	// down marks the link in the damping set: forwarding plans and
	// advert gossip skip it, and only the maintenance loop's backoff-
	// paced probes (full-state resyncs) touch it until one succeeds.
	down      bool
	fails     int
	backoff   time.Duration
	nextRetry time.Time
	// lastErr keeps the most recent send failure's message for
	// introspection; cleared when the link recovers.
	lastErr string
}

// nodeCounters are the node's lock-free operational counters — handles
// into the telemetry registry, so Info() and GET /metrics read the same
// atomics. CI's chaos-smoke asserts on
// treesim_overlay_link_recoveries_total after a partition heal.
type nodeCounters struct {
	forwardsSent *telemetry.Counter
	forwardsRecv *telemetry.Counter
	duplicates   *telemetry.Counter
	ttlDrops     *telemetry.Counter
	advertsSent  *telemetry.Counter
	advertsRecv  *telemetry.Counter
	published    *telemetry.Counter
	injected     *telemetry.Counter
	sendErrors   *telemetry.Counter

	advertsExpired *telemetry.Counter
	linkDowns      *telemetry.Counter
	linkRecovered  *telemetry.Counter
	resyncs        *telemetry.Counter
	peerBusy       *telemetry.Counter
	busyRejected   *telemetry.Counter
}

// linkTraffic counts the frames and payload bytes of one kind written
// to one link's stream ("what does an advert refresh cost in bytes");
// the link and its stream transport hold the same handles.
type linkTraffic struct{ frames, bytes *telemetry.Counter }

func (n *Node) linkTraffic(peer, kind string) linkTraffic {
	return linkTraffic{
		frames: n.tel.Counter("treesim_overlay_link_frames_total", "Frames written to the peer link's stream, by kind.", "peer", peer, "kind", kind),
		bytes:  n.tel.Counter("treesim_overlay_link_bytes_total", "Payload bytes written to the peer link's stream, by kind.", "peer", peer, "kind", kind),
	}
}

func newNodeCounters(reg *telemetry.Registry) nodeCounters {
	return nodeCounters{
		forwardsSent: reg.Counter("treesim_overlay_forwards_sent_total", "Publications forwarded to peers."),
		forwardsRecv: reg.Counter("treesim_overlay_forwards_recv_total", "Publications received from peers."),
		duplicates:   reg.Counter("treesim_overlay_duplicates_total", "Received publications suppressed as duplicates."),
		ttlDrops:     reg.Counter("treesim_overlay_ttl_drops_total", "Publications not re-forwarded because TTL expired."),
		advertsSent:  reg.Counter("treesim_overlay_adverts_sent_total", "Advert batches sent to peers."),
		advertsRecv:  reg.Counter("treesim_overlay_adverts_recv_total", "Advert batches received from peers."),
		published:    reg.Counter("treesim_overlay_published_total", "Documents published locally at this node."),
		injected:     reg.Counter("treesim_overlay_injected_total", "Forwarded documents injected into the local engine."),
		sendErrors:   reg.Counter("treesim_overlay_send_errors_total", "Transport send failures."),

		advertsExpired: reg.Counter("treesim_overlay_adverts_expired_total", "Routing-table entries expired by the soft-state advert TTL."),
		linkDowns:      reg.Counter("treesim_overlay_link_downs_total", "Links marked down after a send failure."),
		linkRecovered:  reg.Counter("treesim_overlay_link_recoveries_total", "Down links recovered by a maintenance probe."),
		resyncs:        reg.Counter("treesim_overlay_resyncs_total", "Full-state advert resyncs after link recovery."),
		peerBusy:       reg.Counter("treesim_overlay_peer_busy_total", "Sends answered with peer backpressure (busy)."),
		busyRejected:   reg.Counter("treesim_overlay_busy_rejected_total", "Received publications refused because the local engine shed them."),
	}
}

// Node is one federation member: a broker engine plus links, routing
// table and advertisement state. Create with New, wire with AddPeer (or
// Connect for in-process meshes), stop with Close.
type Node struct {
	cfg Config
	eng *broker.Engine

	// fmu guards remote, one forest of every pattern the table holds,
	// and owner, the origin behind each handle ("" when free). Writers
	// (handleAdvertAt, expireAdverts) hold fmu then mu; forward matches
	// under fmu shared without mu, so mu never waits on a match.
	fmu    sync.RWMutex
	remote *matching.Forest
	owner  []string

	mu    sync.Mutex
	links map[string]*link
	table map[string]*originEntry
	// inbound is every peer stream being served, with the channel
	// serveStream closes on its way out.
	inbound    map[net.Conn]chan struct{}
	seen       *seenSet
	localVer   uint64
	local      wire.Advert
	cover      advertCover // what local was built from, kept between builds
	advStale   int
	lastAdvert time.Time
	closed     bool

	// stop/maintWG manage the background maintenance goroutine
	// (refresh, expiry, down-link probes; see health.go).
	stop    chan struct{}
	maintWG sync.WaitGroup

	seq      atomic.Uint64
	counters nodeCounters
	// tel is the metrics registry (cfg.Telemetry or private); traces
	// the bounded span ring for publication tracing (nil: disabled).
	tel    *telemetry.Registry
	traces *telemetry.TraceRing
}

// New attaches a federation node to an engine and installs the engine's
// churn hook (the node re-advertises when churn crosses
// Config.AdvertPolicy). The engine must not have another churn hook
// user; Close uninstalls it.
// epochPad is the safety margin added above Config.MinEpoch when
// flooring the boot epoch. The persisted watermark trails the crashed
// node's live advert version / publication sequence by however many it
// issued after its last snapshot; 2^32 outruns any realistic
// inter-snapshot churn while consuming a negligible slice of the
// uint64 epoch space per restart.
const epochPad = 1 << 32

func New(eng *broker.Engine, cfg Config) *Node {
	n := &Node{
		cfg:     cfg.withDefaults(),
		eng:     eng,
		links:   make(map[string]*link),
		table:   make(map[string]*originEntry),
		remote:  matching.NewForestOver(eng.LabelTable()),
		inbound: make(map[net.Conn]chan struct{}),
		stop:    make(chan struct{}),
	}
	n.tel = n.cfg.Telemetry
	if n.tel == nil {
		n.tel = telemetry.NewRegistry()
	}
	n.counters = newNodeCounters(n.tel)
	if n.cfg.TraceCapacity >= 0 {
		n.traces = telemetry.NewTraceRing(n.cfg.TraceCapacity)
	}
	n.seen = newSeenSet(n.cfg.SeenCapacity)
	// Version and sequence numbers start at a boot epoch rather than 1:
	// a restarted node reuses its id (treesimd defaults it to the listen
	// address), and peers keep its old table entry and seen-set keys —
	// restarting below the old version would make them silently discard
	// every new advert ("stale") and the first publications
	// ("duplicate"). Nanosecond epochs are monotone across restarts and
	// leave ~2^63 headroom above any realistic churn rate; MinEpoch (a
	// persisted watermark) guards the clock-regression case.
	epoch := uint64(time.Now().UnixNano())
	if n.cfg.MinEpoch > 0 {
		// The persisted watermark is from the last snapshot, not crash
		// time: every advert version and publication sequence issued
		// between them exceeds it. Pad the floor so the boot epoch also
		// outruns those pre-crash live values — epochPad covers billions
		// of inter-snapshot operations and, against a healthy clock,
		// costs only ~4.3s of nanosecond-epoch headroom.
		floor := n.cfg.MinEpoch + epochPad
		if epoch <= floor {
			epoch = floor + 1
		}
	}
	n.seq.Store(epoch)
	n.mu.Lock()
	n.localVer = epoch
	n.local = n.buildAdvertLocked(n.localVer)
	n.lastAdvert = time.Now()
	n.mu.Unlock()
	eng.SetChurnHook(n.onChurn)
	n.maintWG.Add(1)
	go n.runMaintenance()
	return n
}

// Epoch returns the node's current advert version and publication
// sequence — the watermarks brokers persist so a restarted node's
// MinEpoch resumes above every value peers have seen.
func (n *Node) Epoch() (advertVersion, pubSeq uint64) {
	n.mu.Lock()
	v := n.localVer
	n.mu.Unlock()
	return v, n.seq.Load()
}

// ID returns the node's overlay identity.
func (n *Node) ID() string { return n.cfg.ID }

// Engine returns the attached broker engine.
func (n *Node) Engine() *broker.Engine { return n.eng }

// Close detaches the node: the churn hook is uninstalled, the
// maintenance loop stops, and subsequent publishes, handles and peer
// additions fail with ErrClosed. Inbound peer streams stop reading, ack
// the frames they are serving and close; outbound ones close after
// that, since those handlers may still be forwarding. It does not close
// the engine (the caller owns it) and does not notify peers — their
// soft-state advert TTLs expire this node's routes and their link
// health marks the link down until it answers again.
func (n *Node) Close() {
	n.eng.SetChurnHook(nil)
	n.mu.Lock()
	if !n.closed {
		n.closed = true
		close(n.stop)
	}
	inbound := maps.Clone(n.inbound)
	var outbound []Transport
	for _, l := range n.links {
		outbound = append(outbound, l.tr)
	}
	n.mu.Unlock()
	n.maintWG.Wait()
	for conn, done := range inbound {
		conn.SetReadDeadline(time.Now()) // wakes the reader; serveStream winds down
		<-done
	}
	for _, tr := range outbound {
		closeTransport(tr)
	}
}

// closeTransport releases a stream transport's connection.
func closeTransport(tr Transport) {
	if st, ok := tr.(*streamTransport); ok {
		st.Close()
	}
}

// onChurn is the engine hook: accumulate churn and re-advertise when
// the policy says so.
func (n *Node) onChurn(ev broker.ChurnEvent) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.advStale++
	should := n.cfg.AdvertPolicy.ShouldRebuild(n.advStale, ev.Live)
	n.mu.Unlock()
	if should {
		n.Advertise()
	}
}

// Advertise rebuilds the local aggregate under the next version and
// pushes it to every peer. Called automatically per AdvertPolicy; also
// an explicit hook for harnesses and operators ("flush my aggregate
// now").
func (n *Node) Advertise() error { return n.advertiseAt(time.Now()) }

// advertiseAt is Advertise at a given instant (the keepalive clock).
func (n *Node) advertiseAt(now time.Time) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	// Build under the lock so advert content is monotone in version:
	// a concurrent Advertise cannot pair an older snapshot with a newer
	// version number. The build reads engine snapshots (registry read
	// lock), which never takes the node lock — no inversion.
	n.localVer++
	n.local = n.buildAdvertLocked(n.localVer)
	n.advStale = 0
	n.lastAdvert = now
	adv := n.local
	targets := n.linksLocked("")
	n.mu.Unlock()
	n.sendAdverts(targets, []wire.Advert{adv})
	return nil
}

// AddPeer attaches a bidirectional-capable link to a peer and pushes
// the node's full routing state (local advert plus every known origin)
// over it, bringing the new neighbor up to date in one batch. Adding an
// existing peer id replaces its transport and resyncs. The peer must
// already know this node (or learn it from the sync batch's From/Addr,
// as the peer stream's auto-peering does) for the sync to be accepted; when
// wiring two in-process nodes use Connect, which registers both links
// before syncing either way.
func (n *Node) AddPeer(id string, tr Transport) error {
	if err := n.addPeerLink(id, tr); err != nil {
		return err
	}
	return n.syncPeer(id)
}

// addPeerLink registers the link without pushing state.
func (n *Node) addPeerLink(id string, tr Transport) error {
	if id == n.cfg.ID {
		return fmt.Errorf("overlay: cannot peer with self (%q)", id)
	}
	l := &link{
		id: id, tr: tr,
		sends:   n.tel.Counter("treesim_overlay_link_sends_total", "Successful transport sends, per peer link.", "peer", id),
		errs:    n.tel.Counter("treesim_overlay_link_errors_total", "Failed transport sends, per peer link.", "peer", id),
		up:      n.tel.Gauge("treesim_overlay_link_up", "Link health: 1 healthy, 0 in the down/damping set.", "peer", id),
		pubs:    n.linkTraffic(id, "publish"),
		adverts: n.linkTraffic(id, "advert"),
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		closeTransport(tr)
		return ErrClosed
	}
	old := n.links[id]
	l.up.Set(1)
	n.links[id] = l
	n.mu.Unlock()
	if old != nil {
		if st, ok := old.tr.(*streamTransport); ok && st != tr {
			st.Close() // a replaced stream would keep its connection
		}
	}
	return nil
}

// syncPeer pushes the full routing state over an existing link.
func (n *Node) syncPeer(id string) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	l, ok := n.links[id]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("overlay: sync to unknown peer %q", id)
	}
	adverts := make([]wire.Advert, 0, 1+len(n.table))
	adverts = append(adverts, n.local)
	origins := make([]string, 0, len(n.table))
	for origin := range n.table {
		if origin == id {
			// The peer is the authority on its own aggregate; echoing a
			// possibly stale copy back is pure noise.
			continue
		}
		origins = append(origins, origin)
	}
	sort.Strings(origins)
	for _, origin := range origins {
		adverts = append(adverts, n.table[origin].advert(origin))
	}
	n.mu.Unlock()
	n.sendAdverts([]*link{l}, adverts)
	return nil
}

// HasPeer reports whether a link to the given peer id exists.
func (n *Node) HasPeer(id string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.links[id]
	return ok
}

// HandleAdvert ingests an advertisement batch from a peer: new versions
// are recorded in the routing table and re-gossiped to the other links.
//
// The next hop is sticky. A fresher advert arriving on a link other
// than the entry's current via refreshes the version and aggregate
// content in place; the route itself moves only when the new path is
// strictly shorter (fewer hops), the current via link is down or gone,
// the entry is a tombstone being revived, or the via has carried no
// advert for this origin in AdvertTTL/2. Without stickiness the route
// follows whichever copy of each refresh flood lands first, and on
// multipath topologies a delayed or reordered direct copy briefly
// points two adjacent nodes at each other — a publication entering
// that two-cycle is split-horizon dropped and lost for every
// subscriber behind it. The quiet-via escape keeps liveness: when the
// path behind a healthy link is partitioned, refreshes stop flowing
// through it, and after half the advert TTL the freshest alternative
// link wins the route well before the entry itself would expire.
func (n *Node) HandleAdvert(batch wire.AdvertBatch) error {
	return n.handleAdvertAt(batch, time.Now())
}

// handleAdvertAt is HandleAdvert at a given arrival instant, the stamp
// expireAdverts later ages the entries against. It holds fmu and then
// the node lock, so the remote forest changes with the table, and
// releases both before gossiping what it accepted.
func (n *Node) handleAdvertAt(batch wire.AdvertBatch, now time.Time) error {
	n.fmu.Lock()
	n.mu.Lock()
	unlock := func() { n.mu.Unlock(); n.fmu.Unlock() }
	if n.closed {
		unlock()
		return ErrClosed
	}
	if _, ok := n.links[batch.From]; !ok {
		unlock()
		return fmt.Errorf("overlay: advert from unknown peer %q", batch.From)
	}
	n.counters.advertsRecv.Add(1)
	var accepted []wire.Advert
	var firstErr error
	for _, a := range batch.Adverts {
		if a.Origin == n.cfg.ID {
			continue // our own advert reflected around a cycle
		}
		cur, known := n.table[a.Origin]
		if known && a.Version <= cur.version {
			if batch.From == cur.via {
				cur.viaSeen = now // a late copy on the via still proves the path
			}
			continue // stale or already known
		}
		pats, err := parseAdvert(a)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if known && !cur.expired && cur.via != batch.From && n.viaSticksLocked(cur, a, now) {
			// Freshness without a route move: update version, hops
			// estimate and aggregate content on the incumbent via, and
			// re-gossip under our route's hop count so downstream
			// staleness gates keep advancing.
			cur.version = a.Version
			cur.advertised = a.Communities
			cur.lastSeen = now
			n.indexLocked(a.Origin, cur, pats)
			if fwd := a; cur.hops+1 <= wire.MaxTTL {
				fwd.Hops = cur.hops + 1
				accepted = append(accepted, fwd)
			}
			continue
		}
		if known {
			n.indexLocked(a.Origin, cur, nil)
		}
		entry := &originEntry{version: a.Version, hops: a.Hops, via: batch.From, advertised: a.Communities, lastSeen: now, viaSeen: now}
		n.indexLocked(a.Origin, entry, pats)
		n.table[a.Origin] = entry
		if fwd := a; fwd.Hops+1 <= wire.MaxTTL {
			fwd.Hops++
			accepted = append(accepted, fwd)
		}
	}
	targets := n.linksLocked(batch.From)
	unlock()
	if len(accepted) > 0 {
		n.sendAdverts(targets, accepted)
	}
	return firstErr
}

// viaSticksLocked decides whether a fresher advert arriving off-via
// leaves the route where it is. The incumbent holds as long as its
// link is up, the new path is no shorter, and the via has proven
// recently (within half the advert TTL) that it still carries this
// origin's floods. With liveness disabled (AdvertTTL 0) the quiet
// check is skipped — there is no timescale to age the via against,
// and entries never expire either.
func (n *Node) viaSticksLocked(cur *originEntry, a wire.Advert, now time.Time) bool {
	l, ok := n.links[cur.via]
	if !ok || l.down {
		return false
	}
	if a.Hops < cur.hops {
		return false
	}
	if ttl := n.cfg.AdvertTTL; ttl > 0 && now.Sub(cur.viaSeen) > ttl/2 {
		return false
	}
	return true
}

// Publish routes a locally published document: it is PublishTraced of
// t packed, without the trace ID.
func (n *Node) Publish(t *xmltree.Tree) (broker.PublishResult, int, error) {
	res, sent, _, err := n.PublishTraced(xmltree.Pack(t))
	return res, sent, err
}

// PublishTraced routes a locally published document, packed
// (xmltree.Pack's form): exact local matching through the engine first,
// then one coarse aggregate match (forward) to decide which peers
// receive the bytes. It returns the local routing result, the number of
// links forwarded on, and the publication's trace ID (empty when tracing
// is disabled), under which every hop appends a span (TraceSpans).
func (n *Node) PublishTraced(doc []byte) (broker.PublishResult, int, string, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return broker.PublishResult{}, 0, "", ErrClosed
	}
	n.mu.Unlock()
	start := time.Now()
	f := docArenas.Get().(*xmltree.Flat)
	defer releaseDoc(f)
	if _, err := f.LoadPacked(doc, nil); err != nil {
		return broker.PublishResult{}, 0, "", fmt.Errorf("overlay: publish: %w", err)
	}
	res, err := n.eng.PublishFlat(f, false)
	if err != nil {
		return res, 0, "", err
	}
	n.counters.published.Add(1)
	seq := n.seq.Add(1)
	var traceID string
	if n.traces != nil {
		traceID = telemetry.NewTraceID()
	}
	n.mu.Lock()
	n.seen.add(pubID{n.cfg.ID, seq})
	n.mu.Unlock()
	sent, sentTo := n.sendPublication(n.forward(f, n.cfg.ID, "", nil), wire.Publication{
		Origin: n.cfg.ID,
		Seq:    seq,
		TTL:    n.cfg.TTL,
		Trace:  traceID,
		Doc:    doc,
	})
	if n.traces != nil {
		n.traces.Add(telemetry.Span{
			Trace:       traceID,
			Node:        n.cfg.ID,
			Origin:      n.cfg.ID,
			Seq:         seq,
			StartUnixNS: start.UnixNano(),
			QueueWaitNS: res.IngestWaitNS,
			MatchNS:     res.MatchNS,
			Deliveries:  res.Deliveries,
			ForwardedTo: sentTo,
		})
	}
	return res, sent, traceID, nil
}

// TraceSpans returns the spans this node retains for a trace ID
// (oldest first; nil when tracing is disabled or the ID is unknown).
func (n *Node) TraceSpans(id string) []telemetry.Span {
	if n.traces == nil {
		return nil
	}
	return n.traces.Get(id)
}

// HandlePublish ingests a forwarded publication from a peer: duplicate
// suppression first (origin+seq needs no parsing — on cyclic
// topologies suppressed duplicates are routine and must stay cheap),
// then local delivery through the engine's remote-injection hook, then
// TTL-decremented coarse forwarding to further links. The document
// arrives packed and stays so: it is loaded once, which checks the
// bytes before the synopsis sees them, for the engine's forest and the
// remote one, and the same bytes go to retention and the next link. A
// publication whose payload turns out not to unpack (or parse) stays
// marked seen: its origin assigned that sequence to a malformed
// document, and replaying it cannot improve.
func (n *Node) HandlePublish(pub wire.Publication) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if _, ok := n.links[pub.From]; !ok {
		n.mu.Unlock()
		return fmt.Errorf("overlay: publication from unknown peer %q", pub.From)
	}
	n.counters.forwardsRecv.Add(1)
	key := pubID{pub.Origin, pub.Seq}
	if n.seen.has(key) {
		n.counters.duplicates.Add(1)
		n.mu.Unlock()
		return nil
	}
	n.seen.add(key)
	ttl := pub.TTL - 1
	n.mu.Unlock()
	start := time.Now()
	var err error
	if len(pub.Doc) == 0 { // a sender not yet upgraded: XML text, forwarded packed
		pub.Doc, err = xmltree.ParsePacked(strings.NewReader(pub.XML), n.eng.Estimator().Config().ParseOptions)
		pub.XML = ""
	}
	f := docArenas.Get().(*xmltree.Flat)
	defer releaseDoc(f)
	if _, lerr := f.LoadPacked(pub.Doc, nil); err != nil || lerr != nil {
		return fmt.Errorf("overlay: forwarded document from %q: %w", pub.From, cmp.Or(err, lerr))
	}
	// Local injection happens BEFORE any forwarding: when the engine
	// sheds under backpressure the publication is unmarked from the seen
	// set and refused whole, so the upstream peer's retry is not
	// suppressed as a duplicate and cannot leave a permanent local hole.
	// No span is recorded for a shed publication — the upstream retry
	// that eventually lands writes this node's single span.
	res, err := n.eng.PublishFlat(f, true)
	if err != nil {
		if errors.Is(err, broker.ErrBusy) {
			n.mu.Lock()
			n.seen.remove(key)
			n.mu.Unlock()
			n.counters.busyRejected.Add(1)
		}
		return fmt.Errorf("overlay: inject from %q: %w", pub.From, err)
	}
	n.counters.injected.Add(1)
	var targets []*link
	if ttl > 0 {
		targets = n.forward(f, pub.Origin, pub.From, nil)
	} else {
		n.counters.ttlDrops.Add(1)
	}
	pub.TTL = ttl
	_, sentTo := n.sendPublication(targets, pub)
	if n.traces != nil && pub.Trace != "" {
		n.traces.Add(telemetry.Span{
			Trace:       pub.Trace,
			Node:        n.cfg.ID,
			From:        pub.From,
			Origin:      pub.Origin,
			Seq:         pub.Seq,
			StartUnixNS: start.UnixNano(),
			QueueWaitNS: res.IngestWaitNS,
			MatchNS:     res.MatchNS,
			Deliveries:  res.Deliveries,
			ForwardedTo: sentTo,
		})
	}
	return nil
}

// forward is the forwarding decision local publish, forwarded publish
// and ExplainForward share: the healthy links other than from, in id
// order, via which some origin other than the publication's own
// advertises an aggregate the document matches. ex, when non-nil, receives every link's verdict. The remote
// forest is matched once, under fmu shared, and only if some link
// carries another origin's aggregates; the node lock is taken before
// the match (links) and after it (routes), never with fmu.
func (n *Node) forward(doc *xmltree.Flat, origin, from string, ex *ForwardExplanation) []*link {
	n.mu.Lock()
	links := n.linksLocked(from)
	worth := slices.ContainsFunc(links, func(l *link) bool { return n.carriesLocked(l.id, origin) })
	n.mu.Unlock()
	var hits []originHit
	if worth {
		var buf [4]originHit
		hits = n.matchOrigins(doc, origin, buf[:0])
	}
	if len(hits) > 0 || ex != nil {
		n.mu.Lock()
		for i := range hits {
			if e := n.table[hits[i].Origin]; e != nil {
				hits[i].via, hits[i].Version = e.via, e.version
			}
		}
		if ex != nil {
			for id := range n.links {
				ex.Links = append(ex.Links, n.verdictLocked(id, origin, from, links, hits))
			}
		}
		n.mu.Unlock()
	}
	return slices.DeleteFunc(links, func(l *link) bool {
		return !slices.ContainsFunc(hits, func(h originHit) bool { return h.via == l.id })
	})
}

// originHit is one origin whose aggregates a document matched, with how
// many of its patterns did and, once forward reads the routing table,
// its route.
type originHit struct {
	OriginMatch
	via string
}

// matchOrigins matches doc against the remote forest once, its labels
// resolved against the forest's table, and appends to hits the origins
// other than exclude that own a matching pattern.
func (n *Node) matchOrigins(doc *xmltree.Flat, exclude string, hits []originHit) []originHit {
	n.fmu.RLock()
	defer n.fmu.RUnlock()
	doc.Resolve(n.remote.Table())
	ms := n.remote.MatchFlat(nil, doc)
	defer ms.Release()
	if ms.Count() == 0 {
		return hits // the common case: nothing to attribute
	}
	for h, o := range n.owner {
		if o == "" || o == exclude || !ms.Has(h) {
			continue
		}
		i := slices.IndexFunc(hits, func(x originHit) bool { return x.Origin == o })
		if i < 0 {
			i = len(hits)
			hits = append(hits, originHit{OriginMatch: OriginMatch{Origin: o}})
		}
		hits[i].Patterns++
	}
	return hits
}

// carriesLocked reports whether some origin other than exclude has
// aggregates routed via the link.
func (n *Node) carriesLocked(via, exclude string) bool {
	for o, e := range n.table {
		if e.via == via && o != exclude && len(e.hs) > 0 {
			return true
		}
	}
	return false
}

// linksLocked snapshots all healthy links except the named one, in id
// order — deterministic send order makes multi-hop propagation (and
// therefore measured forward counts) reproducible for a fixed topology.
// Marked-down links are skipped (the damping set): until a maintenance
// probe recovers one, no forwarding plan or gossip wastes a timeout on
// it.
func (n *Node) linksLocked(exclude string) []*link {
	out := make([]*link, 0, len(n.links))
	for id, l := range n.links {
		if id != exclude && !l.down {
			out = append(out, l)
		}
	}
	slices.SortFunc(out, func(a, b *link) int { return strings.Compare(a.id, b.id) })
	return out
}

// sendAdverts pushes adverts to the given links. A failed peer is
// counted and its link marked down (backed-off maintenance probes take
// over); the probe's full-state resync repairs whatever gossip it
// missed while down.
func (n *Node) sendAdverts(targets []*link, adverts []wire.Advert) {
	if len(targets) == 0 || len(adverts) == 0 {
		return
	}
	batch := wire.AdvertBatch{From: n.cfg.ID, Addr: n.cfg.Addr, Adverts: adverts}
	for _, l := range targets {
		if err := l.tr.SendAdvert(batch); err != nil {
			n.counters.sendErrors.Add(1)
			n.recordSend(l.id, err)
			continue
		}
		n.counters.advertsSent.Add(1)
		n.recordSend(l.id, nil)
	}
}

// sendPublication forwards one publication, packed, to the given links.
// Returns the number of successful sends and, for traced publications,
// the ids of the links that accepted one (nil when the frame is
// untraced — the span is the only consumer, no need to allocate on every
// forward).
func (n *Node) sendPublication(targets []*link, pub wire.Publication) (int, []string) {
	if len(targets) == 0 {
		return 0, nil
	}
	pub.From = n.cfg.ID
	pub.Addr = n.cfg.Addr
	sent := 0
	var sentTo []string
	for _, l := range targets {
		err := l.tr.SendPublish(pub)
		if after, busy := busyAfter(err); busy {
			// Backpressure, not failure: the peer is up but shedding.
			// Back off once (capped) and retry; a second refusal sheds
			// the forward without touching link health.
			n.counters.peerBusy.Add(1)
			time.Sleep(after)
			err = l.tr.SendPublish(pub)
			if _, busy := busyAfter(err); busy {
				continue
			}
		}
		if err != nil {
			n.counters.sendErrors.Add(1)
			n.recordSend(l.id, err)
			continue
		}
		sent++
		n.counters.forwardsSent.Add(1)
		n.recordSend(l.id, nil)
		if pub.Trace != "" {
			sentTo = append(sentTo, l.id)
		}
	}
	return sent, sentTo
}

// Info snapshots the node for GET /peer/info and harness accounting.
func (n *Node) Info() wire.Info {
	n.mu.Lock()
	info := wire.Info{
		ID:          n.cfg.ID,
		Addr:        n.cfg.Addr,
		AdvertVer:   n.localVer,
		LocalAdvert: n.local,
	}
	for id, l := range n.links {
		info.Peers = append(info.Peers, id)
		if l.down {
			info.DownPeers = append(info.DownPeers, id)
		}
	}
	for origin, e := range n.table {
		info.Origins = append(info.Origins, e.summary(origin))
	}
	n.mu.Unlock()
	sort.Strings(info.Peers)
	sort.Strings(info.DownPeers)
	sort.Slice(info.Origins, func(i, j int) bool { return info.Origins[i].Origin < info.Origins[j].Origin })
	c := &n.counters
	info.ForwardsSent = c.forwardsSent.Load()
	info.ForwardsRecv = c.forwardsRecv.Load()
	info.Duplicates = c.duplicates.Load()
	info.TTLDrops = c.ttlDrops.Load()
	info.AdvertsSent = c.advertsSent.Load()
	info.AdvertsRecv = c.advertsRecv.Load()
	info.Published = c.published.Load()
	info.Injected = c.injected.Load()
	info.SendErrors = c.sendErrors.Load()
	info.AdvertsExpired = c.advertsExpired.Load()
	info.LinkDowns = c.linkDowns.Load()
	info.LinkRecoveries = c.linkRecovered.Load()
	info.Resyncs = c.resyncs.Load()
	info.PeerBusy = c.peerBusy.Load()
	info.BusyRejected = c.busyRejected.Load()
	return info
}

// docArenas pools the arenas a publication is loaded into, once per hop:
// the engine's forest and the remote one share a label table, so its
// labels resolve once.
var docArenas = sync.Pool{New: func() any { return new(xmltree.Flat) }}

// releaseDoc pools f, emptied of its document.
func releaseDoc(f *xmltree.Flat) {
	f.LoadPacked(nil, nil)
	docArenas.Put(f)
}
