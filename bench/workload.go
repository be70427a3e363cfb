package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"treesim/internal/overlay/wire"
	"treesim/internal/pattern"
	"treesim/internal/telemetry"
)

// runConfig is one run of one workload.
type runConfig struct {
	root     string // checkout root
	bin      string // built treesimd
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	sc       scale
	out      io.Writer // progress and the printed metrics
}

// warmUp is how long the load runs before the window opens: a sixth of
// the window, 5 s at the default 30 s.
func (cfg runConfig) warmUp() time.Duration {
	w := cfg.window / 6
	if w > 5*time.Second {
		w = 5 * time.Second
	}
	return w
}

// daemonFlags are the flags that differ from shipping defaults, per
// workload; bench/README.md says why for each.
func daemonFlags(workload, dataDir string) []string {
	switch workload {
	case wAcked:
		return []string{"-data-dir", dataDir, "-ack-lease", "2s", "-snapshot-interval", "10s"}
	case wFed:
		return []string{"-threshold", "2"}
	}
	return nil
}

// liveSub is one subscription the harness holds on a daemon.
type liveSub struct {
	subSpec
	id uint64
}

// env is a set-up system under test: daemons, the two connections and
// the live population.
type env struct {
	cfg     runConfig
	in      *inputs
	daemons []*daemon
	dataDir string
	c1, c2  *client
	ref     *hostRef
	subs    []liveSub
	probe   *liveSub

	setup      time.Duration // first exec → population ready
	converge   time.Duration // fed-line3: last subscribe → adverts converged
	advertMsgs float64       // fed-line3: advert batches sent while subscribing

	// probeSent counts the documents the probe wants published since the
	// population was ready: in fed-line3 the probe's k-th delivery is the
	// k-th of them (forwarding is synchronous and there is one publisher).
	probeSent int
	// churnDue carries the instants churn operations fall due: the
	// publisher sends one every churnEvery/2 publishes (churn-mix only).
	// It is buffered for every operation the reserve allows, so the
	// publisher never waits for the churner.
	churnDue  chan time.Time
	published int
	nextDoc   int // position in the cycled document stream
	// mostOnceSeen counts at-most-once deliveries drained, plus the gaps
	// drains reported, over the whole run; the ledger check needs it.
	mostOnceSeen uint64
}

func (e *env) pubBase() string { return e.daemons[0].base() }

func (e *env) close() {
	for _, d := range e.daemons {
		d.kill()
	}
	e.c1.close()
	e.c2.close()
}

// setUp starts the daemons, warms every synopsis with the W documents,
// subscribes the population serially on connection 1 and, federated,
// waits for the adverts to converge. Nothing here is in the window.
func setUp(ctx context.Context, cfg runConfig, in *inputs) (*env, error) {
	e := &env{cfg: cfg, in: in, c1: newClient(), c2: newClient()}
	if cfg.workload == wChurn {
		e.churnDue = make(chan time.Time, 2*len(in.reserve)+2)
	}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	if cfg.workload == wAcked {
		dir, err := owned.tempDir(cfg.root, "data-")
		if err != nil {
			return nil, err
		}
		e.dataDir = dir
	}
	flags := daemonFlags(cfg.workload, e.dataDir)
	var t0 time.Time
	if cfg.workload == wFed {
		// B first: A and C dial it, and B links back on their first advert.
		addrs := make([]string, 3)
		for i := range addrs {
			a, err := freeAddr()
			if err != nil {
				return nil, err
			}
			addrs[i] = a
		}
		e.daemons = make([]*daemon, 3)
		placed := map[int]int{}
		for _, s := range in.pop {
			placed[s.daemon]++
		}
		for _, i := range []int{1, 0, 2} {
			f := append([]string{"-id", string(rune('A' + i))}, flags...)
			if n := placed[i]; n > 0 {
				// Re-cluster, and so re-advertise, exactly when the
				// population is complete: the default advert policy leaves
				// up to 10% of it unadvertised until the next keepalive,
				// 20 s away. In exact mode every community is a singleton
				// whatever the rebuild policy, and the window has no churn.
				f = append(f, "-rebuild-stale", fmt.Sprint(n))
			}
			if i == 1 {
				f = append(f, "-federate")
			} else {
				f = append(f, "-peers", "http://"+addrs[1])
			}
			d, started, err := startDaemon(ctx, cfg.bin, string(rune('A'+i)), addrs[i], f, e.c1)
			if err != nil {
				return nil, err
			}
			if i == 1 {
				t0 = started
			}
			e.daemons[i] = d
		}
		if err := e.waitLinked(ctx); err != nil {
			return nil, err
		}
	} else {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		d, started, err := startDaemon(ctx, cfg.bin, "d", addr, flags, e.c1)
		if err != nil {
			return nil, err
		}
		t0 = started
		e.daemons = []*daemon{d}
	}

	// Warm: a cold synopsis clusters nothing (every similarity is 0), so
	// the paper's mechanism would be measured switched off.
	for _, d := range e.daemons {
		for i := 0; i < cfg.sc.docs; i++ {
			if _, err := e.c1.publish(d.base(), in.docs[i].xml); err != nil {
				return nil, fmt.Errorf("warm %s: %w", d.name, err)
			}
		}
	}
	for _, d := range e.daemons {
		if err := poll(ctx, 30*time.Second, func() (bool, error) {
			s, err := e.c1.stats(d.base())
			return s.DocsObserved >= cfg.sc.docs, err
		}); err != nil {
			return nil, fmt.Errorf("warm %s: synopsis never saw %d documents: %w", d.name, cfg.sc.docs, err)
		}
	}

	var adv0 float64
	if cfg.workload == wFed {
		adv0 = e.advertsSent()
	}
	for _, s := range in.pop {
		mode := ""
		if s.acked {
			mode = "at-least-once"
		}
		id, err := e.c1.subscribe(e.daemons[s.daemon].base(), s.expr, mode)
		if err != nil {
			return nil, fmt.Errorf("subscribe %q: %w", s.expr, err)
		}
		e.subs = append(e.subs, liveSub{subSpec: s, id: id})
	}
	for i := range e.subs {
		if e.subs[i].probe {
			e.probe = &e.subs[i]
		}
	}
	if cfg.workload == wFed {
		last := time.Now()
		if err := e.waitConverged(ctx); err != nil {
			return nil, err
		}
		e.converge = time.Since(last)
		e.advertMsgs = e.advertsSent() - adv0
	}
	e.setup = time.Since(t0)
	if err := e.guard(); err != nil {
		return nil, err
	}
	ok = true
	return e, nil
}

func poll(ctx context.Context, limit time.Duration, cond func() (bool, error)) error {
	deadline := time.Now().Add(limit)
	for {
		done, err := cond()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", limit)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (e *env) peerInfo(i int) (wire.Info, error) {
	var info wire.Info
	return info, e.c1.getJSON(e.daemons[i].base()+"/peer/info", &info)
}

// waitLinked waits until B lists both neighbours.
func (e *env) waitLinked(ctx context.Context) error {
	return poll(ctx, 30*time.Second, func() (bool, error) {
		info, err := e.peerInfo(1)
		return len(info.Peers) == 2, err
	})
}

// advertMembers counts the subscriptions an advert aggregates.
func advertMembers(a wire.Advert) int {
	n := 0
	for _, c := range a.Communities {
		n += c.Members
	}
	return n
}

// waitConverged waits until B and C advertise their whole population and
// A's routing table holds both origins at those versions.
func (e *env) waitConverged(ctx context.Context) error {
	want := map[int]int{}
	for _, s := range e.subs {
		want[s.daemon]++
	}
	return poll(ctx, 60*time.Second, func() (bool, error) {
		a, err := e.peerInfo(0)
		if err != nil {
			return false, err
		}
		for _, i := range []int{1, 2} {
			info, err := e.peerInfo(i)
			if err != nil {
				return false, err
			}
			if advertMembers(info.LocalAdvert) != want[i] {
				return false, nil
			}
			seen := false
			for _, o := range a.Origins {
				if o.Origin == info.ID && o.Version == info.AdvertVer {
					seen = true
				}
			}
			if !seen {
				return false, nil
			}
		}
		return true, nil
	})
}

// advertsSent sums the advert batches the daemons have sent.
func (e *env) advertsSent() float64 {
	var n float64
	for i := range e.daemons {
		if info, err := e.peerInfo(i); err == nil {
			n += float64(info.AdvertsSent)
		}
	}
	return n
}

// advertBytes is the encoded size of every origin's current advert: what
// one refresh round puts on each link. The daemons count advert
// messages, not bytes, so the harness re-encodes what /peer/info shows.
func (e *env) advertBytes() float64 {
	var n float64
	for i := range e.daemons {
		info, err := e.peerInfo(i)
		if err != nil || len(info.LocalAdvert.Communities) == 0 {
			continue
		}
		if data, err := wire.EncodeAdvertBatch(wire.AdvertBatch{From: info.ID, Adverts: []wire.Advert{info.LocalAdvert}}); err == nil {
			n += float64(len(data))
		}
	}
	return n
}

// guard aborts a mis-set-up run instead of reporting numbers from it.
func (e *env) guard() error {
	if e.cfg.workload == wFed {
		a, err := e.peerInfo(0)
		if err != nil {
			return err
		}
		if len(a.Origins) != 2 {
			return fmt.Errorf("set-up guard: A's routing table holds %d origins, want B and C", len(a.Origins))
		}
		return nil
	}
	s, err := e.c1.stats(e.pubBase())
	if err != nil {
		return err
	}
	if s.Live != len(e.subs) {
		return fmt.Errorf("set-up guard: %d live subscriptions, want %d", s.Live, len(e.subs))
	}
	if s.Communities >= s.Live {
		return fmt.Errorf("set-up guard: %d communities for %d subscriptions: the synopsis was cold", s.Communities, s.Live)
	}
	return nil
}

// pubSample is one publish inside the window.
type pubSample struct {
	sent     time.Time
	lat      int64 // ns, client observed
	reply    publishReply
	probeOrd int // ordinal among the probe's documents since set-up, or -1
	traced   bool
}

// slice is one sliceLen of the window as connection 1 saw it.
type slice struct {
	from, to   time.Time
	cpu0, cpu1 time.Duration // Σ daemons' utime+stime at the edges
	lo, hi     int           // its publishes are pubs[lo:hi]
	refWall    time.Duration // wall time its reference requests took
	ref        lats          // CPU time of each of them, ns
	t0, t1     hostTicks
}

func (s slice) stolen() bool { return stolen(s.t0, s.t1) }

// window is what connection 1 recorded.
type window struct {
	pubs   []pubSample
	slices []slice
}

// publishLoop is connection 1: one publisher sending single documents
// back to back (closed loop) for the duration d. With record false the
// replies are discarded (warm-up). A recorded window is cut into slices
// of sliceLen, and after every refEvery publishes the publisher makes
// one reference request. In the traced pass every other slice is a
// traced slice: spans are recorded, it opens with a /metrics scrape and,
// federated, one publish in a hundred has its hop trace fetched.
func (e *env) publishLoop(ctx context.Context, d time.Duration, record bool, tr *tracer) window {
	var w window
	start := time.Now()
	until := start.Add(d)
	closeSlice := func() {
		if n := len(w.slices); n > 0 {
			s := &w.slices[n-1]
			s.to, s.cpu1, s.hi, s.t1 = time.Now(), e.daemonCPU(), len(w.pubs), readHostTicks()
		}
	}
	last := -1
	for time.Now().Before(until) && ctx.Err() == nil {
		doc := &e.in.docs[e.nextDoc%len(e.in.docs)]
		e.nextDoc++
		traced := false
		if record {
			k := int(time.Since(start) / sliceLen)
			traced = tr != nil && k%2 == 1
			if k != last {
				closeSlice()
				if traced {
					tr.scrape(e)
				}
				w.slices = append(w.slices, slice{from: time.Now(), cpu0: e.daemonCPU(), lo: len(w.pubs), t0: readHostTicks()})
			}
			last = k
			if e.published%refEvery == 0 {
				s := &w.slices[len(w.slices)-1]
				t0 := time.Now()
				s.ref = append(s.ref, int64(e.ref.request()))
				s.refWall += time.Since(t0)
			}
		}
		ord := -1
		if doc.probe {
			ord = e.probeSent
			e.probeSent++
		}
		t0 := time.Now()
		r, err := e.c1.publish(e.pubBase(), doc.xml)
		lat := time.Since(t0)
		if e.published++; e.churnDue != nil && e.published%(e.cfg.sc.churnEvery/2) == 0 {
			select {
			case e.churnDue <- time.Now():
			default: // the reserve is spent and the churner has stopped
			}
		}
		if err != nil || !record {
			continue
		}
		w.pubs = append(w.pubs, pubSample{sent: t0, lat: int64(lat), reply: r, probeOrd: ord, traced: traced})
		if traced {
			tr.publish(e, t0, lat, r, len(w.pubs))
		}
	}
	closeSlice()
	return w
}

// sliceLen is the length of one slice of the window. The rate, the
// median latency and the CPU per publish are each the median of the
// slices' values, so that a second in which a neighbour on the shared
// host took a core moves a slice or two and not the run's number; the
// traced pass alternates traced and untraced slices, which keeps drift
// out of the overhead figure.
const sliceLen = 500 * time.Millisecond

// sliceStats reduces the window to per-slice publish rates (1/s), median
// latencies (ns) and daemon CPU per publish (us), and gathers the
// slices' reference costs. A slice's time is its length less what its
// reference requests took. Stolen slices are left out and counted,
// unless every slice was stolen; a slice cut short by the end of the
// window is kept only when it is at least half a sliceLen long.
func (w window) sliceStats() (rate, p50, cpu []float64, ref lats, stolen int) {
	for _, s := range w.slices {
		if s.stolen() {
			stolen++
		}
	}
	keepStolen := stolen == len(w.slices)
	for _, s := range w.slices {
		dt, n := s.to.Sub(s.from), s.hi-s.lo
		if n == 0 || dt < sliceLen/2 || s.stolen() && !keepStolen {
			continue
		}
		var l lats
		for _, p := range w.pubs[s.lo:s.hi] {
			l = append(l, p.lat)
		}
		rate = append(rate, float64(n)/(dt-s.refWall).Seconds())
		p50 = append(p50, float64(l.sorted().quantile(0.5)))
		cpu = append(cpu, float64((s.cpu1-s.cpu0).Microseconds())/float64(n))
		ref = append(ref, s.ref...)
	}
	return rate, p50, cpu, ref, stolen
}

// daemonCPU sums the daemons' CPU time. A daemon that cannot be read has
// died and counts as 0; its publishes fail, and failed_share says so.
func (e *env) daemonCPU() time.Duration {
	var sum time.Duration
	for _, d := range e.daemons {
		cpu, _ := d.cpuTime()
		sum += cpu
	}
	return sum
}

// actorLog is what connection 2 observed, stamped so that the window can
// be cut out afterwards.
type actorLog struct {
	// consumer
	recvBySeq map[uint64]time.Time // fanout-mem: delivery's document seq → seen
	recvByOrd []time.Time          // fed-line3: k-th probe delivery → seen
	// sweeper
	drains, acks []timed
	// churner
	subscribes []timed
	late       []timed
}

type timed struct {
	at time.Time
	ns int64
}

func within(ts []timed, from, to time.Time) lats {
	var out lats
	for _, t := range ts {
		if !t.at.Before(from) && t.at.Before(to) {
			out = append(out, t.ns)
		}
	}
	return out
}

// consume is connection 2 of fanout-mem and fed-line3: long-poll the
// probe's queue. An eviction (gap) still advances the delivery ordinal.
func (e *env) consume(stop <-chan struct{}, log *actorLog) {
	log.recvBySeq = map[uint64]time.Time{}
	base := e.daemons[e.probe.daemon].base()
	for {
		select {
		case <-stop:
			return
		default:
		}
		r, err := e.c2.drain(base, e.probe.id, 50*time.Millisecond)
		now := time.Now()
		if err != nil {
			continue
		}
		e.mostOnceSeen += r.Gap + uint64(len(r.Deliveries))
		for i := uint64(0); i < r.Gap; i++ {
			log.recvByOrd = append(log.recvByOrd, time.Time{})
		}
		for _, d := range r.Deliveries {
			log.recvBySeq[d.Doc] = now
			log.recvByOrd = append(log.recvByOrd, now)
		}
	}
}

// sweepHz is how many acked subscriptions the sweeper visits per second:
// each of the 100 every half second, inside the 2 s lease, and before
// 1024 owed deliveries (four queues' worth, the daemon's cap) pile up on
// one that wants every document.
const sweepHz = 200

// sweep is connection 2 of acked-durable: an open loop that every
// 1/sweepHz s drains the next acked subscription without waiting and
// acknowledges what came. Back to back it was a second closed loop four
// times as busy as the publisher, and the scheduler's split between the
// two decided the publish rate.
func (e *env) sweep(stop <-chan struct{}, log *actorLog) {
	var acked []liveSub
	for _, s := range e.subs {
		if s.acked {
			acked = append(acked, s)
		}
	}
	base := e.pubBase()
	loop := openLoop{start: time.Now(), interval: time.Second / sweepHz}
	for k := 0; ; k++ {
		select {
		case <-stop:
			return
		case <-time.After(time.Until(loop.due(k))):
		}
		s := acked[k%len(acked)]
		t0 := time.Now()
		r, err := e.c2.drain(base, s.id, 0)
		if err != nil || len(r.Deliveries) == 0 {
			continue
		}
		t1 := time.Now()
		log.drains = append(log.drains, timed{t0, int64(t1.Sub(t0))})
		if e.c2.ack(base, s.id, r.Cursor) == nil {
			log.acks = append(log.acks, timed{t1, int64(time.Since(t1))})
		}
	}
}

// churn is connection 2 of churn-mix: every churnEvery publishes a pair
// of operations falls due, alternately unsubscribing a random live
// subscription and subscribing a fresh pattern in its place. The clock is
// the publisher's progress, not the wall: at a fixed rate per second a
// subscribe, which costs the daemon tens of milliseconds, took a larger
// share of a core whenever the shared host ran slower, and the publish
// rate fell faster than the host did; per publish, the mix of work stays
// the same at any host speed. The loop is open in that operations fall
// due whether or not the churner has kept up, and each is timed from the
// instant it was due.
func (e *env) churn(stop <-chan struct{}, log *actorLog) {
	rng := rand.New(rand.NewSource(e.cfg.seed + 7))
	base := e.pubBase()
	fresh := 0
	for k := 0; fresh < len(e.in.reserve); k++ {
		var due time.Time
		select {
		case <-stop:
			return
		case due = <-e.churnDue:
		}
		started := time.Now()
		if k%2 == 0 {
			// e.subs stays the live set: the victim leaves it here, its
			// replacement joins below.
			victim := rng.Intn(len(e.subs))
			e.c2.unsubscribe(base, e.subs[victim].id)
			e.subs[victim] = e.subs[len(e.subs)-1]
			e.subs = e.subs[:len(e.subs)-1]
			_, late := openLoop{}.observe(due, started, time.Now())
			log.late = append(log.late, timed{due, int64(late)})
			continue
		}
		p := e.in.reserve[fresh]
		fresh++
		s := subSpec{pat: p, expr: p.String()}
		id, err := e.c2.subscribe(base, s.expr, "")
		lat, late := openLoop{}.observe(due, started, time.Now())
		log.late = append(log.late, timed{due, int64(late)})
		if err != nil {
			continue
		}
		e.subs = append(e.subs, liveSub{subSpec: s, id: id})
		log.subscribes = append(log.subscribes, timed{due, int64(lat)})
	}
	<-stop // reserve exhausted: the caller sized it, so only a far faster daemon gets here
}

// warmUp runs the load for the warm-up period, and for further such
// periods while the hypervisor steals from them, as long as the
// checkout's stealAllowance and the run's own limit last: a window opened
// in such minutes is lost whatever is done to its numbers, and they
// pass.
func (e *env) warmUp(ctx context.Context) {
	start := time.Now()
	for ctx.Err() == nil {
		t0 := readHostTicks()
		e.publishLoop(ctx, e.cfg.warmUp(), false, nil)
		if !stolen(t0, readHostTicks()) {
			break
		}
		if waited := time.Since(start); waited > maxStealWait || !spendStealAllowance(e.cfg.root, e.cfg.warmUp()) {
			break
		}
	}
}

// snapshot is what is read at each edge of the window; at is the edge.
type snapshot struct {
	at      time.Time
	metrics []scrape
	self    time.Duration
}

func (e *env) snapshot() (snapshot, error) {
	var s snapshot
	for _, d := range e.daemons {
		m, err := e.c1.metrics(d.base())
		if err != nil {
			return s, err
		}
		s.metrics = append(s.metrics, m)
	}
	s.self = selfCPU()
	return s, nil
}

// delta sums a counter family's growth over the daemons.
func delta(a, b snapshot, family string) float64 {
	var d float64
	for i := range a.metrics {
		d += b.metrics[i].sum[family] - a.metrics[i].sum[family]
	}
	return d
}

// runWorkload is one run: set-up (several times, the last one kept),
// warm-up, the window, the verification pass and, traced, the replays.
func runWorkload(ctx context.Context, cfg runConfig) (*result, error) {
	reserve := 0
	if cfg.workload == wChurn {
		// One fresh pattern per pair for the whole load phase, the longest
		// warm-up included, at twice the publish rate HEAD reaches on
		// this box, with slack.
		reserve = int((cfg.warmUp()+maxStealWait+cfg.window).Seconds()*4000)/cfg.sc.churnEvery + 50
	}
	in, err := makeInputs(cfg.workload, cfg.sc, cfg.seed, reserve)
	if err != nil {
		return nil, err
	}

	ref, err := newHostRef()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	ref.request() // the first opens the connection

	var setups, scaled []float64
	var e *env
	for i := 0; i < cfg.sc.setups; i++ {
		if e != nil {
			e.close()
		}
		before := ref.burst(setupBurst)
		if e, err = setUp(ctx, cfg, in); err != nil {
			return nil, err
		}
		e.ref = ref
		setups = append(setups, e.setup.Seconds())
		scaled = append(scaled, e.setup.Seconds()/slowdown((before+ref.burst(setupBurst))/2))
	}
	defer e.close()

	res := newResult(cfg, e)
	ms := newMetricSet(cfg.workload)
	ms.set("setup_s", median(scaled), len(scaled))
	ms.set("setup_s_raw", median(setups), len(setups))

	var tr *tracer
	if cfg.trace {
		tr = newTracer(cfg.workload)
		tr.nullRTT(e)
	}

	// Connection 2's actor runs from warm-up to the end of the window.
	stop, done := make(chan struct{}), make(chan struct{})
	log := &actorLog{}
	go func() {
		defer close(done)
		switch cfg.workload {
		case wFanout, wFed:
			e.consume(stop, log)
		case wAcked:
			e.sweep(stop, log)
		case wChurn:
			e.churn(stop, log)
		}
	}()
	e.warmUp(ctx)
	s0, err := e.snapshot()
	if err != nil {
		close(stop)
		<-done
		return nil, err
	}
	s0.at = time.Now()
	w := e.publishLoop(ctx, cfg.window, true, tr)
	to := time.Now()
	s1, err := e.snapshot()
	s1.at = to
	close(stop)
	<-done
	if err == nil {
		err = ctx.Err() // interrupted: the window was cut short
	}
	if err != nil {
		return nil, err
	}

	e.windowMetrics(ms, res, w, log, s0, s1, tr)
	if err := e.verify(ctx, ms, res); err != nil {
		return nil, err
	}
	if tr != nil {
		if err := tr.replays(e, ms); err != nil {
			return nil, err
		}
		tr.budget(cfg.out, ms)
		if err := tr.write(filepath.Join(cfg.root, "bench", "out", "trace-"+cfg.workload+".json")); err != nil {
			return nil, err
		}
	}

	res.Attempted = e.c1.attempted.Load() + e.c2.attempted.Load()
	res.Failed = e.c1.failed.Load() + e.c2.failed.Load() + int64(res.ViolationCount)
	ms.set("failed_share", float64(res.Failed)/float64(res.Attempted), 0)
	res.Metrics = ms.m
	return res, nil
}

// windowMetrics turns what the two connections and the window's edges
// saw into the reported numbers.
func (e *env) windowMetrics(ms *metricSet, res *result, w window, log *actorLog, s0, s1 snapshot, tr *tracer) {
	pubs := w.pubs
	from, to := s0.at, s1.at
	wall := to.Sub(from)
	n := float64(len(pubs))
	var all, plain, traced, wait, match lats
	var bytes float64
	for _, p := range pubs {
		all = append(all, p.lat)
		if p.traced {
			traced = append(traced, p.lat)
		} else {
			plain = append(plain, p.lat)
		}
		wait = append(wait, p.reply.IngestWaitNS)
		match = append(match, p.reply.MatchNS)
		bytes += float64(p.reply.bytes)
	}
	if n == 0 {
		return // every publish failed; failed_share says so
	}
	// The gated timings are what a host at nominal speed would show; the
	// _raw ones are what this host showed.
	rate, p50, cpu, ref, stolen := w.sliceStats()
	if len(ref) == 0 {
		ref = lats{int64(e.ref.request())} // a window of under refEvery publishes
	}
	if 2*stolen > len(w.slices) {
		res.Invalid = append(res.Invalid, fmt.Sprintf("the hypervisor stole from %d of %d slices", stolen, len(w.slices)))
	}
	ms.set("loadgen.stolen_slices", float64(stolen), len(w.slices))
	host := time.Duration(ref.sorted().quantile(0.5))
	slow := slowdown(host)
	ms.set("loadgen.host_ref_us", usOf(int64(host)), len(ref))
	ms.set("publish_per_s", median(rate)*slow, len(pubs))
	ms.set("publish_per_s_raw", median(rate), len(pubs))
	ms.set("publish_p50_us", median(p50)/1e3/slow, len(pubs))
	ms.set("publish_p50_us_raw", median(p50)/1e3, len(pubs))
	ms.setLatency("publish_p99_us", all, 0.99)
	ms.set("daemon_cpu_us_per_pub", median(cpu)/slow, len(cpu))
	ms.set("daemon_cpu_us_per_pub_raw", median(cpu), len(cpu))
	var rss float64
	for _, d := range e.daemons {
		if mb, err := d.peakRSSMB(); err == nil {
			rss += mb
		}
	}
	ms.set("daemon_rss_mb", rss, 0)

	// Delivery latency: publish sent → the document seen in the probe's
	// drain reply.
	if e.probe != nil {
		var dl lats
		if e.cfg.workload == wFed {
			for _, p := range pubs {
				if k := p.probeOrd; k >= 0 && k < len(log.recvByOrd) && !log.recvByOrd[k].IsZero() {
					dl = append(dl, int64(log.recvByOrd[k].Sub(p.sent)))
				}
			}
		} else {
			for _, p := range pubs {
				if at, ok := log.recvBySeq[p.reply.Seq]; ok {
					dl = append(dl, int64(at.Sub(p.sent)))
				}
			}
		}
		ms.setLatency("deliver_p50_us", dl, 0.5)
		ms.setLatency("deliver_p99_us", dl, 0.99)
	}
	if e.cfg.workload == wChurn {
		sub := within(log.subscribes, from, to)
		ms.setLatency("subscribe_p50_us", sub, 0.5)
		ms.setLatency("subscribe_p90_us", sub, 0.9)
	}

	// A run whose load generator was itself the bottleneck measured the
	// harness, not the daemon: flag it.
	cpuShare := (s1.self - s0.self).Seconds() / wall.Seconds()
	if cpuShare > 0.8 {
		res.Invalid = append(res.Invalid, fmt.Sprintf("loadgen.cpu_share %.2f > 0.8", cpuShare))
	}
	// The churner is one serial connection, so a slow reply makes the next
	// operation late: its p99 lateness measures the daemon's stalls. When
	// even the median operation starts late, the backlog is growing and
	// the loop is no longer open.
	late := within(log.late, from, to)
	if len(late) > 0 && late.sorted().quantile(0.5) > int64(20*time.Millisecond) {
		res.Invalid = append(res.Invalid, fmt.Sprintf("churner median lateness %.1f ms > 20: the daemon does not sustain a churn pair per %d publishes", float64(late.sorted().quantile(0.5))/1e6, e.cfg.sc.churnEvery))
	}
	if tr == nil {
		return
	}

	// Per-layer numbers the window itself yields.
	ms.setLatency("treesimd.publish_p999_us", all, 0.999)
	ms.set("treesimd.resp_bytes_per_pub", bytes/n, len(pubs))
	ms.setLatency("broker.match_us", match, 0.5)
	ms.setLatency("broker.ingest_wait_p99_us", wait, 0.99)
	tr.ingestWaitP50 = med(wait)
	if len(traced) > 0 && len(plain) > 0 {
		t, u := med(traced), med(plain)
		tr.publishP50 = t
		ms.set("telemetry.trace_overhead_pct", 100*(t-u)/u, len(traced))
	}
	// Per client publish: federated, every broker a document reaches
	// counts it as published.
	ms.set("broker.filter_evals_per_pub", delta(s0, s1, "treesim_broker_filter_evals_total")/n, 0)
	ms.set("broker.deliveries_per_pub", delta(s0, s1, "treesim_broker_deliveries_total")/n, 0)
	if d := delta(s0, s1, "treesim_broker_deliveries_total"); d > 0 {
		ms.set("broker.dropped_share", delta(s0, s1, "treesim_broker_dropped_total")/d, 0)
	}
	ms.set("broker.ack_shed", delta(s0, s1, "treesim_broker_ack_shed_total"), 0)
	ms.set("broker.redeliveries", delta(s0, s1, "treesim_broker_redeliveries_total"), 0)
	ms.set("loadgen.cpu_share", cpuShare, 0)

	var comms, singles, pinned, rebuilds, proxy float64
	for _, d := range e.daemons {
		if st, err := e.c1.stats(d.base()); err == nil {
			comms += float64(st.Communities)
			singles += float64(st.Singletons)
			pinned += st.PinnedDocs
			rebuilds += st.Rebuilds
			proxy = st.PrecisionProxy // single daemon, or C's (the last) federated
		}
	}
	ms.set("cluster.communities", comms, 0)
	ms.set("cluster.singletons", singles, 0)
	ms.set("broker.pinned_docs", pinned, 0)
	ms.set("broker.rebuilds", rebuilds, 0)
	ms.set("broker.precision_proxy", proxy, 0)

	switch e.cfg.workload {
	case wAcked:
		ms.setLatency("broker.drain_us", within(log.drains, from, to), 0.5)
		ms.setLatency("broker.ack_us", within(log.acks, from, to), 0.5)
		ms.set("persist.wal_bytes_per_pub", delta(s0, s1, "treesim_wal_append_bytes_total")/n, 0)
		ms.set("persist.wal_appends_per_pub", delta(s0, s1, "treesim_wal_appends_total")/n, 0)
		m0, m1 := s0.metrics[0], s1.metrics[0]
		if v, cnt := histQuantile(m0, m1, "treesim_wal_fsync_ns", 0.5); cnt > 0 {
			ms.set("persist.fsync_p50_us", v/1e3, cnt)
		}
		if v, cnt := histQuantile(m0, m1, "treesim_snapshot_write_ns", 0.5); cnt > 0 {
			ms.set("persist.snapshot_ms", v/1e6, cnt)
			ms.set("persist.snapshot_bytes", delta(s0, s1, "treesim_snapshot_bytes_total")/float64(cnt), cnt)
		}
	case wChurn:
		if len(late) > 0 {
			ms.set("loadgen.churn_late_ms", float64(late.sorted().quantile(0.99))/1e6, len(late))
		}
	case wFed:
		ms.set("overlay.forwards_per_pub", delta(s0, s1, "treesim_overlay_forwards_sent_total")/n, 0)
		ms.set("overlay.duplicates", delta(s0, s1, "treesim_overlay_duplicates_total"), 0)
		ms.set("overlay.send_errors", delta(s0, s1, "treesim_overlay_send_errors_total"), 0)
		ms.set("overlay.converge_ms", float64(e.converge.Microseconds())/1e3, 0)
		ms.set("overlay.advert_msgs", e.advertMsgs, 0)
		ms.set("overlay.advert_bytes", e.advertBytes(), 0)
	}
}

// histQuantile estimates a quantile of the observations a histogram
// family gained between two scrapes: the scraped cumulative buckets are
// turned back into a telemetry.HistogramSnapshot, whose Quantile is the
// estimate the daemon's own /stats percentiles use.
func histQuantile(a, b scrape, family string, q float64) (float64, int) {
	gained := map[float64]float64{} // upper bound → cumulative count gained
	add := func(sc scrape, sign float64) {
		for _, s := range sc.samples {
			if s.Name != family+"_bucket" {
				continue
			}
			if le, err := strconv.ParseFloat(s.Labels["le"], 64); err == nil { // "+Inf" parses
				gained[le] += sign * s.Value
			}
		}
	}
	add(b, 1)
	add(a, -1)
	bounds := make([]float64, 0, len(gained))
	for le := range gained {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	snap := telemetry.HistogramSnapshot{}
	prev := 0.0
	for _, le := range bounds {
		if !math.IsInf(le, 1) {
			snap.Bounds = append(snap.Bounds, le)
		}
		snap.Counts = append(snap.Counts, uint64(gained[le]-prev))
		prev = gained[le]
	}
	snap.Count = uint64(prev)
	return snap.Quantile(q), int(snap.Count)
}

// patternsOf lists a population's patterns.
func patternsOf(subs []liveSub) []*pattern.Pattern {
	out := make([]*pattern.Pattern, len(subs))
	for i, s := range subs {
		out[i] = s.pat
	}
	return out
}
