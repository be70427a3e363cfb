package main

import (
	"math"
	"sort"
	"time"
)

// Workload names are fixed: BENCHMARK.json, the baseline files and every
// later perf issue refer to them.
const (
	wFanout = "fanout-mem"
	wAcked  = "acked-durable"
	wChurn  = "churn-mix"
	wFed    = "fed-line3"
)

var workloadNames = []string{wFanout, wAcked, wChurn, wFed}

// metricDef names one reported quantity. The tables below are the
// harness's side of BENCHMARK.json; a test keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string   // "lower" or "higher"
	Bound  float64  // end-to-end only: share of the parent's median it may worsen by
	On     []string // workloads that report it; nil means all four
}

var (
	single    = []string{wFanout, wAcked, wChurn}
	withProbe = []string{wFanout, wFed}
	onlyAcked = []string{wAcked}
	onlyChurn = []string{wChurn}
	onlyFed   = []string{wFed}
)

// endToEnd are the metrics every workload reports and the driver gates
// on. The workload-specific end-to-end metrics of the issue (deliver_*,
// subscribe_*, recover_s, failed_share) head perLayer instead: the
// driver's contract wants every end-to-end metric from every workload,
// never zero. The driver varies the seed and wants each metric's spread
// across ten seeds within its bound, and asks for a third of it. The
// four timings are scaled to nominal host speed (calib.go): unscaled
// they spread 22-33% across seeds 101-110 in a noisy hour on this box,
// which is what the driver saw; scaled, 2-7%, and setup_s 7-10%
// (bench/baseline). So the bounds are about three times that, which is
// the contract's cap of 0.25. publish_p99_us spreads 18-31%, so it is
// listed per-layer under the same name.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "publish_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "publish_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "daemon_cpu_us_per_pub", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "daemon_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "route_recall", Unit: "ratio", Better: "higher", Bound: 0.25},
	{Name: "route_precision", Unit: "ratio", Better: "higher", Bound: 0.2},
}

// ungatedEndToEnd are end-to-end by nature but not gated by the driver:
// too unsteady across seeds for any allowed bound, reported by some
// workloads only, or what the gated timings read before scaling. Both
// passes measure them.
var ungatedEndToEnd = []metricDef{
	{Name: "setup_s_raw", Unit: "s", Better: "lower"},
	{Name: "publish_per_s_raw", Unit: "1/s", Better: "higher"},
	{Name: "publish_p50_us_raw", Unit: "us", Better: "lower"},
	{Name: "daemon_cpu_us_per_pub_raw", Unit: "us", Better: "lower"},
	{Name: "loadgen.host_ref_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.stolen_slices", Unit: "count", Better: "lower"},
	{Name: "publish_p99_us", Unit: "us", Better: "lower"},
	{Name: "deliver_p50_us", Unit: "us", Better: "lower", On: withProbe},
	{Name: "deliver_p99_us", Unit: "us", Better: "lower", On: withProbe},
	{Name: "subscribe_p50_us", Unit: "us", Better: "lower", On: onlyChurn},
	{Name: "subscribe_p90_us", Unit: "us", Better: "lower", On: onlyChurn},
	{Name: "recover_s", Unit: "s", Better: "lower", On: onlyAcked},
	{Name: "failed_share", Unit: "ratio", Better: "lower"},
}

// layerOnly are measured by the traced pass alone.
var layerOnly = []metricDef{
	{Name: "treesimd.null_rtt_us", Unit: "us", Better: "lower"},
	{Name: "treesimd.http_residual_us", Unit: "us", Better: "lower"},
	{Name: "treesimd.resp_bytes_per_pub", Unit: "bytes", Better: "lower"},
	{Name: "treesimd.publish_p999_us", Unit: "us", Better: "lower"},
	{Name: "xmltree.parse_us", Unit: "us", Better: "lower"},
	{Name: "xmltree.parse_allocs", Unit: "count", Better: "lower"},
	{Name: "xmltree.flatten_us", Unit: "us", Better: "lower"},
	{Name: "xmltree.doc_bytes", Unit: "bytes", Better: "lower"},
	{Name: "xmltree.doc_nodes", Unit: "count", Better: "lower"},
	{Name: "pattern.parse_us", Unit: "us", Better: "lower"},
	{Name: "core.observe_us", Unit: "us", Better: "lower"},
	{Name: "core.simrow_us", Unit: "us", Better: "lower"},
	{Name: "core.simmatrix_ms", Unit: "ms", Better: "lower"},
	{Name: "synopsis.nodes", Unit: "count", Better: "lower"},
	{Name: "cluster.assign_us", Unit: "us", Better: "lower"},
	{Name: "cluster.communities", Unit: "count", Better: "lower"},
	{Name: "cluster.singletons", Unit: "count", Better: "lower"},
	{Name: "matching.match_us", Unit: "us", Better: "lower"},
	{Name: "matching.match_allocs", Unit: "count", Better: "lower"},
	{Name: "matching.add_remove_us", Unit: "us", Better: "lower"},
	{Name: "matching.forest_nodes", Unit: "count", Better: "lower"},
	{Name: "broker.match_us", Unit: "us", Better: "lower"},
	{Name: "broker.ingest_wait_p99_us", Unit: "us", Better: "lower"},
	{Name: "broker.publish_inproc_us", Unit: "us", Better: "lower", On: single},
	{Name: "broker.publish_inproc_allocs", Unit: "count", Better: "lower", On: single},
	{Name: "broker.subscribe_inproc_us", Unit: "us", Better: "lower", On: single},
	{Name: "broker.filter_evals_per_pub", Unit: "count", Better: "lower"},
	{Name: "broker.deliveries_per_pub", Unit: "count", Better: "higher"},
	{Name: "broker.dropped_share", Unit: "ratio", Better: "lower"},
	{Name: "broker.drain_us", Unit: "us", Better: "lower", On: onlyAcked},
	{Name: "broker.ack_us", Unit: "us", Better: "lower", On: onlyAcked},
	{Name: "broker.rebuilds", Unit: "count", Better: "lower"},
	{Name: "broker.precision_proxy", Unit: "ratio", Better: "higher"},
	{Name: "broker.ack_shed", Unit: "count", Better: "lower"},
	{Name: "broker.redeliveries", Unit: "count", Better: "lower"},
	{Name: "broker.pinned_docs", Unit: "count", Better: "lower"},
	{Name: "persist.append_us", Unit: "us", Better: "lower", On: onlyAcked},
	{Name: "persist.wal_bytes_per_pub", Unit: "bytes", Better: "lower", On: onlyAcked},
	{Name: "persist.wal_appends_per_pub", Unit: "count", Better: "lower", On: onlyAcked},
	{Name: "persist.fsync_p50_us", Unit: "us", Better: "lower", On: onlyAcked},
	{Name: "persist.snapshot_ms", Unit: "ms", Better: "lower", On: onlyAcked},
	{Name: "persist.snapshot_bytes", Unit: "bytes", Better: "lower", On: onlyAcked},
	{Name: "persist.replay_records", Unit: "count", Better: "lower", On: onlyAcked},
	{Name: "overlay.forwards_per_pub", Unit: "count", Better: "lower", On: onlyFed},
	{Name: "overlay.duplicates", Unit: "count", Better: "lower", On: onlyFed},
	{Name: "overlay.send_errors", Unit: "count", Better: "lower", On: onlyFed},
	{Name: "overlay.hop_us", Unit: "us", Better: "lower", On: onlyFed},
	{Name: "overlay.publish_inproc_us", Unit: "us", Better: "lower", On: onlyFed},
	{Name: "overlay.converge_ms", Unit: "ms", Better: "lower", On: onlyFed},
	{Name: "overlay.advert_msgs", Unit: "count", Better: "lower", On: onlyFed},
	{Name: "overlay.advert_bytes", Unit: "bytes", Better: "lower", On: onlyFed},
	{Name: "wire.encode_us", Unit: "us", Better: "lower", On: onlyFed},
	{Name: "wire.decode_us", Unit: "us", Better: "lower", On: onlyFed},
	{Name: "wire.pub_bytes", Unit: "bytes", Better: "lower", On: onlyFed},
	{Name: "telemetry.scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "telemetry.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "loadgen.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.churn_late_ms", Unit: "ms", Better: "lower", On: onlyChurn},
}

// perLayer is BENCHMARK.json's per_layer list, in order.
func perLayer() []metricDef {
	return append(append([]metricDef(nil), ungatedEndToEnd...), layerOnly...)
}

func (d metricDef) on(workload string) bool {
	if d.On == nil {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

// measurement is one reported value. Samples is the number of
// observations behind a percentile or median, 0 for counts and ratios.
type measurement struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metricSet collects a run's measurements by name; set panics on a name
// or workload the tables do not allow, so a typo cannot ship.
type metricSet struct {
	workload string
	defs     map[string]metricDef
	m        map[string]measurement
}

func newMetricSet(workload string) *metricSet {
	s := &metricSet{workload: workload, defs: map[string]metricDef{}, m: map[string]measurement{}}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		s.defs[d.Name] = d
	}
	return s
}

func (s *metricSet) set(name string, v float64, samples int) {
	d, ok := s.defs[name]
	if !ok || !d.on(s.workload) {
		panic("bench: metric " + name + " is not defined for workload " + s.workload)
	}
	s.m[name] = measurement{Value: v, Unit: d.Unit, Samples: samples}
}

// lats is a latency sample in nanoseconds.
type lats []int64

func (l lats) sorted() lats {
	out := append(lats(nil), l...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile reads the q-quantile (nearest rank) of a sorted sample.
func (l lats) quantile(q float64) int64 {
	if len(l) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(l)))) - 1
	if i < 0 {
		i = 0
	}
	return l[i]
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// percentileLadder is what the picker chooses from.
var percentileLadder = []float64{0.5, 0.9, 0.99, 0.999}

// highestPercentile returns the highest rung of the ladder that has at
// least ten samples beyond it in a sample of size n; 0 if even the
// median has fewer.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if float64(n)*(1-p) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// setLatency reports name's percentile p of the sample in microseconds
// when the sample supports it; an unsupported percentile is left out
// rather than reported from too few observations.
func (s *metricSet) setLatency(name string, sample lats, p float64) {
	if len(sample) == 0 || highestPercentile(len(sample)) < p {
		return
	}
	s.set(name, usOf(sample.sorted().quantile(p)), len(sample))
}

// openLoop is a fixed-rate schedule: operation k is due at
// start + k*interval whatever happened to operation k-1.
type openLoop struct {
	start    time.Time
	interval time.Duration
}

func (o openLoop) due(k int) time.Time { return o.start.Add(time.Duration(k) * o.interval) }

// observe returns what an operation due at `due`, actually started at
// `started` and answered at `done`, cost a user who wanted it at its due
// time, and how late the generator itself ran.
func (o openLoop) observe(due, started, done time.Time) (latency, late time.Duration) {
	late = started.Sub(due)
	if late < 0 {
		late = 0
	}
	return done.Sub(due), late
}

// median of an unsorted float sample (mean of the middle two when even).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (exclusive method), so -compare and
// the driver agree on what a spread is. It needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // after the clamp, as CPython does: the ends extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs(q3-q1) / math.Abs(m)
}
