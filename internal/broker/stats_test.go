package broker

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"treesim/internal/telemetry"
)

// exactPercentiles is the reference the old latency reservoir computed:
// quantiles read off the sorted merged sample pool, NEVER averaged
// across shards. It returns the order statistics under both common
// rank conventions — floor-index q·(n-1) (the reservoir's) and
// nearest-rank ⌈q·n⌉ (the histogram's); at small n they differ by one
// sample, so the agreement tolerance must span both.
func exactPercentiles(samples []int64, q float64) (lo, hi int64) {
	if len(samples) == 0 {
		return 0, 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	lo = s[int(q*float64(len(s)-1))]
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	hi = s[rank-1]
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo, hi
}

// bucketEdges returns the (lower, upper] bucket interval holding v —
// the histogram's inherent resolution, and therefore the agreement
// tolerance between registry-derived stats and the exact reference.
func bucketEdges(bounds []float64, v float64) (float64, float64) {
	lower := 0.0
	for _, b := range bounds {
		if v <= b {
			return lower, b
		}
		lower = b
	}
	return lower, bounds[len(bounds)-1]
}

// TestStatsPercentilesMatchReservoirReference is the differential test
// for the reservoir→histogram migration: Stats().PublishP50/P99, now
// estimated from the treesim_broker_publish_ns histogram, must agree
// with the old merged-reservoir quantiles to within one bucket's
// width on the same sample stream — including the skewed shapes that
// made the reservoir's merge-don't-average rule matter.
func TestStatsPercentilesMatchReservoirReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cases := map[string][]int64{
		"uniform":          {10_000, 20_000, 30_000, 40_000},
		"tail in one spot": {5_000, 5_000, 5_000, 9_000_000, 5_000, 5_000, 5_000, 9_500_000, 5_000, 5_000, 5_000, 9_900_000},
	}
	spread := make([]int64, 5000)
	for i := range spread {
		spread[i] = int64(30_000 * (0.5 + rng.Float64()*20))
	}
	cases["lognormal-ish"] = spread

	bounds := telemetry.DefaultLatencyBuckets()
	for name, samples := range cases {
		e := New(Config{})
		for _, ns := range samples {
			e.pubLat.ObserveDuration(ns)
		}
		st := e.Stats()
		e.Close()
		for _, c := range []struct {
			got time.Duration
			q   float64
			tag string
		}{{st.PublishP50, 0.50, "p50"}, {st.PublishP99, 0.99, "p99"}} {
			refLo, refHi := exactPercentiles(samples, c.q)
			lo, _ := bucketEdges(bounds, float64(refLo))
			_, hi := bucketEdges(bounds, float64(refHi))
			if float64(c.got) < lo || float64(c.got) > hi {
				t.Errorf("%s: %s = %d outside reference buckets (%g, %g] around exact [%d, %d]",
					name, c.tag, c.got, lo, hi, refLo, refHi)
			}
		}
	}
}

// TestEngineMetricsExposition checks that a working engine's registry
// renders parseable Prometheus text covering the broker families that
// /stats reports, with matching values.
func TestEngineMetricsExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := New(Config{Telemetry: reg})
	defer e.Close()
	id, err := e.Subscribe("//a/b")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := e.Publish(doc(t, "a(b)")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Drain(id, 100, 0); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, b.String())
	}
	sums := telemetry.SumByName(samples)
	st := e.Stats()
	checks := map[string]float64{
		"treesim_broker_published_total":         float64(st.Published),
		"treesim_broker_deliveries_total":        float64(st.Deliveries),
		"treesim_broker_drained_total":           float64(st.Drained),
		"treesim_broker_subscribes_total":        float64(st.Subscribes),
		"treesim_broker_filter_evals_total":      float64(st.FilterEvals),
		"treesim_broker_live_subscriptions":      float64(st.Live),
		"treesim_broker_communities":             float64(st.Communities),
		"treesim_broker_publish_ns_count":        float64(st.Published),
		"treesim_broker_shard_match_ns_count":    0, // present; value checked below
		"treesim_broker_delivery_ring_occupancy": 0,
	}
	for name := range checks {
		if _, ok := sums[name]; !ok {
			t.Errorf("family %s missing from exposition", name)
		}
	}
	for _, name := range []string{
		"treesim_broker_published_total", "treesim_broker_deliveries_total",
		"treesim_broker_drained_total", "treesim_broker_subscribes_total",
		"treesim_broker_filter_evals_total", "treesim_broker_live_subscriptions",
		"treesim_broker_communities", "treesim_broker_publish_ns_count",
	} {
		if got, want := sums[name], checks[name]; got != want {
			t.Errorf("%s = %g, /stats says %g", name, got, want)
		}
	}
	// The match histogram (one series, shard="0") counts every publish
	// routed while there were communities.
	if got := sums["treesim_broker_shard_match_ns_count"]; got != float64(st.Published) {
		t.Errorf("shard match count = %g, want %g", got, float64(st.Published))
	}
}
