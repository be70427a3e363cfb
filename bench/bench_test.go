package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"treesim/internal/pattern"
	"treesim/internal/xmltree"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// A percentile the sample does not support is left out, not guessed.
	ms := newMetricSet(wChurn)
	sample := make(lats, 150)
	for i := range sample {
		sample[i] = int64(i+1) * 1000
	}
	ms.setLatency("subscribe_p50_us", sample, 0.5)
	ms.setLatency("subscribe_p90_us", sample, 0.9)
	ms.setLatency("publish_p99_us", sample, 0.99)
	if got := ms.m["subscribe_p50_us"]; got.Value != 75 || got.Samples != 150 {
		t.Errorf("p50 of 1..150 us = %+v, want 75 with 150 samples", got)
	}
	if got := ms.m["subscribe_p90_us"].Value; got != 135 {
		t.Errorf("p90 of 1..150 us = %v, want 135", got)
	}
	if _, ok := ms.m["publish_p99_us"]; ok {
		t.Error("p99 reported from 150 samples")
	}
}

func TestOpenLoopDueTimeAccounting(t *testing.T) {
	start := time.Unix(100, 0)
	loop := openLoop{start: start, interval: 10 * time.Millisecond}
	if got := loop.due(3); !got.Equal(start.Add(30 * time.Millisecond)) {
		t.Fatalf("due(3) = %v", got)
	}
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	// On time: latency is the service time.
	if lat, late := loop.observe(at(0), at(0), at(5)); lat != 5*time.Millisecond || late != 0 {
		t.Errorf("on-time op: latency %v late %v", lat, late)
	}
	// The previous operation stalled until 30 ms: the one due at 10 ms
	// pays the 20 ms it waited as well as its own 5 ms.
	if lat, late := loop.observe(at(10), at(30), at(35)); lat != 25*time.Millisecond || late != 20*time.Millisecond {
		t.Errorf("stalled op: latency %v late %v", lat, late)
	}
	// Waking a little early is not negative lateness.
	if _, late := loop.observe(at(20), at(19), at(21)); late != 0 {
		t.Errorf("early op: late %v", late)
	}
}

func TestOracleAndCompare(t *testing.T) {
	mk := func(compact string) document {
		tr, err := xmltree.ParseCompact(compact)
		if err != nil {
			t.Fatal(err)
		}
		return document{tree: tr}
	}
	docs := []document{mk("a(b,c)"), mk("a(d(c))"), mk("x(b)")}
	var subs []liveSub
	for _, e := range []string{"/a/b", "//c", "/a[b][c]", "/*/b"} {
		subs = append(subs, liveSub{subSpec: subSpec{pat: pattern.MustParse(e), expr: e}})
	}
	want := oracle(docs, subs)
	expect := [][]bool{
		{true, false, false}, // /a/b
		{true, true, false},  // //c
		{true, false, false}, // /a[b][c]
		{true, false, true},  // /*/b
	}
	for s := range expect {
		for d := range expect[s] {
			if want[s][d] != expect[s][d] {
				t.Errorf("oracle(%s, doc %d) = %v", subs[s].expr, d, want[s][d])
			}
		}
	}
	// Deliveries: one lost (//c on doc 1), one extra (/a/b on doc 2), one
	// pair delivered twice.
	got := [][]int{{1, 0, 1}, {1, 0, 0}, {2, 0, 0}, {1, 0, 1}}
	q := compare(want, got)
	if q != (quality{hit: 5, lost: 1, extra: 1, repeated: 1}) {
		t.Fatalf("compare = %+v", q)
	}
	if r, p := q.recall(), q.precision(); math.Abs(r-5.0/6) > 1e-12 || math.Abs(p-5.0/6) > 1e-12 {
		t.Errorf("recall %v precision %v", r, p)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	if got := spread(v); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v", q1, q3)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the harness's
// tables equal in both directions, and checks that every name in them is
// set somewhere in the harness.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := readBenchmarkJSON(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v", b.Paths)
	}
	if strings.Join(b.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command = %v", b.Command)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d = %q (why: %d chars)", i, w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(b.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, harness has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || d.On != nil {
			t.Errorf("end-to-end metric %s: bound %v, workloads %v", m.Name, m.Bound, d.On)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s")
	}
	pl := perLayer()
	if len(b.PerLayer) != len(pl) {
		t.Fatalf("%d per-layer metrics, want %d", len(b.PerLayer), len(pl))
	}
	for i, m := range b.PerLayer {
		if d := pl[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, harness has %+v", i, m, d)
		}
	}

	var src strings.Builder
	files, _ := filepath.Glob("*.go")
	for _, f := range files {
		if f == "metrics.go" || strings.HasSuffix(f, "_test.go") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src.Write(data)
	}
	seen := map[string]bool{}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, d := range append(append([]metricDef(nil), endToEnd...), pl...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("bad or repeated metric %q (%q)", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if !strings.Contains(src.String(), `"`+d.Name+`"`) {
			t.Errorf("metric %s is in the tables but nothing in the harness sets it", d.Name)
		}
	}
}

func TestCompareReports(t *testing.T) {
	b := &benchmarkJSON{EndToEnd: []gatedMetric{
		{"publish_p50_us", "us", "lower", 0.10},
		{"publish_per_s", "1/s", "higher", 0.10},
	}}
	mk := func(p50, rate []float64) *report {
		r := &report{Stamp: stamp{Harness: harnessVersion, NProc: 2, Seconds: 20, Seed: 1, Repeat: len(p50)}}
		for i := range p50 {
			r.Runs = append(r.Runs, &result{Workload: wFanout, Metrics: map[string]measurement{
				"publish_p50_us": {Value: p50[i], Unit: "us"},
				"publish_per_s":  {Value: rate[i], Unit: "1/s"},
			}})
		}
		return r
	}
	steady := mk([]float64{400, 402, 404, 406}, []float64{1000, 1001, 1002, 1003})
	var out bytes.Buffer
	// Same numbers: nothing to report.
	if reg, unres, err := compareReports(&out, b, steady, steady); err != nil || reg != 0 || unres != 0 {
		t.Fatalf("steady vs itself: %d regressed %d unresolved %v\n%s", reg, unres, err, out.String())
	}
	// Latency up 20%, rate down 20%: both regress.
	worse := mk([]float64{480, 482, 484, 486}, []float64{800, 801, 802, 803})
	if reg, _, _ := compareReports(&out, b, steady, worse); reg != 2 {
		t.Errorf("worse: %d regressed, want 2\n%s", reg, out.String())
	}
	// Better in both directions is not a regression.
	if reg, unres, _ := compareReports(&out, b, worse, steady); reg != 0 || unres != 0 {
		t.Errorf("better: %d regressed %d unresolved", reg, unres)
	}
	// A base whose own runs spread wider than the bound resolves nothing.
	noisy := mk([]float64{300, 400, 500, 600}, []float64{1000, 1001, 1002, 1003})
	if _, unres, _ := compareReports(&out, b, noisy, steady); unres != 1 {
		t.Errorf("noisy base: %d unresolved, want 1", unres)
	}
	other := mk([]float64{400, 402, 404, 406}, []float64{1000, 1001, 1002, 1003})
	other.Stamp.NProc = 1
	if _, _, err := compareReports(&out, b, steady, other); err == nil {
		t.Error("compared runs from machines with different nproc")
	}
	other.Stamp = steady.Stamp
	other.Stamp.Seconds = 30
	if _, _, err := compareReports(&out, b, steady, other); err == nil {
		t.Error("compared runs with different windows")
	}
}

// TestSliceStats: a slice yields its own rate (over its length less its
// reference requests), median latency and CPU per publish; a closing
// slice shorter than half a sliceLen and a slice the hypervisor stole
// from are dropped, unless every slice was stolen.
func TestSliceStats(t *testing.T) {
	t0 := time.Unix(0, 0)
	w := window{pubs: make([]pubSample, 40)}
	for i := range w.pubs {
		w.pubs[i].lat = int64(i+1) * 1000
	}
	quiet, stolen := hostTicks{total: 100, steal: 1}, hostTicks{total: 100, steal: 30}
	w.slices = []slice{
		{from: t0, to: t0.Add(sliceLen), cpu1: 10 * time.Millisecond, lo: 0, hi: 10, ref: lats{400}, t1: quiet},
		{from: t0.Add(sliceLen), to: t0.Add(2 * sliceLen), cpu0: 10 * time.Millisecond, cpu1: 50 * time.Millisecond, lo: 10, hi: 30, refWall: sliceLen / 2, ref: lats{500, 600}, t1: quiet},
		{from: t0.Add(2 * sliceLen), to: t0.Add(3 * sliceLen), lo: 30, hi: 40, ref: lats{9000}, t1: stolen},
		{from: t0.Add(3 * sliceLen), to: t0.Add(3*sliceLen + sliceLen/4), lo: 40, hi: 40},
		{from: t0.Add(4 * sliceLen), to: t0.Add(4*sliceLen + sliceLen/4), lo: 39, hi: 40},
	}
	rate, p50, cpu, ref, dropped := w.sliceStats()
	if len(rate) != 2 || len(p50) != 2 || len(cpu) != 2 || len(ref) != 3 || dropped != 1 {
		t.Fatalf("kept %d slices and %d reference costs, dropped %d as stolen; want 2, 3, 1", len(rate), len(ref), dropped)
	}
	per := sliceLen.Seconds()
	if rate[0] != 10/per || rate[1] != 40/per || p50[0] != 5000 || p50[1] != 20000 || cpu[0] != 1000 || cpu[1] != 2000 {
		t.Errorf("rate %v p50 %v cpu %v", rate, p50, cpu)
	}
	w.slices = w.slices[2:3]
	if rate, _, _, _, dropped := w.sliceStats(); len(rate) != 1 || dropped != 1 {
		t.Errorf("every slice stolen: kept %d, counted %d; want the one kept and counted", len(rate), dropped)
	}
	if s := slowdown(3 * refNominal / 2); s != 1.5 {
		t.Errorf("slowdown(1.5 nominal) = %v", s)
	}
	if now := readHostTicks(); now.total == 0 || now.steal > now.total {
		t.Errorf("/proc/stat read as %+v", now)
	}
}

// TestStealAllowance: a checkout's runs together wait out stolen minutes
// for stealAllowance and no longer.
func TestStealAllowance(t *testing.T) {
	root := t.TempDir()
	if err := os.Mkdir(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		t.Fatal(err)
	}
	step := stealAllowance / 4
	for i := 0; i < 4; i++ {
		if !spendStealAllowance(root, step) {
			t.Fatalf("spend %d of 4 refused", i+1)
		}
	}
	if spendStealAllowance(root, step) {
		t.Error("a fifth quarter of the allowance was granted")
	}
	if stolen(hostTicks{total: 1000, steal: 10}, hostTicks{total: 1100, steal: 15}) || !stolen(hostTicks{total: 1000, steal: 10}, hostTicks{total: 1100, steal: 40}) {
		t.Errorf("stolen() does not cut at %v of the ticks", stolenShare)
	}
}

// TestProbeIsSelective: the probe wants about probeShare of the stream,
// the documents it wants are marked, and the choice repeats.
func TestProbeIsSelective(t *testing.T) {
	for _, w := range []string{wFanout, wFed} {
		in, err := makeInputs(w, fullScale, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		probe := in.pop[len(in.pop)-1]
		if !probe.probe {
			t.Fatalf("%s: the probe is not the last of the population", w)
		}
		wanted := 0
		for _, d := range in.docs {
			if d.probe != pattern.Matches(d.tree, probe.pat) {
				t.Fatalf("%s: document marked %v, oracle says %v", w, d.probe, !d.probe)
			}
			if d.probe {
				wanted++
			}
		}
		stream := len(in.docs)
		if w == wFed {
			stream /= 2 // the probe's schema is every other document
		}
		if share := float64(wanted) / float64(stream); share < probeShare/2 || share > 2*probeShare {
			t.Errorf("%s: probe %s wants %.3f of the stream, want about %.2f", w, probe.expr, share, probeShare)
		}
		again, err := makeInputs(w, fullScale, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := again.pop[len(again.pop)-1].expr; got != probe.expr {
			t.Errorf("%s: probe %s on one call, %s on the next", w, probe.expr, got)
		}
	}
}

// TestSmoke runs all four workloads end to end at smoke scale, both
// passes, and checks the report file.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	for _, trace := range []string{"0", "1"} {
		out := filepath.Join(t.TempDir(), "smoke.json")
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-smoke", "-trace", trace, "-out", out}, &stdout, &stderr); code != 0 {
			t.Fatalf("smoke -trace %s exited %d\n%s\n%s", trace, code, stdout.String(), stderr.String())
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var rep report
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rep); err != nil {
			t.Fatalf("report does not fit the schema: %v", err)
		}
		if rep.Claim != nil || rep.Stamp.Harness != harnessVersion || rep.Stamp.NProc < 1 || rep.Stamp.Go == "" || !rep.Stamp.Smoke {
			t.Errorf("stamp = %+v, claim = %v", rep.Stamp, rep.Claim)
		}
		if len(rep.Runs) != len(workloadNames) {
			t.Fatalf("%d runs", len(rep.Runs))
		}
		for i, r := range rep.Runs {
			if r.Workload != workloadNames[i] || r.Attempted < 1 || r.Failed != 0 || r.ViolationCount != 0 {
				t.Errorf("run %d: %s attempted %d failed %d violations %v", i, r.Workload, r.Attempted, r.Failed, r.Violations)
			}
			if len(r.Daemons) == 0 || r.Daemons[0].GOMAXPROCS < 1 || len(r.Daemons[0].Flags) == 0 {
				t.Errorf("%s: daemon stamps %+v", r.Workload, r.Daemons)
			}
			defs := newMetricSet(r.Workload).defs
			for name, m := range r.Metrics {
				if d, ok := defs[name]; !ok || !d.on(r.Workload) || d.Unit != m.Unit {
					t.Errorf("%s reports %s (%s), which the tables do not allow", r.Workload, name, m.Unit)
				}
			}
			for _, name := range []string{"setup_s", "publish_per_s", "publish_p50_us", "daemon_cpu_us_per_pub", "daemon_rss_mb", "route_recall", "route_precision"} {
				if m, ok := r.Metrics[name]; !ok || m.Value <= 0 {
					t.Errorf("%s: %s = %+v", r.Workload, name, m)
				}
			}
			if trace == "1" {
				for _, name := range []string{"treesimd.null_rtt_us", "xmltree.parse_us", "matching.match_us", "core.simrow_us"} {
					if m, ok := r.Metrics[name]; !ok || m.Value <= 0 {
						t.Errorf("%s: %s = %+v", r.Workload, name, m)
					}
				}
				_, persisted := r.Metrics["persist.append_us"]
				_, overlaid := r.Metrics["overlay.forwards_per_pub"]
				if persisted != (r.Workload == wAcked) || overlaid != (r.Workload == wFed) {
					t.Errorf("%s: persist.* present %v, overlay.* present %v", r.Workload, persisted, overlaid)
				}
			}
		}
		if r := rep.Runs[3]; r.Metrics["route_recall"].Value != 1 || r.Metrics["route_precision"].Value != 1 {
			t.Errorf("fed-line3 exact routing: recall %v precision %v", r.Metrics["route_recall"].Value, r.Metrics["route_precision"].Value)
		}
	}
}
