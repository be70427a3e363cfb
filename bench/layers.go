package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"treesim/internal/broker"
	"treesim/internal/cluster"
	"treesim/internal/core"
	"treesim/internal/matching"
	"treesim/internal/metrics"
	"treesim/internal/overlay"
	"treesim/internal/overlay/wire"
	"treesim/internal/pattern"
	"treesim/internal/persist"
	"treesim/internal/telemetry"
	"treesim/internal/xmltree"
)

// span is one timed call at a layer boundary, recorded from outside the
// layer. Spans of one request share an ID and name their parent. A span
// whose duration the daemon reported (ingest wait, match) starts where
// its parent does: where in the request it sat is not known from
// outside.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	ID      int    `json:"id"`
	StartNS int64  `json:"start_ns"` // since the traced pass began
	DurNS   int64  `json:"dur_ns"`
}

// tracer holds the traced pass's spans in memory and derives the
// per-layer numbers from them once the run is over.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	scrapes  lats
	hops     lats

	// the budget line's terms, microseconds
	nullRTTus, publishP50, ingestWaitP50 float64
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: time.Now()} }

func (tr *tracer) add(name, parent string, id int, start time.Time, dur time.Duration) {
	tr.spans = append(tr.spans, span{Name: name, Parent: parent, ID: id, StartNS: int64(start.Sub(tr.t0)), DurNS: int64(dur)})
}

// timeCall records a span around one call and returns its duration.
func (tr *tracer) timeCall(name string, id int, f func()) int64 {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	tr.add(name, "", id, t0, d)
	return int64(d)
}

// nullRTT is the floor under every request: GET /healthz on connection 1.
func (tr *tracer) nullRTT(e *env) {
	var l lats
	for i := 0; i < 300; i++ {
		l = append(l, tr.timeCall("treesimd.null_rtt", i, func() {
			e.c1.do("GET", e.pubBase()+"/healthz", "", nil)
		}))
	}
	tr.nullRTTus = usOf(l.sorted().quantile(0.5))
}

// scrape opens a traced slice: what looking at the daemons costs.
func (tr *tracer) scrape(e *env) {
	for i, d := range e.daemons {
		t0 := time.Now()
		if m, err := e.c1.metrics(d.base()); err == nil {
			tr.add("telemetry.scrape", "", i, t0, m.took)
			tr.scrapes = append(tr.scrapes, int64(m.took))
		}
	}
}

// publish records a traced publish and what the daemon said about it
// and, federated, follows one publish in a hundred through /trace/{id}
// on every broker: the gaps between consecutive hops' start instants are
// the per-hop cost.
func (tr *tracer) publish(e *env, t0 time.Time, lat time.Duration, r publishReply, id int) {
	tr.add("treesimd.publish", "", id, t0, lat)
	tr.add("broker.ingest_wait", "treesimd.publish", id, t0, time.Duration(r.IngestWaitNS))
	tr.add("broker.match", "treesimd.publish", id, t0, time.Duration(r.MatchNS))
	if r.Trace == "" || id%100 != 0 {
		return
	}
	var starts []int64
	for _, d := range e.daemons {
		var out struct {
			Spans []telemetry.Span `json:"spans"`
		}
		if e.c1.getJSON(d.base()+"/trace/"+r.Trace, &out) != nil {
			continue
		}
		for _, s := range out.Spans {
			starts = append(starts, s.StartUnixNS)
			tr.add("overlay.hop@"+s.Node, "treesimd.publish", id, time.Unix(0, s.StartUnixNS), time.Duration(s.QueueWaitNS+s.MatchNS))
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for i := 1; i < len(starts); i++ {
		tr.hops = append(tr.hops, starts[i]-starts[i-1])
	}
}

// allocsPer runs f n times and returns heap allocations per run. The
// window is over and the actors are stopped, so what it counts is f's.
func allocsPer(n int, f func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

func med(l lats) float64 { return usOf(l.sorted().quantile(0.5)) }

// shadowConfig is the broker configuration treesimd builds from the
// flags the workload passes, so that an in-process replay runs the same
// engine the daemon does.
func shadowConfig(workload string) broker.Config {
	cfg := broker.Config{
		Estimator:     core.Config{Representation: core.Hashes, HashCapacity: 1000, SetCapacity: 1000, Seed: 1},
		Metric:        metrics.M3,
		Threshold:     0.5,
		QueueCapacity: 256,
		IngestQueue:   1024,
		Rebuild:       broker.DirtyFraction{Fraction: 0.25, MinStale: 64},
	}
	switch workload {
	case wFed:
		cfg.Threshold = 2
	case wAcked:
		cfg.AckLease = 2 * time.Second
	}
	return cfg
}

// shadowEngine builds an engine like the daemon's: warmed with the W
// documents, then subscribed with the population placed on `daemon`.
func shadowEngine(e *env, daemon int) (*broker.Engine, error) {
	eng := broker.New(shadowConfig(e.cfg.workload))
	for _, d := range e.in.docs {
		if _, err := eng.Publish(d.tree); err != nil {
			eng.Close()
			return nil, err
		}
	}
	for eng.Estimator().DocsObserved() < len(e.in.docs) {
		time.Sleep(time.Millisecond)
	}
	for _, s := range e.subs {
		if s.daemon != daemon {
			continue
		}
		mode := broker.AtMostOnce
		if s.acked {
			mode = broker.AtLeastOnce
		}
		if _, err := eng.SubscribePatternOpts(s.pat, s.expr, broker.SubscribeOptions{Mode: mode}); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return eng, nil
}

// replays time each layer's public functions, in this process, on the
// inputs the daemons just served, against shadow instances configured
// like the daemons. Every call is a span.
func (tr *tracer) replays(e *env, ms *metricSet) error {
	docs := e.in.docs
	live := patternsOf(e.subs)
	// Patterns to subscribe afresh: churn-mix has unused reserve, the
	// others re-use the head of the population.
	fresh := live
	if len(e.in.reserve) > 0 {
		fresh = e.in.reserve[len(e.in.reserve)-min(100, len(e.in.reserve)):]
	}
	if len(fresh) > 100 {
		fresh = fresh[:100]
	}

	// xmltree: text → tree → flat arena.
	var parse, flatten lats
	var bytes, nodes float64
	for i, d := range docs {
		parse = append(parse, tr.timeCall("xmltree.parse", i, func() { xmltree.ParseString(d.xml, xmltree.ParseOptions{}) }))
		bytes += float64(len(d.xml))
		nodes += float64(d.tree.Size())
	}
	ms.set("xmltree.parse_us", med(parse), len(parse))
	ms.set("xmltree.parse_allocs", allocsPer(len(docs), func(i int) { xmltree.ParseString(docs[i].xml, xmltree.ParseOptions{}) }), len(docs))
	ms.set("xmltree.doc_bytes", bytes/float64(len(docs)), len(docs))
	ms.set("xmltree.doc_nodes", nodes/float64(len(docs)), len(docs))

	var pparse lats
	for i, s := range e.subs {
		pparse = append(pparse, tr.timeCall("pattern.parse", i, func() { pattern.Parse(s.expr) }))
	}
	ms.set("pattern.parse_us", med(pparse), len(pparse))

	// core: the synopsis after the warm stream, and the similarity work a
	// subscribe (one row) and a rebuild (the matrix) pay.
	cfg := shadowConfig(e.cfg.workload)
	est := core.NewEstimator(cfg.Estimator)
	var observe lats
	for i, d := range docs {
		observe = append(observe, tr.timeCall("core.observe", i, func() { est.ObserveTree(d.tree) }))
	}
	ms.set("core.observe_us", med(observe), len(observe))
	ms.set("synopsis.nodes", float64(est.Stats().Nodes), 0)
	var simrow lats
	for i, p := range fresh {
		simrow = append(simrow, tr.timeCall("core.simrow", i, func() { est.SimilarityRow(cfg.Metric, p, live) }))
	}
	ms.set("core.simrow_us", med(simrow), len(simrow))
	var sim [][]float64
	ms.set("core.simmatrix_ms", float64(tr.timeCall("core.simmatrix", 0, func() { sim = est.SimilarityMatrix(cfg.Metric, live) }))/1e6, 1)

	// cluster: incremental placement, timed near full population.
	comms := &cluster.Communities{Threshold: cfg.Threshold}
	var assign lats
	row := make([]float64, 0, len(live))
	for i := range live {
		row = row[:0]
		for j := 0; j < i; j++ {
			row = append(row, sim[j][i])
		}
		d := tr.timeCall("cluster.assign", i, func() { comms.Assign(row) })
		if i >= len(live)-min(100, len(live)) {
			assign = append(assign, d)
		}
	}
	ms.set("cluster.assign_us", med(assign), len(assign))

	// matching: one forest per broker that holds subscriptions, built from
	// the representatives the daemon reports.
	var forests []*matching.Forest
	for i, d := range e.daemons {
		var out struct {
			Communities []struct {
				Rep string `json:"rep"`
			} `json:"communities"`
		}
		if err := e.c1.getJSON(d.base()+"/introspect/communities", &out); err != nil {
			return fmt.Errorf("replay: %s: %w", e.daemons[i].name, err)
		}
		if len(out.Communities) == 0 {
			continue
		}
		f := matching.NewForest()
		for _, c := range out.Communities {
			p, err := pattern.Parse(c.Rep)
			if err != nil {
				return fmt.Errorf("replay: representative %q: %w", c.Rep, err)
			}
			f.Add(p)
		}
		forests = append(forests, f)
	}
	var match, addrm lats
	var fnodes float64
	var fl xmltree.Flat
	for _, f := range forests {
		fnodes += float64(f.NodeCount())
		for i, d := range docs {
			flatten = append(flatten, tr.timeCall("xmltree.flatten", i, func() { fl.Load(d.tree, f.Table()) }))
			match = append(match, tr.timeCall("matching.match", i, func() { f.MatchFlat(d.tree, &fl).Release() }))
		}
		for i, p := range fresh {
			addrm = append(addrm, tr.timeCall("matching.add_remove", i, func() { f.Remove(f.Add(p)) }))
		}
	}
	if len(forests) > 0 {
		f := forests[0]
		ms.set("xmltree.flatten_us", med(flatten), len(flatten))
		ms.set("matching.match_us", med(match), len(match))
		ms.set("matching.match_allocs", allocsPer(len(docs), func(i int) {
			fl.Load(docs[i].tree, f.Table())
			f.MatchFlat(docs[i].tree, &fl).Release()
		}), len(docs))
		ms.set("matching.add_remove_us", med(addrm), len(addrm))
		ms.set("matching.forest_nodes", fnodes, 0)
	}

	if e.cfg.workload != wFed {
		if err := tr.brokerReplay(e, ms, fresh); err != nil {
			return err
		}
	}
	if e.cfg.workload == wAcked {
		if err := tr.persistReplay(e, ms); err != nil {
			return err
		}
	}
	if e.cfg.workload == wFed {
		if err := tr.overlayReplay(e, ms); err != nil {
			return err
		}
	}
	if len(tr.scrapes) > 0 {
		ms.set("telemetry.scrape_ms", med(tr.scrapes)/1e3, len(tr.scrapes))
	}
	if len(tr.hops) > 0 {
		ms.set("overlay.hop_us", med(tr.hops), len(tr.hops))
	}
	ms.set("treesimd.null_rtt_us", tr.nullRTTus, 300)
	if p, ok := ms.m["xmltree.parse_us"]; ok && tr.publishP50 > 0 {
		ms.set("treesimd.http_residual_us", tr.publishP50-tr.nullRTTus-p.Value-ms.m["broker.match_us"].Value-tr.ingestWaitP50, 0)
	}
	return nil
}

// brokerReplay is the whole engine in process: the gap between its
// publish and the daemon's publish_p50_us is what the daemon adds.
func (tr *tracer) brokerReplay(e *env, ms *metricSet, fresh []*pattern.Pattern) error {
	eng, err := shadowEngine(e, 0)
	if err != nil {
		return fmt.Errorf("replay: shadow engine: %w", err)
	}
	defer eng.Close()
	var sub, pub lats
	for i, p := range fresh {
		var id uint64
		var err error
		sub = append(sub, tr.timeCall("broker.subscribe", i, func() {
			id, err = eng.SubscribePatternOpts(p, p.String(), broker.SubscribeOptions{})
		}))
		if err != nil {
			return fmt.Errorf("replay: shadow subscribe: %w", err)
		}
		eng.Unsubscribe(id)
	}
	ms.set("broker.subscribe_inproc_us", med(sub), len(sub))
	docs := e.in.docs
	for i, d := range docs {
		pub = append(pub, tr.timeCall("broker.publish", i, func() { eng.Publish(d.tree) }))
	}
	ms.set("broker.publish_inproc_us", med(pub), len(pub))
	ms.set("broker.publish_inproc_allocs", allocsPer(len(docs), func(i int) { eng.Publish(docs[i].tree) }), len(docs))
	return nil
}

// persistReplay appends records shaped like the window's OpDeliver — a
// document and the cursors it was assigned — to a store beside the
// daemon's data directory, on the same filesystem.
func (tr *tracer) persistReplay(e *env, ms *metricSet) error {
	dir, err := owned.tempDir(e.cfg.root, "shadow-wal-")
	if err != nil {
		return err
	}
	st, err := persist.Open(dir, persist.Options{})
	if err != nil {
		return fmt.Errorf("replay: shadow store: %w", err)
	}
	var app lats
	for i, d := range e.in.docs {
		rec := persist.Record{Op: persist.OpDeliver, Seq: uint64(i + 1), XML: d.xml,
			Subs: []uint64{1, 11, 21}, Cursors: []uint64{uint64(i), uint64(i), uint64(i)}, Comms: []int{0, 3, 7}}
		var aerr error
		app = append(app, tr.timeCall("persist.append", i, func() { _, aerr = st.Append(rec) }))
		if aerr != nil {
			st.Close()
			return fmt.Errorf("replay: shadow append: %w", aerr)
		}
	}
	ms.set("persist.append_us", med(app), len(app))
	return st.Close()
}

// overlayReplay is the three-broker line in process, over overlay.Connect:
// the same routing with no HTTP and no text between hops. It also times
// the wire codec on the window's documents.
func (tr *tracer) overlayReplay(e *env, ms *metricSet) error {
	var nodes []*overlay.Node
	defer func() {
		for _, n := range nodes {
			n.Close()
			n.Engine().Close()
		}
	}()
	for i := range e.daemons {
		eng, err := shadowEngine(e, i)
		if err != nil {
			return fmt.Errorf("replay: shadow engine %d: %w", i, err)
		}
		nodes = append(nodes, overlay.New(eng, overlay.Config{ID: string(rune('A' + i)), AdvertPolicy: broker.Staleness{MaxStale: 1}}))
	}
	for i := 1; i < len(nodes); i++ {
		if err := overlay.Connect(nodes[i-1], nodes[i]); err != nil {
			return fmt.Errorf("replay: connect: %w", err)
		}
	}
	for _, n := range nodes {
		// The engines were subscribed before their nodes existed.
		if err := n.Advertise(); err != nil {
			return fmt.Errorf("replay: advertise: %w", err)
		}
	}
	var pub, enc, dec lats
	var size float64
	for i, d := range e.in.docs {
		pub = append(pub, tr.timeCall("overlay.publish", i, func() { nodes[0].Publish(d.tree) }))
		p := wire.Publication{From: "A", Origin: "A", Seq: uint64(i + 1), TTL: 16, XML: d.xml, Trace: "0123456789abcdef"}
		var data []byte
		var err error
		enc = append(enc, tr.timeCall("wire.encode", i, func() { data, err = wire.EncodePublication(p) }))
		if err != nil {
			return fmt.Errorf("replay: encode: %w", err)
		}
		size += float64(len(data))
		dec = append(dec, tr.timeCall("wire.decode", i, func() { _, err = wire.DecodePublication(data) }))
		if err != nil {
			return fmt.Errorf("replay: decode: %w", err)
		}
	}
	ms.set("overlay.publish_inproc_us", med(pub), len(pub))
	ms.set("wire.encode_us", med(enc), len(enc))
	ms.set("wire.decode_us", med(dec), len(dec))
	ms.set("wire.pub_bytes", size/float64(len(e.in.docs)), len(e.in.docs))
	return nil
}

// budget prints where a publish's median went: the line ROADMAP item 1
// asks for, with what is left over as a share.
func (tr *tracer) budget(w io.Writer, ms *metricSet) {
	res, ok := ms.m["treesimd.http_residual_us"]
	if !ok {
		return
	}
	fmt.Fprintf(w, "budget %s: publish_p50_us %.1f = treesimd.null_rtt_us %.1f + xmltree.parse_us %.1f + broker.match_us %.1f + broker.ingest_wait %.1f + treesimd.http_residual_us %.1f (%.0f%% unattributed)\n",
		tr.workload, tr.publishP50, tr.nullRTTus, ms.m["xmltree.parse_us"].Value, ms.m["broker.match_us"].Value, tr.ingestWaitP50,
		res.Value, 100*res.Value/tr.publishP50)
}

// write puts the spans where -trace promises them.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"workload": tr.workload, "spans": tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
