package broker

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"treesim/internal/core"
	"treesim/internal/dtd"
	"treesim/internal/pattern"
	"treesim/internal/querygen"
	"treesim/internal/xmlgen"
	"treesim/internal/xmltree"
)

// benchWorkload builds a paper-style workload: NITF-like documents and
// generated tree-pattern subscriptions.
func benchWorkload(nDocs, nSubs int) ([]*xmltree.Tree, []*pattern.Pattern) {
	d := dtd.NITFLike()
	docs := xmlgen.New(d, xmlgen.Calibrate(d, 100, 41)).GenerateN(nDocs)
	subs := querygen.New(d, querygen.Defaults(43)).GenerateDistinct(nSubs)
	return docs, subs
}

// benchEngine returns an engine with nSubs live subscriptions and the
// history stream already ingested.
func benchEngine(b *testing.B, docs []*xmltree.Tree, subs []*pattern.Pattern) *Engine {
	return benchEngineSampling(b, docs, subs, 0)
}

func benchEngineSampling(b *testing.B, docs []*xmltree.Tree, subs []*pattern.Pattern, precisionSample int) *Engine {
	b.Helper()
	e := New(Config{
		Estimator:       core.Config{Representation: core.Hashes, HashCapacity: 256, Seed: 5},
		PrecisionSample: precisionSample,
	})
	b.Cleanup(func() { e.Close() })
	e.est.ObserveTrees(docs)
	for _, p := range subs {
		if _, err := e.SubscribePattern(p, ""); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

// liveIDs lists the engine's subscription ids.
func liveIDs(e *Engine) []uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ids := make([]uint64, 0, len(e.byID))
	for _, s := range e.registryLocked() {
		ids = append(ids, s.id)
	}
	return ids
}

// drainAll empties every queue so bounded queues do not skew the
// steady-state measurement with eviction work.
func drainAll(e *Engine, ids []uint64) {
	for _, id := range ids {
		e.Drain(id, 0, 0)
	}
}

// BenchmarkBrokerPublish measures the live routing path: one published
// document against 256 subscriptions maintained as semantic
// communities (representative match → intra-community fan-out).
func BenchmarkBrokerPublish(b *testing.B) {
	docs, subs := benchWorkload(200, 256)
	e := benchEngine(b, docs, subs)
	ids := liveIDs(e)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Publish(docs[i%len(docs)]); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			b.StopTimer()
			e.Flush()
			drainAll(e, ids)
			b.StartTimer()
		}
	}
	b.StopTimer()
	st := e.Stats()
	b.ReportMetric(float64(st.FilterEvals)/float64(b.N), "filterevals/op")
	b.ReportMetric(float64(st.Deliveries)/float64(b.N), "deliveries/op")
}

// BenchmarkBrokerPublishAcked is BenchmarkBrokerPublish with every 10th
// subscription at-least-once, as the daemon benchmark's acked-durable
// population is: those are drained and acked, the rest drained, every
// 1024 publishes. No journal is installed, so the difference from
// BenchmarkBrokerPublish is what the acked contract's delivery state costs
// a publish: cursors, pins and the OpDeliver record's assembly.
func BenchmarkBrokerPublishAcked(b *testing.B) {
	docs, subs := benchWorkload(200, 256)
	e := New(Config{Estimator: core.Config{Representation: core.Hashes, HashCapacity: 256, Seed: 5}})
	b.Cleanup(func() { e.Close() })
	e.est.ObserveTrees(docs)
	for i, p := range subs {
		opt := SubscribeOptions{}
		if i%10 == 0 {
			opt.Mode = AtLeastOnce
		}
		if _, err := e.SubscribePatternOpts(p, "", opt); err != nil {
			b.Fatal(err)
		}
	}
	ids := liveIDs(e)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Publish(docs[i%len(docs)]); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			b.StopTimer()
			e.Flush()
			for _, id := range ids {
				if r, err := e.DrainBatch(id, 0, 0); err != nil {
					b.Fatal(err)
				} else if r.Cursor > 0 {
					if _, err := e.Ack(id, r.Cursor); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StartTimer()
		}
	}
	b.StopTimer()
	st := e.Stats()
	b.ReportMetric(float64(st.FilterEvals)/float64(b.N), "filterevals/op")
	b.ReportMetric(float64(st.Deliveries)/float64(b.N), "deliveries/op")
}

// BenchmarkBrokerPublishXML is a publish as the daemon sees it: XML
// bytes in, parsed straight to packed bytes, 1000 subscriptions. Parse,
// load, match and fan-out are one number here, so the engine-level
// benchmark no longer leaves out what used to be the largest term of a
// publish.
func BenchmarkBrokerPublishXML(b *testing.B) {
	docs, subs := benchWorkload(200, 1000)
	e := benchEngine(b, docs, subs)
	ids := liveIDs(e)
	bodies := make([][]byte, len(docs))
	for i, d := range docs {
		s, err := xmltree.XMLString(d, false)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = []byte(s)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, err := xmltree.ParsePacked(bytes.NewReader(bodies[i%len(bodies)]), e.cfg.Estimator.ParseOptions)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.PublishPacked(doc); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			b.StopTimer()
			e.Flush()
			drainAll(e, ids)
			b.StartTimer()
		}
	}
}

// BenchmarkBrokerPublishPrecisionSample prices the precision sample:
// 1000 subscriptions in ~380 communities, every 16th delivery checked
// against the receiving member's own pattern (the default) versus no
// sampling. The forests hold representatives only either way, so the
// difference in ns/op is what samples/op verdicts cost: one document
// load per publish that samples, plus one pattern evaluation each.
func BenchmarkBrokerPublishPrecisionSample(b *testing.B) {
	docs, subs := benchWorkload(200, 1000)
	for _, tc := range []struct {
		name   string
		sample int
	}{{"sample=16", 16}, {"sample=off", -1}} {
		b.Run(tc.name, func(b *testing.B) {
			e := benchEngineSampling(b, docs, subs, tc.sample)
			ids := make([]uint64, 0, e.Live())
			for _, s := range e.IntrospectSubscriptions() {
				ids = append(ids, s.ID)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Publish(docs[i%len(docs)]); err != nil {
					b.Fatal(err)
				}
				if i%128 == 127 {
					b.StopTimer()
					e.Flush()
					drainAll(e, ids)
					b.StartTimer()
				}
			}
			b.StopTimer()
			st := e.Stats()
			b.ReportMetric(float64(st.PrecisionSamples)/float64(b.N), "samples/op")
			b.ReportMetric(float64(st.Communities), "communities")
		})
	}
}

// BenchmarkBrokerPublishParallel measures multi-publisher throughput:
// GOMAXPROCS goroutines publish concurrently, sharing the forest under
// the routing read lock. This is the scaling benchmark — compare ns/op
// across -cpu 1,4: publishers scale across cores, one publish does not
// try to.
func BenchmarkBrokerPublishParallel(b *testing.B) {
	docs, subs := benchWorkload(200, 256)
	e := benchEngine(b, docs, subs)
	b.ReportAllocs()
	b.ResetTimer()
	var i atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := int(i.Add(1))
			if _, err := e.Publish(docs[n%len(docs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	st := e.Stats()
	b.ReportMetric(float64(st.FilterEvals)/float64(b.N), "filterevals/op")
	b.ReportMetric(float64(st.Deliveries)/float64(b.N), "deliveries/op")
}

// BenchmarkBrokerSubscribeChurn measures steady-state churn at 256 live
// subscriptions: each op subscribes a fresh pattern (one SEL evaluation
// and one community lookup) and unsubscribes the oldest.
func BenchmarkBrokerSubscribeChurn(b *testing.B) {
	docs, subs := benchWorkload(200, 256)
	churn := querygen.New(dtd.NITFLike(), querygen.Defaults(97)).GenerateDistinct(512)
	e := benchEngine(b, docs, subs)
	ids := liveIDs(e)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := e.SubscribePattern(churn[i%len(churn)], "")
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
		e.Unsubscribe(ids[0])
		ids = ids[1:]
	}
	b.StopTimer()
	b.ReportMetric(float64(e.Stats().Rebuilds)/float64(b.N), "rebuilds/op")
}

// BenchmarkBrokerSubscribePopulation is a daemon filling up at its
// defaults (Hashes of 1000, threshold 0.99): 500 documents warm the
// synopsis, then 1000 subscriptions arrive one at a time. One op is the
// whole population — an evaluation and a lookup each — on a fresh
// engine; set-up is untimed. threshold=2 is the exact mode (no two
// subscriptions share a community).
func BenchmarkBrokerSubscribePopulation(b *testing.B) {
	docs, subs := benchWorkload(500, 1000)
	for _, threshold := range []float64{0.99, 2} {
		b.Run(fmt.Sprintf("threshold=%v", threshold), func(b *testing.B) {
			var st Stats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := New(Config{
					Estimator: core.Config{Representation: core.Hashes, HashCapacity: 1000, Seed: 1},
					Threshold: threshold,
				})
				e.est.ObserveTrees(docs)
				b.StartTimer()
				for _, p := range subs {
					if _, err := e.SubscribePattern(p, ""); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				st = e.Stats()
				e.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed())/1e6/float64(b.N), "ms/op")
			b.ReportMetric(float64(st.Rebuilds), "rebuilds")
			b.ReportMetric(float64(st.Communities), "communities")
		})
	}
}

// BenchmarkBrokerViewColdPass prices what a re-bucket pays at the
// daemon's defaults (Hashes of 1000) once the stream is long: 1000
// patterns evaluated cold on a fresh view of a synopsis that has seen
// 80,000 documents (the workload's 500, cycled). Each op takes the view
// after one more document is observed, untimed, so it is never the
// last op's. view-MB is what one such view keeps alive once its pass
// is done — the frozen synopsis, its Full sets and the 1000 SEL values
// — measured once, before the timed ops.
func BenchmarkBrokerViewColdPass(b *testing.B) {
	docs, subs := benchWorkload(500, 1000)
	est := core.NewEstimator(core.Config{Representation: core.Hashes, HashCapacity: 1000, Seed: 1})
	for est.DocsObserved() < 80000 {
		est.ObserveTrees(docs)
	}
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	v := est.View()
	for _, p := range subs {
		v.Eval(p)
	}
	retained := int64(heap()) - int64(before)
	runtime.KeepAlive(v)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		est.ObserveTrees(docs[i%len(docs) : i%len(docs)+1])
		b.StartTimer()
		v := est.View()
		for _, p := range subs {
			v.Eval(p)
		}
	}
	b.ReportMetric(float64(b.Elapsed())/1e6/float64(b.N), "ms/op")
	b.ReportMetric(float64(retained)/(1<<20), "view-MB")
}

// BenchmarkBrokerSubscribeBesideStream is the churn case the benchmark
// above misses: 1000 live subscriptions and a synopsis that moves — one
// document published and ingested — between any two subscribes, as it
// does in a serving broker. Each op is publish + flush + subscribe +
// unsubscribe-oldest; subscribe-ns/op is the subscribe alone and
// evals/op the SEL evaluations it ran on the similarity view (1 on a
// standing view; the registry's worth on the first after a refresh,
// which re-buckets it).
func BenchmarkBrokerSubscribeBesideStream(b *testing.B) {
	docs, subs := benchWorkload(200, 1000)
	churn := querygen.New(dtd.NITFLike(), querygen.Defaults(97)).GenerateDistinct(512)
	e := benchEngine(b, docs, subs)
	ids := liveIDs(e)

	var subscribeNS, evals int64
	view := currentView(e)
	seen := view.Evals()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Publish(docs[i%len(docs)]); err != nil {
			b.Fatal(err)
		}
		e.Flush()
		start := time.Now()
		id, err := e.SubscribePattern(churn[i%len(churn)], "")
		subscribeNS += time.Since(start).Nanoseconds()
		if err != nil {
			b.Fatal(err)
		}
		if v := currentView(e); v != view {
			view, seen = v, 0
		}
		evals += view.Evals() - seen
		seen = view.Evals()
		ids = append(ids, id)
		e.Unsubscribe(ids[0])
		ids = ids[1:]
	}
	b.StopTimer()
	b.ReportMetric(float64(subscribeNS)/float64(b.N), "subscribe-ns/op")
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
}
