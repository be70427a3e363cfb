package overlay

import (
	"fmt"
	"testing"

	"treesim/internal/broker"
	"treesim/internal/dtd"
	"treesim/internal/overlay/wire"
	"treesim/internal/pattern"
	"treesim/internal/persist"
	"treesim/internal/querygen"
	"treesim/internal/xmlgen"
	"treesim/internal/xmltree"
)

// BenchmarkOverlayForwardPlan measures the per-publication forwarding
// decision (forward: one match of the node's remote forest, then the
// matched origins' routes) for a document arriving from one origin on
// one link, over a hub node peered with 8 links carrying 4 origins
// each, 64 aggregate patterns per origin.
func BenchmarkOverlayForwardPlan(b *testing.B) {
	const (
		links             = 8
		originsPerLink    = 4
		patternsPerOrigin = 64
	)
	d := dtd.NITFLike()
	var docs []*xmltree.Flat
	for _, t := range xmlgen.New(d, xmlgen.Calibrate(d, 100, 41)).GenerateN(64) {
		var f xmltree.Flat
		f.Load(t, nil)
		docs = append(docs, &f)
	}
	pats := querygen.New(d, querygen.Defaults(43)).
		GenerateDistinct(links * originsPerLink * patternsPerOrigin)

	eng := broker.New(broker.Config{})
	defer eng.Close()
	hub := New(eng, Config{ID: "hub"})
	defer hub.Close()

	pi := 0
	for l := 0; l < links; l++ {
		peer := fmt.Sprintf("peer-%d", l)
		if err := hub.addPeerLink(peer, nopTransport{}); err != nil {
			b.Fatal(err)
		}
		var adverts []wire.Advert
		for o := 0; o < originsPerLink; o++ {
			exprs := make([]string, patternsPerOrigin)
			for i := range exprs {
				exprs[i] = pats[pi].String()
				pi++
			}
			adverts = append(adverts, wire.Advert{
				Origin:  fmt.Sprintf("origin-%d-%d", l, o),
				Version: 1,
				Communities: []wire.Community{
					{Patterns: exprs, Members: patternsPerOrigin},
				},
			})
		}
		if err := hub.HandleAdvert(wire.AdvertBatch{From: peer, Adverts: adverts}); err != nil {
			b.Fatal(err)
		}
	}

	var forwards int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forwards += len(hub.forward(docs[i%len(docs)], "origin-0-0", "peer-0", nil))
	}
	b.StopTimer()
	b.ReportMetric(float64(forwards)/float64(b.N), "links/op")
}

// nopTransport swallows sends: the benchmark isolates the planning and
// matching cost from I/O.
type nopTransport struct{}

func (nopTransport) SendAdvert(wire.AdvertBatch) error  { return nil }
func (nopTransport) SendPublish(wire.Publication) error { return nil }

// BenchmarkAdvertBuild measures buildAdvertLocked — which runs under
// the node lock every publish's forwarding decision takes — on an exact-mode
// broker holding the schema-filtered population fed-line3 gives C
// (NITF-like patterns that match no xCBL-like document): from-scratch
// is the first build after start or recovery, steady a build after one
// subscribe and one unsubscribe, per-community the build this package
// shipped before the broker-wide cover (cover_test.go), and kept the
// patterns advertised.
func BenchmarkAdvertBuild(b *testing.B) {
	nitf := dtd.NITFLike()
	foreign := genDocs(dtd.XCBLLike(), 60, 52)
	var pats []*pattern.Pattern
	for _, p := range genPatterns(nitf, 8192+8192/4, 51) {
		if !matchesAnyDoc(p, foreign) {
			pats = append(pats, p)
		}
	}
	for _, subs := range []int{1000, 8192} {
		if len(pats) < subs+64 {
			b.Fatalf("%d patterns stay within their schema, want %d", len(pats), subs+64)
		}
		eng := broker.New(broker.Config{Threshold: 2})
		defer eng.Close()
		for i, p := range pats[:subs] { // the replay path: no similarity rows
			if err := eng.Apply(persist.Record{Op: persist.OpSubscribe, ID: uint64(i + 1), Expr: p.String(), Group: i}); err != nil {
				b.Fatal(err)
			}
		}
		n := New(eng, Config{ID: "x", AdvertTTL: -1, AdvertPolicy: broker.Never{}})
		defer n.Close()
		build := func() {
			n.mu.Lock()
			n.localVer++
			n.local = n.buildAdvertLocked(n.localVer)
			n.mu.Unlock()
		}
		b.Run(fmt.Sprintf("subs=%d/from-scratch", subs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n.cover = advertCover{}
				build()
			}
			b.ReportMetric(float64(len(n.cover.kept)), "kept")
		})
		ids := make([]uint64, subs) // live subscriptions, oldest first
		for i := range ids {
			ids[i] = uint64(i + 1)
		}
		reserve := pats[subs:]
		b.Run(fmt.Sprintf("subs=%d/steady", subs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := reserve[i%len(reserve)].Clone() // a pattern the cover has not seen
				id, err := eng.SubscribePattern(p, p.String())
				if err != nil {
					b.Fatal(err)
				}
				eng.Unsubscribe(ids[0])
				ids = append(ids[1:], id)
				b.StartTimer()
				build()
			}
			b.ReportMetric(float64(len(n.cover.kept)), "kept")
		})
		b.Run(fmt.Sprintf("subs=%d/per-community", subs), func(b *testing.B) {
			b.ReportAllocs()
			patterns := 0
			for i := 0; i < b.N; i++ {
				patterns = 0
				for _, c := range perCommunityAdvert(n, 1).Communities {
					patterns += len(c.Patterns)
				}
			}
			b.ReportMetric(float64(patterns), "kept")
		})
	}
}

// middleNode is b of a line a–b–c in flight: an exact-mode engine (every
// subscription its own community) over 200 NITF subscriptions, warmed
// with 200 documents, which has learned c's advert of 200 more; both
// links swallow what is sent. Its publications are NITF documents as a
// arrives with them: packed, with fresh sequence numbers.
func middleNode(tb testing.TB) (*Node, func(i int) wire.Publication) {
	d := dtd.NITFLike()
	pats := querygen.New(d, querygen.Defaults(43)).GenerateDistinct(400)
	docs := xmlgen.New(d, xmlgen.Calibrate(d, 100, 41)).GenerateN(200)
	eng := broker.New(broker.Config{Threshold: 2})
	tb.Cleanup(func() { eng.Close() })
	b := New(eng, Config{ID: "b", AdvertTTL: -1})
	tb.Cleanup(b.Close)
	packed := make([][]byte, len(docs))
	for i, t := range docs {
		packed[i] = xmltree.Pack(t)
		if _, err := eng.Publish(t); err != nil {
			tb.Fatal(err)
		}
	}
	exprs := make([]string, 0, 200)
	for i, p := range pats {
		if i < 200 {
			if _, err := eng.SubscribePattern(p, p.String()); err != nil {
				tb.Fatal(err)
			}
		} else {
			exprs = append(exprs, p.String())
		}
	}
	for _, peer := range []string{"a", "c"} {
		if err := b.addPeerLink(peer, nopTransport{}); err != nil {
			tb.Fatal(err)
		}
	}
	advert := wire.Advert{Origin: "c", Version: 1, Communities: []wire.Community{{Patterns: exprs, Members: len(exprs)}}}
	if err := b.HandleAdvert(wire.AdvertBatch{From: "c", Adverts: []wire.Advert{advert}}); err != nil {
		tb.Fatal(err)
	}
	eng.Flush()
	seq := uint64(0)
	return b, func(i int) wire.Publication {
		seq++
		return wire.Publication{From: "a", Origin: "a", Seq: seq, TTL: 4, Doc: packed[i%len(packed)]}
	}
}

// BenchmarkNodeHandlePublish is one forwarded publication through a warm
// middle node: local injection, the remote-forest match and the forward
// to c, from the packed bytes alone.
func BenchmarkNodeHandlePublish(b *testing.B) {
	n, next := middleNode(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.HandlePublish(next(i)); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			b.StopTimer()
			n.Engine().Flush()
			b.StartTimer()
		}
	}
}
