package matching

import (
	"fmt"
	"testing"

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

var benchSubTiers = []int{64, 1024, 8192}

// BenchmarkEngineMatch measures the single-pass forest engine: one
// document against the whole pattern set, registered by one batch
// install (ids in label order), reporting the matches decided per
// operation, the forest's size, and the answer the kernel's work should
// follow — NS and SAT bits raised per document node — rather than that
// size.
func BenchmarkEngineMatch(b *testing.B) {
	for _, n := range benchSubTiers {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			docs, subs := benchWorkload(64, n)
			benchMatch(b, docs, subs, nil)
		})
	}
}

// BenchmarkEngineMatchChurned is BenchmarkEngineMatch after 30 % of the
// patterns were removed and added again one by one since the install:
// the re-added nodes take whatever ids are free, so the gap to
// BenchmarkEngineMatch prices the label order lost between installs.
func BenchmarkEngineMatchChurned(b *testing.B) {
	for _, n := range benchSubTiers {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			docs, subs := benchWorkload(64, n)
			benchMatch(b, docs, subs, func(f *Forest, hs []int) {
				for i := 0; i < len(hs); i += 10 {
					for j := i; j < min(i+3, len(hs)); j++ {
						f.Remove(hs[j])
					}
				}
				for i := 0; i < len(hs); i += 10 {
					for j := i; j < min(i+3, len(hs)); j++ {
						hs[j] = f.Add(subs[j])
					}
				}
			})
		})
	}
}

// BenchmarkEngineMatchUnfired is the clock's view of
// TestMatchWorkIgnoresUnfiredPatterns: 1000 NITF patterns alone, then
// beside 8000 xCBL patterns NITF documents never fire. The second
// ns/op should stay within 1.3x of the first (cache footprint, the
// verdict loop); a dense kernel pays ~9x.
func BenchmarkEngineMatchUnfired(b *testing.B) {
	docs, fired, unfired := unfiredWorkload(b, 64, 1000, 8000)
	b.Run("nitf=1000", func(b *testing.B) { benchMatch(b, docs, fired, nil) })
	b.Run("nitf=1000+xcbl=8000", func(b *testing.B) {
		benchMatch(b, docs, append(fired[:len(fired):len(fired)], unfired...), nil)
	})
}

// benchMatch installs subs in one batch, lets churn (if any) edit the
// forest, and matches docs round-robin.
func benchMatch(b *testing.B, docs []*xmltree.Tree, subs []*pattern.Pattern, churn func(*Forest, []int)) {
	f := NewForest()
	hs := f.Replace(nil, subs)
	if churn != nil {
		churn(f, hs)
	}
	var matched uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms := f.Match(docs[i%len(docs)])
		matched += uint64(ms.Count())
		ms.Release()
	}
	b.StopTimer()
	b.ReportMetric(float64(matched)/float64(b.N), "matches/op")
	b.ReportMetric(float64(f.NodeCount()), "forest-nodes")
	fired, nodes := 0, 0
	for _, d := range docs[:8] {
		fb, n := f.FiredBits(d)
		fired, nodes = fired+fb, nodes+n
	}
	b.ReportMetric(float64(fired)/float64(nodes), "fired-bits/docnode")
}

// BenchmarkEngineMatchOracle is the pre-forest baseline at the same
// tiers: one pattern.Matches memo per (document, pattern) pair.
func BenchmarkEngineMatchOracle(b *testing.B) {
	for _, n := range benchSubTiers {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			docs, subs := benchWorkload(64, n)
			var matched uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := docs[i%len(docs)]
				for _, p := range subs {
					if pattern.Matches(d, p) {
						matched++
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(matched)/float64(b.N), "matches/op")
		})
	}
}

// BenchmarkForestChurn measures incremental Add/Remove on a populated
// forest (the broker's subscribe/unsubscribe path).
func BenchmarkForestChurn(b *testing.B) {
	_, subs := benchWorkload(1, 1024)
	f := NewForest()
	hs := make([]int, 0, len(subs))
	for _, p := range subs[:512] {
		hs = append(hs, f.Add(p))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs = append(hs, f.Add(subs[512+i%512]))
		f.Remove(hs[0])
		hs = hs[1:]
	}
}
