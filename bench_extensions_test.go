package treesim

// Benchmarks for the extension features beyond the paper's core:
// persistence, the DTD feasibility filter (footnote 2), sliding-window
// estimation, pattern containment/minimization and subscription
// aggregation.

import (
	"bytes"
	"testing"

	"treesim/internal/aggregate"
	"treesim/internal/dtd"
	"treesim/internal/matchset"
	"treesim/internal/pattern"
	"treesim/internal/selectivity"
	"treesim/internal/synopsis"
	"treesim/internal/xmltree"
)

// BenchmarkEncodeDecode measures synopsis persistence round trips.
func BenchmarkEncodeDecode(b *testing.B) {
	w, _ := benchWorkloads()
	s := buildBenchSynopsis(w, matchset.KindHashes, 200)
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(buf.Len()), "bytes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := s.Encode(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := synopsis.Decode(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_DTDFilter measures the negative-query improvement
// of the footnote-2 DTD feasibility filter under the error-prone
// Counters representation.
func BenchmarkAblation_DTDFilter(b *testing.B) {
	w, _ := benchWorkloads()
	d := dtd.NITFLike()
	for _, withDTD := range []bool{false, true} {
		name := "without"
		if withDTD {
			name = "with"
		}
		b.Run(name, func(b *testing.B) {
			s := buildBenchSynopsis(w, matchset.KindCounters, 0)
			est := selectivity.New(s)
			// Esqr over negatives with/without the filter.
			sum := 0.0
			for _, p := range w.Negative {
				v := est.P(p)
				if withDTD && !dtd.Feasible(d, p) {
					v = 0
				}
				sum += v * v
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := w.Negative[i%len(w.Negative)]
				if withDTD && !dtd.Feasible(d, p) {
					continue
				}
				_ = est.P(p)
			}
			b.ReportMetric(sum/float64(len(w.Negative)), "meanSqErr")
		})
	}
}

// BenchmarkWindowObserve measures sliding-window maintenance (insert +
// expiry) throughput.
func BenchmarkWindowObserve(b *testing.B) {
	w, _ := benchWorkloads()
	we := NewWindow(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		we.ObserveTree(w.Docs[i%len(w.Docs)])
	}
}

// BenchmarkContainment measures the homomorphism containment test over
// workload pattern pairs.
func BenchmarkContainment(b *testing.B) {
	w, _ := benchWorkloads()
	pairs := w.randomPairs(256, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := pairs[i%len(pairs)]
		_ = pattern.Contains(w.Positive[pr.I], w.Positive[pr.J])
	}
}

// BenchmarkMinimize measures pattern minimization.
func BenchmarkMinimize(b *testing.B) {
	w, _ := benchWorkloads()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Positive[i%len(w.Positive)].Minimize()
	}
}

// BenchmarkAggregate measures subscription aggregation (24 → 6) with
// estimated loss attached.
func BenchmarkAggregate(b *testing.B) {
	w, _ := benchWorkloads()
	s := buildBenchSynopsis(w, matchset.KindHashes, 200)
	est := selectivity.New(s)
	subs := w.Positive[:16]
	var loss float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := aggregate.Aggregate(subs, 6, est)
		loss = res.EstimatedLoss
	}
	b.ReportMetric(loss, "estLoss")
}

// BenchmarkFeasible measures the DTD feasibility check itself.
func BenchmarkFeasible(b *testing.B) {
	w, _ := benchWorkloads()
	d := dtd.NITFLike()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dtd.Feasible(d, w.Positive[i%len(w.Positive)])
	}
}

// BenchmarkXMLParse measures the XML scanner on serialized workload
// documents: with the label cache warm it allocates per document (two
// slabs and the Tree), not per node.
func BenchmarkXMLParse(b *testing.B) {
	w, _ := benchWorkloads()
	var blobs []string
	for _, doc := range w.Docs[:32] {
		s, err := xmltree.XMLString(doc, false)
		if err != nil {
			b.Fatal(err)
		}
		blobs = append(blobs, s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmltree.ParseString(blobs[i%len(blobs)], xmltree.ParseOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
