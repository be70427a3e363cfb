package treesim

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Section 5), plus ablations for the design choices called
// out in DESIGN.md and micro-benchmarks for the hot paths.
//
// Accuracy figures are attached to the benchmark output via
// b.ReportMetric (Erel% / Esqr), so `go test -bench` regenerates both
// the performance and the quality side of each experiment at benchmark
// scale. The workload and the error measures are in workload_test.go.

import (
	"sync"
	"testing"

	"treesim/internal/core"
	"treesim/internal/dtd"
	"treesim/internal/matchset"
	"treesim/internal/metrics"
	"treesim/internal/pattern"
	"treesim/internal/selectivity"
	"treesim/internal/synopsis"
	"treesim/internal/xmlgen"
	"treesim/internal/xmltree"
)

// Shared fixtures, built once: a bench-scale NITF-like workload and an
// xCBL-like one.
var (
	benchOnce sync.Once
	benchNITF *workload
	benchXCBL *workload
)

func benchWorkloads() (*workload, *workload) {
	benchOnce.Do(func() {
		cfg := workloadConfig{Docs: 500, Positive: 100, Negative: 100, Seed: 7}
		benchNITF = buildWorkload(dtd.NITFLike(), cfg)
		benchXCBL = buildWorkload(dtd.XCBLLike(), cfg)
	})
	return benchNITF, benchXCBL
}

func buildBenchSynopsis(w *workload, kind matchset.Kind, size int) *synopsis.Synopsis {
	s := synopsis.New(synopsis.Options{Kind: kind, HashCapacity: size, SetCapacity: size, Seed: 5})
	for _, d := range w.Docs {
		s.Insert(d)
	}
	return s
}

// BenchmarkTable1_WorkloadBuild regenerates the experimental setup of
// Table 1: corpus generation, query generation and SP/SN classification.
func BenchmarkTable1_WorkloadBuild(b *testing.B) {
	cfg := workloadConfig{Docs: 150, Positive: 30, Negative: 30, Seed: 11}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := buildWorkload(dtd.NITFLike(), cfg)
		if len(w.Positive) != 30 {
			b.Fatal("bad workload")
		}
	}
}

// BenchmarkFigure4_SelectivityPositive measures positive-query
// selectivity estimation and reports the Figure 4 error per
// representation.
func BenchmarkFigure4_SelectivityPositive(b *testing.B) {
	w, _ := benchWorkloads()
	for _, kind := range kinds {
		b.Run(kind.String(), func(b *testing.B) {
			s := buildBenchSynopsis(w, kind, 500)
			est := selectivity.New(s)
			erel := erelPositive(est, w) // also warms caches
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := w.Positive[i%len(w.Positive)]
				_ = est.P(p)
			}
			b.ReportMetric(100*erel, "Erel%")
		})
	}
}

// BenchmarkFigure5_SelectivityNegative measures negative-query
// estimation and reports the Figure 5 RMSE.
func BenchmarkFigure5_SelectivityNegative(b *testing.B) {
	w, _ := benchWorkloads()
	for _, kind := range kinds {
		b.Run(kind.String(), func(b *testing.B) {
			s := buildBenchSynopsis(w, kind, 500)
			est := selectivity.New(s)
			esqr := esqrNegative(est, w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := w.Negative[i%len(w.Negative)]
				_ = est.P(p)
			}
			b.ReportMetric(esqr, "Esqr")
		})
	}
}

// BenchmarkFigure6_ErrorVsSynopsisSize reports error per unit of
// synopsis size: Sets vs Hashes at the same nominal sample bound, with
// |HS| attached (Figure 6's fair-budget comparison).
func BenchmarkFigure6_ErrorVsSynopsisSize(b *testing.B) {
	_, w := benchWorkloads() // the paper plots Figure 6 for xCBL
	for _, kind := range []matchset.Kind{matchset.KindSets, matchset.KindHashes} {
		b.Run(kind.String(), func(b *testing.B) {
			s := buildBenchSynopsis(w, kind, 250)
			est := selectivity.New(s)
			erel := erelPositive(est, w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = est.P(w.Positive[i%len(w.Positive)])
			}
			b.ReportMetric(100*erel, "Erel%")
			b.ReportMetric(float64(s.Size()), "|HS|")
		})
	}
}

func benchMetric(b *testing.B, m metrics.Metric) {
	w, _ := benchWorkloads()
	pairs := w.randomPairs(200, 13)
	for _, kind := range kinds {
		b.Run(kind.String(), func(b *testing.B) {
			s := buildBenchSynopsis(w, kind, 500)
			est := selectivity.New(s)
			erel := metricErel(m, est, w, pairs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pr := pairs[i%len(pairs)]
				_ = metrics.Similarity(est, m, w.Positive[pr.I], w.Positive[pr.J])
			}
			b.ReportMetric(100*erel, "Erel%")
		})
	}
}

// BenchmarkFigure7_MetricM1 measures similarity estimation under
// M1 = P(p|q) and reports the Figure 7 error.
func BenchmarkFigure7_MetricM1(b *testing.B) { benchMetric(b, metrics.M1) }

// BenchmarkFigure8_MetricM2 measures similarity estimation under
// M2 = (P(p|q)+P(q|p))/2 and reports the Figure 8 error.
func BenchmarkFigure8_MetricM2(b *testing.B) { benchMetric(b, metrics.M2) }

// BenchmarkFigure9_MetricM3 measures similarity estimation under
// M3 = P(p∧q)/P(p∨q) and reports the Figure 9 error.
func BenchmarkFigure9_MetricM3(b *testing.B) { benchMetric(b, metrics.M3) }

// BenchmarkFigure10_Compression measures the compression pipeline at
// α = 0.5 and reports the post-compression error (Figure 10).
func BenchmarkFigure10_Compression(b *testing.B) {
	w, _ := benchWorkloads()
	var erel float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := buildBenchSynopsis(w, matchset.KindHashes, 500)
		s.Compress(synopsis.CompressOptions{TargetRatio: 0.5})
		if i == 0 {
			erel = erelPositive(selectivity.New(s), w)
		}
	}
	b.ReportMetric(100*erel, "Erel%")
}

// --- Ablations -----------------------------------------------------

// BenchmarkAblation_RootCardDenominator compares Algorithm 2's estimated
// |S(rs)| denominator with the exact stream length (DESIGN.md ablation).
func BenchmarkAblation_RootCardDenominator(b *testing.B) {
	w, _ := benchWorkloads()
	for _, exact := range []bool{false, true} {
		name := "estimated"
		if exact {
			name = "exact"
		}
		b.Run(name, func(b *testing.B) {
			s := synopsis.New(synopsis.Options{
				Kind: matchset.KindHashes, HashCapacity: 200, Seed: 5, ExactRootCard: exact,
			})
			for _, d := range w.Docs {
				s.Insert(d)
			}
			est := selectivity.New(s)
			erel := erelPositive(est, w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = est.P(w.Positive[i%len(w.Positive)])
			}
			b.ReportMetric(100*erel, "Erel%")
		})
	}
}

// BenchmarkAblation_FoldThreshold compares compression quality under
// conservative vs aggressive lossy-fold thresholds at α = 0.5.
func BenchmarkAblation_FoldThreshold(b *testing.B) {
	w, _ := benchWorkloads()
	for _, tc := range []struct {
		name string
		th   float64
	}{{"fold@0.5", 0.5}, {"fold@0.9", 0.9}} {
		b.Run(tc.name, func(b *testing.B) {
			var erel float64
			for i := 0; i < b.N; i++ {
				s := buildBenchSynopsis(w, matchset.KindHashes, 500)
				s.Compress(synopsis.CompressOptions{TargetRatio: 0.5, FoldThreshold: tc.th})
				if i == 0 {
					erel = erelPositive(selectivity.New(s), w)
				}
			}
			b.ReportMetric(100*erel, "Erel%")
		})
	}
}

// BenchmarkAblation_SkeletonSemanticsGap quantifies the residual error
// floor of the synopsis's skeleton semantics: unbounded Sets (an exact
// estimator under skeleton semantics) vs document-level ground truth.
func BenchmarkAblation_SkeletonSemanticsGap(b *testing.B) {
	w, _ := benchWorkloads()
	s := buildBenchSynopsis(w, matchset.KindSets, 1<<20)
	est := selectivity.New(s)
	erel := erelPositive(est, w)
	for i := 0; i < b.N; i++ {
		_ = est.P(w.Positive[i%len(w.Positive)])
	}
	b.ReportMetric(100*erel, "Erel%-floor")
}

// --- Micro-benchmarks on the hot paths ------------------------------

// BenchmarkSynopsisInsert measures streaming maintenance throughput.
func BenchmarkSynopsisInsert(b *testing.B) {
	w, _ := benchWorkloads()
	for _, kind := range kinds {
		b.Run(kind.String(), func(b *testing.B) {
			s := synopsis.New(synopsis.Options{Kind: kind, HashCapacity: 500, SetCapacity: 500, Seed: 3})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Insert(w.Docs[i%len(w.Docs)])
			}
		})
	}
}

// BenchmarkSkeleton measures skeleton-tree construction: the reference
// coalescing over trees (xmltree.Skeleton) and the label-path trie over
// packed documents in one reused scratch, as synopsis.InsertPacked
// builds it.
func BenchmarkSkeleton(b *testing.B) {
	w, _ := benchWorkloads()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = xmltree.Skeleton(w.Docs[i%len(w.Docs)])
		}
	})
	b.Run("scratch", func(b *testing.B) {
		var s xmltree.SkeletonScratch
		packed := make([][]byte, len(w.Docs))
		for i, d := range w.Docs {
			packed[i] = xmltree.Pack(d)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = s.BuildPacked(packed[i%len(packed)])
		}
	})
}

// BenchmarkExactMatch measures the formal matcher used for ground
// truth.
func BenchmarkExactMatch(b *testing.B) {
	w, _ := benchWorkloads()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = pattern.Matches(w.Docs[i%len(w.Docs)], w.Positive[i%len(w.Positive)])
	}
}

// BenchmarkDocumentGeneration measures the corpus generator.
func BenchmarkDocumentGeneration(b *testing.B) {
	d := dtd.NITFLike()
	opts := xmlgen.Calibrate(d, 100, 3)
	g := xmlgen.New(d, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Generate()
	}
}

// BenchmarkSimilarityMatrix measures pairwise similarity computation
// over a subscription set (the clustering front-end): the naive
// per-pair merged-pattern evaluation vs. the factorized matrix
// (SEL(p∧q) = SEL(p) ∩ SEL(q), one evaluation per subscription).
func BenchmarkSimilarityMatrix(b *testing.B) {
	w, _ := benchWorkloads()
	subs := w.Positive[:20]
	b.Run("perPair", func(b *testing.B) {
		s := buildBenchSynopsis(w, matchset.KindHashes, 200)
		est := selectivity.New(s)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < len(subs); j++ {
				for k := j + 1; k < len(subs); k++ {
					_ = metrics.Similarity(est, metrics.M3, subs[j], subs[k])
				}
			}
		}
	})
	b.Run("factorized", func(b *testing.B) {
		est := core.NewEstimator(core.Config{Representation: matchset.KindHashes, HashCapacity: 200, Seed: 5})
		for _, d := range w.Docs {
			est.ObserveTree(d)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = est.SimilarityMatrix(metrics.M3, subs)
		}
	})
}

// BenchmarkParallelClients measures query throughput under concurrent
// load: many client goroutines issuing selectivity queries against one
// estimator. Before the RWMutex read path every query serialized on a
// single mutex; now they scale with GOMAXPROCS. The serial sub-benchmark
// is the single-client baseline for computing the speedup.
func BenchmarkParallelClients(b *testing.B) {
	w, _ := benchWorkloads()
	est := core.NewEstimator(core.Config{Representation: matchset.KindHashes, HashCapacity: 200, Seed: 5})
	for _, d := range w.Docs {
		est.ObserveTree(d)
	}
	_ = est.Selectivity(w.Positive[0]) // materialize the Full cache once
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = est.Selectivity(w.Positive[i%len(w.Positive)])
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				_ = est.Selectivity(w.Positive[i%len(w.Positive)])
				i++
			}
		})
	})
}
