// Package matching is the multi-subscription XML filtering layer: Forest
// matches each incoming document against a large set of tree-pattern
// subscriptions in one traversal. The broker's publish path and the
// overlay's per-link forwarding decisions run on it.
//
// Everything the broker routes and the overlay forwards funnels through
// one question — which of these thousands of tree patterns does this
// document satisfy? — so the substrate is a shared, allocation-free,
// single-pass multi-pattern engine, in the spirit of the
// XFilter/YFilter/XTrie line of filtering engines the paper cites:
//
//   - Label interning (package intern): tag strings map to dense uint32
//     symbols, so hot-path label comparisons and tag sets are integer
//     ops over package bitset instead of string maps. The table is
//     asymmetric by design: pattern labels are interned (the vocabulary
//     is bounded by the live subscription set), document labels are
//     resolved read-only and unknown ones collapse to a sentinel, so
//     document traffic (which may promote unbounded text values to
//     labels) never grows the table. Documents are flattened once per
//     match into a pooled BFS arena (xmltree.Flat) carrying the symbols.
//   - A hash-consed pattern forest: every registered pattern is merged
//     into one DAG with common-subtree sharing (structurally equal
//     subtrees get one node and one bit, reference-counted under
//     subscribe/unsubscribe churn). At bench scale, 1024 generated
//     patterns with 8679 nodes collapse to a 5148-node forest.
//   - Single-pass evaluation: one bottom-up post-order traversal of the
//     document decides all patterns simultaneously, propagating two
//     per-node satisfaction vectors (node-satisfied / holds-in-context)
//     from children to parents. The vectors are sparse frames (word
//     arrays that remember their non-zero words): a document node costs
//     the words that fired, not the forest's size. Constraints with
//     children, and verdicts, are examined only when their first child's
//     bit fires; leaf constraints are raised by id. Pooled frames: no
//     steady-state allocs.
//   - Ids in label order: every batch install (Forest.Replace: a broker
//     re-bucket, a Restore, a replayed rebuild record, an overlay advert
//     install) renumbers the live forest nodes densely in (kind, label)
//     order, so the bits one document label fires share frame words. A
//     single subscribe or unsubscribe between installs takes or frees
//     ids where it finds them, and the next install restores the order;
//     pattern handles never move. The first-kid index keeps one table
//     per label (and one for *), keyed by the lowest kid and found by a
//     popcount, so a document node reads only its own label's candidates
//     and the * ones.
//   - The oracle path: pattern.Matches remains the reference semantics
//     (with a pooled flat slice memo indexed by document-ordinal ×
//     pattern-ordinal). The forest is proven equivalent by differential
//     fuzzing (FuzzEngineVsMatches, with a committed corpus covering
//     root-// re-rooting, wildcards, the empty pattern, and
//     operator-colliding document labels) and falls back to the oracle
//     per document for hand-built patterns that fail pattern.Validate;
//     Parse output always compiles.
//
// The broker's publish path matches each document against the community
// representatives only (the precision sample evaluates a sampled
// member's own pattern on demand); the overlay keeps one forest of every
// origin's advertised patterns per node, so a forwarding decision is a
// single match whose matched origins the routing table turns into links.
//
// # Measured
//
// Key numbers on the bench container, each row as last measured, before
// against after this engine and the slab XML parser:
//
//	path                                     before                     after
//	BenchmarkBrokerPublish (256 subs)        297 µs/op, 324 allocs      65 µs/op, 120 allocs (4.6×, 2.7×)
//	BenchmarkTreesimdPublish/subs=1000       3.31 ms/op, 302 pub/s      0.52 ms/op, 1923 pub/s (6.4×)
//	BenchmarkEngineMatch/subs=1024           995 µs/op (oracle loop)    62 µs/op, 0 allocs (16×)
//	BenchmarkEngineMatch/subs=8192           10.5 ms/op (oracle loop)   0.26 ms/op, 0 allocs (40×)
//	BenchmarkXMLParse (≈125-node documents)  81 µs/op, 874 allocs       13.5 µs/op, 3 allocs (6×)
//
// Before label-ordered ids the 1024 and 8192 rows read 100 µs and
// 0.50 ms (137 µs and 0.96 ms with dense frames); the XML row's before
// is encoding/xml, its after the slab trees. Both sides of the matching
// rows are still benchmarks: BenchmarkEngineMatch against
// BenchmarkEngineMatchOracle at 64/1024/8192 subscriptions in this
// package, beside BenchmarkEngineMatchUnfired, BenchmarkForestChurn and
// BenchmarkEngineMatchChurned (30 % of the patterns re-added one by one
// since the install: 82 µs and 0.32 ms at 1024 and 8192, the price of
// the label order lost between installs). The daemon row predates the
// benchmark harness; bash bench/run.sh (its manual is bench/README.md)
// measures the daemon now.
package matching
