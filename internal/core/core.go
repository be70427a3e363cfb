// Package core ties the paper's pieces into one streaming estimator: it
// maintains the document synopsis over an XML stream and answers
// tree-pattern selectivity and similarity queries over it. This is the
// system a content-based router embeds to discover semantic communities
// of consumers (Chand, Felber, Garofalakis, ICDE'07).
package core

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"treesim/internal/dtd"
	"treesim/internal/matchset"
	"treesim/internal/metrics"
	"treesim/internal/pattern"
	"treesim/internal/selectivity"
	"treesim/internal/synopsis"
	"treesim/internal/xmltree"
)

// Representation selects the matching-set compression scheme.
type Representation = matchset.Kind

// Representation values.
const (
	// Counters is the per-node counter baseline (independence
	// assumptions at branching points).
	Counters = matchset.KindCounters
	// Sets is document-level reservoir sampling with exact ID sets.
	Sets = matchset.KindSets
	// Hashes is per-node distinct sampling (the paper's best scheme).
	Hashes = matchset.KindHashes
)

// Config configures an Estimator.
type Config struct {
	// Representation selects Counters (the zero value), Sets or Hashes.
	// Hashes is the paper's recommended scheme.
	Representation Representation
	// HashCapacity is the per-node sample bound h for Hashes (default
	// 1000, the paper's sweet spot).
	HashCapacity int
	// SetCapacity is the reservoir size k for Sets (default 1000).
	SetCapacity int
	// Seed makes all sampling deterministic.
	Seed int64
	// ExactRootCard uses the exact stream length as the selectivity
	// denominator instead of the estimated |S(rs)| (ablation knob; the
	// paper uses the estimate).
	ExactRootCard bool
	// ParseOptions controls how raw XML maps to trees (text nodes,
	// attributes).
	ParseOptions xmltree.ParseOptions
	// DTD, when set, enables the paper's footnote-2 enhancement:
	// patterns that are structurally impossible under the schema are
	// answered P = 0 without consulting the synopsis, eliminating
	// residual negative-query error for schema-valid streams.
	DTD *dtd.DTD
}

// Estimator is a streaming tree-pattern selectivity and similarity
// estimator. It is safe for concurrent use: queries (Selectivity,
// Joint, Similarity, Stats, Save, View) take a shared read lock and run
// concurrently with each other, while stream updates (ObserveTree,
// ObserveXML, Compress) take the exclusive lock. Query-time
// materialization caches synchronize internally in the synopsis, so the
// read path never mutates unguarded shared state. SimilarityRow and
// SimilarityMatrix hold the lock only to take a View and compute on it
// unlocked.
type Estimator struct {
	mu  sync.RWMutex
	cfg Config
	syn *synopsis.Synopsis
	sel *selectivity.Estimator

	// view is the View of the newest synopsis version any caller asked
	// for, kept so repeated similarity queries on a quiet estimator share
	// one frozen copy and its SEL cache. Guarded by viewMu, a leaf lock
	// under mu.
	viewMu sync.Mutex
	view   *View
}

// View is an immutable similarity frame: a frozen copy of the synopsis
// (synopsis.Freeze — structure copied, matching-set snapshots shared)
// together with the SEL evaluation of every pattern asked about so far.
// Rows and matrices computed on one View are mutually consistent — the
// new pattern and the cached ones are evaluated against the same
// stream prefix — and cost one SEL evaluation per pattern not seen
// before plus one matching-set intersection per pair, however far the
// live estimator has streamed on meanwhile. Nothing on a View touches
// the Estimator's lock; all methods are safe for concurrent use.
//
// Long-lived consumers (the broker) keep a View across many queries and
// re-take it when it covers too little of the stream; the matching sets
// are bounded samples of the stream's distribution, so on a stationary
// stream an older frame loses no accuracy. A stream whose distribution
// drifts is WindowEstimator's job, not a reason to re-take views faster.
type View struct {
	dtd *dtd.DTD
	syn *synopsis.Synopsis
	sel *selectivity.Estimator

	// vals holds one SEL evaluation per pattern pointer. Entries are
	// independent and correctness never depends on a hit, so exceeding
	// evalCacheCap (a caller that never Forgets the patterns it drops)
	// simply clears the map.
	mu    sync.Mutex
	vals  map[*pattern.Pattern]evalEntry
	evals atomic.Int64
}

// evalEntry is one cached SEL evaluation: the (immutable) matching-set
// value and its normalized cardinality.
type evalEntry struct {
	val  matchset.Value
	card float64
}

// evalCacheCap bounds a View's SEL cache (see View.vals).
const evalCacheCap = 8192

// NewEstimator returns an estimator with the given configuration.
func NewEstimator(cfg Config) *Estimator {
	syn := synopsis.New(synopsis.Options{
		Kind:          cfg.Representation,
		HashCapacity:  cfg.HashCapacity,
		SetCapacity:   cfg.SetCapacity,
		Seed:          cfg.Seed,
		ExactRootCard: cfg.ExactRootCard,
	})
	return &Estimator{cfg: cfg, syn: syn, sel: selectivity.New(syn)}
}

// Config returns the estimator's configuration.
func (e *Estimator) Config() Config { return e.cfg }

// Synopsis exposes the underlying synopsis (for inspection, pruning
// experiments and size accounting). Callers that mutate it must not race
// with other estimator calls.
func (e *Estimator) Synopsis() *synopsis.Synopsis { return e.syn }

// ObserveTree feeds one document into the synopsis and returns its
// stream identifier.
func (e *Estimator) ObserveTree(t *xmltree.Tree) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.syn.Insert(t)
}

// ObserveTrees feeds a batch of documents under a single exclusive
// lock acquisition, amortizing lock traffic against concurrent queries.
func (e *Estimator) ObserveTrees(ts []*xmltree.Tree) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, t := range ts {
		e.syn.Insert(t)
	}
}

// ObservePacked is ObserveTrees for documents packed (xmltree.Pack's
// form), the batches the broker's publish ingester feeds.
func (e *Estimator) ObservePacked(docs [][]byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, b := range docs {
		e.syn.InsertPacked(b)
	}
}

// ObserveXML parses one XML document from r and feeds it in.
func (e *Estimator) ObserveXML(r io.Reader) (uint64, error) {
	t, err := xmltree.Parse(r, e.cfg.ParseOptions)
	if err != nil {
		return 0, fmt.Errorf("core: observe: %w", err)
	}
	return e.ObserveTree(t), nil
}

// DocsObserved returns the stream length |H| so far.
func (e *Estimator) DocsObserved() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.syn.DocsObserved()
}

// Selectivity estimates P(p): the fraction of stream documents matching
// the pattern. With Config.DTD set, structurally infeasible patterns
// short-circuit to 0.
func (e *Estimator) Selectivity(p *pattern.Pattern) float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.p(p)
}

// p is Selectivity with the lock already held.
func (e *Estimator) p(pat *pattern.Pattern) float64 {
	if e.cfg.DTD != nil && !dtd.Feasible(e.cfg.DTD, pat) {
		return 0
	}
	return e.sel.P(pat)
}

// SelectivityXPath is Selectivity over an XPath string.
func (e *Estimator) SelectivityXPath(xpath string) (float64, error) {
	p, err := pattern.Parse(xpath)
	if err != nil {
		return 0, err
	}
	return e.Selectivity(p), nil
}

// Joint estimates P(p ∧ q).
func (e *Estimator) Joint(p, q *pattern.Pattern) float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.pAnd(p, q)
}

// pAnd is Joint with the lock already held: with a DTD configured, an
// infeasible conjunction short-circuits to 0.
func (e *Estimator) pAnd(p, q *pattern.Pattern) float64 {
	if e.cfg.DTD != nil && !dtd.Feasible(e.cfg.DTD, pattern.MergeRoots(p, q)) {
		return 0
	}
	return e.sel.PAnd(p, q)
}

// lockedSource adapts the estimator's DTD-filtered probabilities to
// metrics.Source. The caller must hold e.mu.
type lockedSource struct{ e *Estimator }

func (s lockedSource) P(p *pattern.Pattern) float64       { return s.e.p(p) }
func (s lockedSource) PAnd(p, q *pattern.Pattern) float64 { return s.e.pAnd(p, q) }

// Similarity estimates the proximity metric m between two subscriptions.
func (e *Estimator) Similarity(m metrics.Metric, p, q *pattern.Pattern) float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return metrics.Similarity(lockedSource{e}, m, p, q)
}

// SimilarityXPath is Similarity over XPath strings.
func (e *Estimator) SimilarityXPath(m metrics.Metric, px, qx string) (float64, error) {
	p, err := pattern.Parse(px)
	if err != nil {
		return 0, err
	}
	q, err := pattern.Parse(qx)
	if err != nil {
		return 0, err
	}
	return e.Similarity(m, p, q), nil
}

// Compress prunes the synopsis to the target fraction of its current
// size (paper, Section 3.3) and returns the achieved ratio.
func (e *Estimator) Compress(targetRatio float64) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.syn.Compress(synopsis.CompressOptions{TargetRatio: targetRatio})
}

// Stats returns the synopsis size statistics.
func (e *Estimator) Stats() synopsis.Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.syn.Stats()
}

// Save serializes the estimator's synopsis state to w. A saved
// estimator restores with identical query answers; continued streaming
// after Load is statistically (not bitwise) equivalent because random
// sources are re-seeded.
func (e *Estimator) Save(w io.Writer) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.syn.Encode(w)
}

// LoadEstimator reconstructs an estimator saved with Save. The
// configuration is restored from the stream; parse options revert to
// the zero value unless set afterwards via cfg overrides.
func LoadEstimator(r io.Reader) (*Estimator, error) {
	syn, err := synopsis.Decode(r)
	if err != nil {
		return nil, err
	}
	opts := syn.Options()
	cfg := Config{
		Representation: opts.Kind,
		HashCapacity:   opts.HashCapacity,
		SetCapacity:    opts.SetCapacity,
		Seed:           opts.Seed,
		ExactRootCard:  opts.ExactRootCard,
	}
	return &Estimator{cfg: cfg, syn: syn, sel: selectivity.New(syn)}, nil
}

// SetStreamConfig restores the configuration facets Save does not
// persist — parse options and the optional DTD schema filter — on a
// loaded estimator. Call it once after LoadEstimator, before serving
// queries or stream updates.
func (e *Estimator) SetStreamConfig(opts xmltree.ParseOptions, d *dtd.DTD) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cfg.ParseOptions = opts
	e.cfg.DTD = d
	e.view = nil // taken under the old schema filter
}

// View returns the similarity frame of the estimator's current state.
// Taking one copies the synopsis structure under the shared read lock
// (no SEL work); a View of the current synopsis version is reused.
func (e *Estimator) View() *View {
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	if e.view == nil || e.view.syn.Version() != e.syn.Version() {
		syn := e.syn.Freeze()
		e.view = &View{
			dtd:  e.cfg.DTD,
			syn:  syn,
			sel:  selectivity.New(syn),
			vals: make(map[*pattern.Pattern]evalEntry),
		}
	}
	return e.view
}

// SimilarityMatrix is View().SimilarityMatrix: the full pairwise
// similarity matrix of a subscription set over the stream so far.
func (e *Estimator) SimilarityMatrix(m metrics.Metric, subs []*pattern.Pattern) [][]float64 {
	return e.View().SimilarityMatrix(m, subs)
}

// SimilarityRow is View().SimilarityRowInto with a fresh row: the
// similarities of subs against one new subscription p over the stream
// so far.
func (e *Estimator) SimilarityRow(m metrics.Metric, p *pattern.Pattern, subs []*pattern.Pattern) []float64 {
	return e.View().SimilarityRowInto(nil, m, p, subs)
}

// Docs returns the stream length |H| the view covers.
func (v *View) Docs() int { return v.syn.DocsObserved() }

// Evals returns how many SEL evaluations the view has run so far (cache
// misses): the cold work a consumer paid on this frame.
func (v *View) Evals() int64 { return v.evals.Load() }

// Selectivity returns P(p) on the view — the evaluation rows and
// matrices on this view use for p, and a cache hit once any of them has
// seen p; 0 if the schema filter rejects p.
func (v *View) Selectivity(p *pattern.Pattern) float64 {
	_, pp := v.eval(p)
	return pp
}

// Eval returns p's SEL evaluation on the view — the matching-set value
// behind Selectivity, cached like it — or nil if the schema filter
// rejects p. The value is shared and immutable.
func (v *View) Eval(p *pattern.Pattern) matchset.Value {
	val, _ := v.eval(p)
	return val
}

// feasible reports whether the schema filter (if any) admits p, and
// feasibleAnd whether it admits the conjunction p ∧ q.
func (v *View) feasible(p *pattern.Pattern) bool {
	return v.dtd == nil || dtd.Feasible(v.dtd, p)
}

func (v *View) feasibleAnd(p, q *pattern.Pattern) bool {
	return v.dtd == nil || dtd.Feasible(v.dtd, pattern.MergeRoots(p, q))
}

// eval returns the SEL evaluation of p (value + normalized
// cardinality), consulting the cache, or nil, 0 if the schema rejects
// p. Concurrent misses may evaluate the same pattern twice; both arrive
// at the same immutable value.
func (v *View) eval(p *pattern.Pattern) (matchset.Value, float64) {
	if !v.feasible(p) {
		return nil, 0
	}
	v.mu.Lock()
	ent, ok := v.vals[p]
	v.mu.Unlock()
	if ok {
		return ent.val, ent.card
	}
	v.evals.Add(1)
	val := v.sel.Evaluate(p)
	ent = evalEntry{val: val, card: v.sel.EvaluateCard(val)}
	v.mu.Lock()
	if len(v.vals) >= evalCacheCap {
		clear(v.vals)
	}
	v.vals[p] = ent
	v.mu.Unlock()
	return ent.val, ent.card
}

// Forget drops p's cached SEL evaluation — a consumer calls it when a
// pattern leaves its population, so the cache follows the live set and
// not every pattern ever asked about. Asking about p again re-evaluates.
func (v *View) Forget(p *pattern.Pattern) {
	v.mu.Lock()
	delete(v.vals, p)
	v.mu.Unlock()
}

// Cached returns how many patterns' SEL evaluations the view holds.
func (v *View) Cached() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.vals)
}

// denominator materializes the Full cache (one traversal from the root
// covers every node; a hit ever after, so parallel evaluations do not
// race to rebuild the same values) and returns |S(rs)|, which a pairwise
// loop reads once instead of once per pair.
func (v *View) denominator() float64 {
	v.syn.Full(v.syn.Root())
	return v.syn.RootCard()
}

// conj is P(p ∧ q) from the SEL evaluations pv and qv over the
// denominator den: one matching-set intersection, no merged-pattern
// evaluation.
func (v *View) conj(p, q *pattern.Pattern, pv, qv matchset.Value, den float64) float64 {
	if pv == nil || qv == nil || den == 0 || !v.feasibleAnd(p, q) {
		return 0
	}
	return selectivity.Clamp01(matchset.IntersectCard(pv, qv) / den)
}

// SimilarityMatrix computes the full pairwise similarity matrix of a
// subscription set under metric m. The result is row-major: result[i][j]
// = m(subs[i], subs[j]).
//
// Conjunctions factorize over SEL — SEL(p ∧ q) = SEL(p) ∩ SEL(q) — so
// the matrix needs only one SEL evaluation per subscription (cached on
// the view) plus one matching-set intersection per pair, instead of one
// SEL evaluation of a merged pattern per pair. Both phases fan out
// across GOMAXPROCS workers: SEL evaluations are independent per
// subscription, and the pairwise phase shards by row (a dynamic counter
// balances the triangular row lengths).
func (v *View) SimilarityMatrix(m metrics.Metric, subs []*pattern.Pattern) [][]float64 {
	n := len(subs)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
	}
	if n == 0 {
		return out
	}
	vals, ps, den := make([]matchset.Value, n), make([]float64, n), v.denominator()
	forEach(n, func(i int) { vals[i], ps[i] = v.eval(subs[i]) })
	// Row i's worker owns every cell it writes — (i,j) and (j,i) for
	// j ≥ i — so no two workers touch the same cell. The diagonal uses
	// P(p∧p) = P(p), which is exact. (Pairwise Similarity under Counters
	// instead reports P(p)² for the self-conjunction — the independence
	// assumption does not know that p∧p ≡ p.)
	forEach(n, func(i int) {
		out[i][i] = m.Eval(metrics.Probs{P: ps[i], Q: ps[i], And: ps[i]})
		for j := i + 1; j < n; j++ {
			and := v.conj(subs[i], subs[j], vals[i], vals[j], den)
			out[i][j] = m.Eval(metrics.Probs{P: ps[i], Q: ps[j], And: and})
			out[j][i] = m.Eval(metrics.Probs{P: ps[j], Q: ps[i], And: and})
		}
	})
	return out
}

// SimilarityRowInto computes the similarities of an existing
// subscription set against one new subscription p: out[i] = m(subs[i],
// p) — the new column of the similarity matrix. That orientation
// matters for the asymmetric M1: greedy community absorption tests
// sim[existing][new], so incremental assignment (cluster.Communities)
// must consume the same direction or it and the greedy would disagree.
// (For M2/M3 the two orientations coincide.)
//
// Only the new column is computed — one SEL evaluation of p, cache hits
// for every pattern the view has seen, one matching-set intersection
// per existing subscription — fanned out across the same worker pool as
// SimilarityMatrix.
//
// The row is written into dst, grown or truncated to len(subs); a fresh
// slice is allocated only when dst's capacity is short, so a caller can
// keep a buffer.
func (v *View) SimilarityRowInto(dst []float64, m metrics.Metric, p *pattern.Pattern, subs []*pattern.Pattern) []float64 {
	n := len(subs)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	out := dst[:n]
	if n == 0 {
		return out
	}
	den := v.denominator()
	pv, pp := v.eval(p)
	forEach(n, func(i int) {
		qv, qp := v.eval(subs[i])
		out[i] = m.Eval(metrics.Probs{P: qp, Q: pp, And: v.conj(p, subs[i], pv, qv, den)})
	})
	return out
}

// forEach runs fn(i) for every i in [0, n) on up to GOMAXPROCS workers
// that take indices from a shared counter, and waits for them. In
// treesimd that is whatever its governor has set: one worker until the
// daemon's load keeps more Ps busy.
func forEach(n int, fn func(i int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	w := min(runtime.GOMAXPROCS(0), n)
	if w <= 1 {
		work()
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for range w {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}
