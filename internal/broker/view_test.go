package broker

import (
	"context"
	"log/slog"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"treesim/internal/cluster"
	"treesim/internal/core"
	"treesim/internal/dtd"
	"treesim/internal/pattern"
	"treesim/internal/persist"
	"treesim/internal/querygen"
	"treesim/internal/xmltree"
)

// currentView returns the engine's similarity view (nil before the
// first subscribe).
func currentView(e *Engine) *core.View {
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	return e.view
}

// publishFlushed publishes docs one by one and waits for the synopsis
// to have ingested them.
func publishFlushed(t *testing.T, e *Engine, docs []*xmltree.Tree) {
	t.Helper()
	for _, d := range docs {
		if _, err := e.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
}

// TestSimilarityViewDoublingRule pins the refresh rule and what a
// subscribe costs between refreshes: the view is taken at the first
// subscribe, re-taken exactly when the stream has doubled (three times
// from N to 8N documents) and on a forced Rebuild, and never otherwise;
// a subscribe on a standing view runs one SEL evaluation — the new
// pattern — however many documents were published and ingested since
// the previous one, and the first subscribe on a new view runs one per
// community representative besides (the row covers nothing else).
func TestSimilarityViewDoublingRule(t *testing.T) {
	const n = 16
	docs, pats := benchWorkload(16*n, 9*n)
	e := newTestEngine(t, Config{
		Estimator: core.Config{Representation: core.Hashes, HashCapacity: 64, Seed: 5},
		Rebuild:   Never{},
	})
	refreshes := func() uint64 { return e.counters.viewRefreshes.Load() }
	// subscribe registers the next pattern and returns the view it was
	// placed on and the SEL evaluations that view ran for it.
	subscribe := func() (*core.View, int64) {
		t.Helper()
		var before int64
		old := currentView(e)
		if old != nil {
			before = old.Evals()
		}
		if _, err := e.SubscribePattern(pats[e.Live()], ""); err != nil {
			t.Fatal(err)
		}
		v := currentView(e)
		if v != old {
			before = 0
		}
		return v, v.Evals() - before
	}

	if currentView(e) != nil || refreshes() != 0 {
		t.Fatal("a view exists before anything asked for one")
	}
	publishFlushed(t, e, docs[:n])
	// An empty registry leaves nothing to compare the first pattern with,
	// so the second subscribe evaluates both.
	for _, want := range []int64{0, 2} {
		if v, evals := subscribe(); v.Docs() != n || evals != want || refreshes() != 1 {
			t.Fatalf("subscribe into %d live: view covers %d docs, %d evaluations, %d refreshes; want %d, %d, 1",
				e.Live()-1, v.Docs(), evals, refreshes(), n, want)
		}
	}

	// N → 8N one document at a time, one subscribe after each.
	for d := n + 1; d <= 8*n; d++ {
		publishFlushed(t, e, docs[d-1:d])
		reps := e.Stats().Communities
		v, evals := subscribe()
		if d == 2*n || d == 4*n || d == 8*n {
			if v.Docs() != d || evals != int64(reps+1) || reps >= e.Live()-1 {
				t.Fatalf("at %d docs: view covers %d, %d evaluations; want a new view of %d and a cold pass of %d representatives + 1 (of %d live)",
					d, v.Docs(), evals, d, reps, e.Live()-1)
			}
		} else if 2*v.Docs() <= d || evals != 1 {
			t.Fatalf("at %d docs: view covers %d, %d evaluations; want the standing view and 1", d, v.Docs(), evals)
		}
	}
	if got := refreshes(); got != 1+3 {
		t.Fatalf("streaming %d → %d documents refreshed the view %d times, want 3", n, 8*n, got-1)
	}

	// Bursts of any size short of the next doubling change nothing.
	at := 8 * n
	for _, burst := range []int{0, 1, 40, 0, 80, 6} {
		publishFlushed(t, e, docs[at:at+burst])
		at += burst
		if v, evals := subscribe(); v.Docs() != 8*n || evals != 1 {
			t.Fatalf("after a burst of %d (at %d docs): view covers %d, %d evaluations; want %d, 1", burst, at, v.Docs(), evals, 8*n)
		}
	}
	if got := refreshes(); got != 4 {
		t.Fatalf("refreshes = %d after the bursts, want 4", got)
	}

	e.Rebuild()
	if v := currentView(e); refreshes() != 5 || v.Docs() != at {
		t.Fatalf("forced Rebuild: %d refreshes, view covers %d docs; want 5, %d", refreshes(), v.Docs(), at)
	}
	if st := e.Stats(); st.Rebuilds != 1 || st.StaleOps != 0 {
		t.Fatalf("forced Rebuild: rebuilds/stale = %d/%d, want 1/0", st.Rebuilds, st.StaleOps)
	}
}

// partitionOf is the engine's clustering over its registry: the live
// patterns in id order, and each community's members and representative
// as indices into them.
func partitionOf(e *Engine) (live []*pattern.Pattern, groups [][]int, reps []int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	index := map[*subscriber]int{}
	for i, s := range e.registryLocked() {
		index[s] = i
		live = append(live, s.pat)
	}
	for _, g := range e.groups {
		var members []int
		for _, s := range g.members() {
			members = append(members, index[s])
		}
		groups, reps = append(groups, members), append(reps, index[g.rep])
	}
	return live, groups, reps
}

// placeByRow is the community cluster.Place picks for a pattern given its
// similarity row against the registry: len(reps) when it founds one.
func placeByRow(row []float64, reps []int, threshold float64) int {
	if g := cluster.Place(len(reps), threshold, func(g int) float64 { return row[reps[g]] }); g != -1 {
		return g
	}
	return len(reps)
}

// communityOf is the index of subscription id's community.
func communityOf(e *Engine, id uint64) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return slices.Index(e.groups, e.byID[id].group)
}

// TestSubscribeOnFreshViewMatchesLiveAssign is the differential for the
// frame a row is computed in: at the instant after a refresh — by the
// doubling rule or by a forced Rebuild — Subscribe places a pattern in
// the community cluster.Place picks over a live SimilarityRow, taken
// here from a second estimator fed the same stream.
func TestSubscribeOnFreshViewMatchesLiveAssign(t *testing.T) {
	docs, pats := benchWorkload(256, 120)
	cfg := Config{
		Estimator: core.Config{Representation: core.Hashes, HashCapacity: 64, Seed: 5},
		Rebuild:   Never{},
	}
	e := newTestEngine(t, cfg)
	ref := core.NewEstimator(cfg.Estimator)
	observed := 0
	stream := func(upTo int) {
		publishFlushed(t, e, docs[observed:upTo])
		ref.ObserveTrees(docs[observed:upTo])
		observed = upTo
	}
	// place subscribes p and compares its community with the reference.
	place := func(p *pattern.Pattern) {
		t.Helper()
		live, _, reps := partitionOf(e)
		g := placeByRow(ref.SimilarityRow(e.cfg.Metric, p, live), reps, e.cfg.Threshold)
		refreshes := e.counters.viewRefreshes.Load()
		id, err := e.SubscribePattern(p, "")
		if err != nil {
			t.Fatal(err)
		}
		if e.counters.viewRefreshes.Load() == refreshes && currentView(e).Docs() != observed {
			t.Fatalf("subscribe at %d docs ran on a view of %d: not the instant after a refresh", observed, currentView(e).Docs())
		}
		if got, n := communityOf(e, id), e.Stats().Communities; got != g || n != max(len(reps), g+1) {
			t.Errorf("at %d docs, %d live: subscribed into community %d of %d, live placement picks %d of %d",
				observed, len(live), got, n, g, max(len(reps), g+1))
		}
	}

	stream(32)
	next := 0
	for ; next < 60; next++ { // a registry with some structure, placed on the view of 32
		if _, err := e.SubscribePattern(pats[next], ""); err != nil {
			t.Fatal(err)
		}
	}
	for _, upTo := range []int{64, 128, 256} { // doubling-rule refreshes
		stream(upTo)
		place(pats[next])
		next++
	}
	for ; next < len(pats); next++ { // forced refreshes
		e.Rebuild()
		place(pats[next])
	}
	if st := e.Stats(); st.Communities >= st.Live || st.Communities < 2 {
		t.Fatalf("%d communities for %d subscriptions: the workload exercises no placement", st.Communities, st.Live)
	}
}

// hookJournal is memJournal calling subscribed with each OpSubscribe
// record, inside the registry critical section that commits it and
// before the subscription is installed.
type hookJournal struct {
	memJournal
	subscribed func(rec persist.Record)
}

func (j *hookJournal) Append(r persist.Record) (uint64, error) {
	if r.Op == persist.OpSubscribe {
		j.subscribed(r)
	}
	return j.memJournal.Append(r)
}

// TestSubscribeOnRepresentativesMatchesFullRow is the differential for
// the representatives-only row: at the daemon's defaults, policy
// rebuilds included, 1000 generated NITF patterns subscribed after 500
// warm documents each land in the community cluster.Place picks over
// the full SimilarityRow against the registry.
func TestSubscribeOnRepresentativesMatchesFullRow(t *testing.T) {
	nDocs, nSubs := 500, 1000
	if raceEnabled || testing.Short() {
		nDocs, nSubs = 150, 300
	}
	docs, pats := benchWorkload(nDocs, nSubs)
	e := newTestEngine(t, Config{Estimator: core.Config{Representation: core.Hashes, HashCapacity: 1000, Seed: 1}})
	got := -1
	e.SetJournal(&hookJournal{subscribed: func(rec persist.Record) { got = rec.Group }})
	publishFlushed(t, e, docs)
	for i, p := range pats {
		live, _, reps := partitionOf(e)
		want := placeByRow(e.est.SimilarityRow(e.cfg.Metric, p, live), reps, e.cfg.Threshold)
		if _, err := e.SubscribePattern(p, ""); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("subscription %d placed in community %d of %d, placement over the full row picks %d",
				i, got, len(reps), want)
		}
	}
	if st := e.Stats(); st.Rebuilds == 0 || st.Communities >= st.Live {
		t.Fatalf("%d rebuilds, %d communities for %d subscriptions: the workload exercises no placement on rebuilt representatives",
			st.Rebuilds, st.Communities, st.Live)
	}
}

// TestSubscribeBesideRebuildPlacesOnCurrentReps races subscribes
// against a goroutine re-clustering in a loop. A row covers only the
// representatives it snapshotted, so one that a rebuild superseded must
// not commit: at every commit the subscription has founded its
// community and no representative is threshold-similar to it, or its
// community's representative is the most similar (first on ties) and at
// least threshold-similar — Assign's rule over the clustering it
// commits into, on the stream every row and matrix is computed over
// (nothing is published).
//
// Each round is built so that a superseded row would commit and would
// misplace. A racer subscribes on a cold copy of the view (the same
// stream, nothing evaluated, so its row costs a SEL evaluation per
// representative) while rebuilds run on the engine's warm one, starting
// once the racer has begun evaluating — past its snapshot. The round's
// registry is subscribed least-connected first, so incremental
// placement makes peripheral patterns representatives and the first
// rebuild seeds better-connected ones; the racer is a pattern that
// belongs with a representative the rebuild introduced, whose entry a
// row over the incremental representatives does not hold. Rounds
// where no candidate does are skipped.
func TestSubscribeBesideRebuildPlacesOnCurrentReps(t *testing.T) {
	const base, rounds = 16, 30
	docs, pats := benchWorkload(300, 2*rounds*base) // the rounds' registries, then racer candidates
	cfg := Config{
		Estimator: core.Config{Representation: core.Hashes, HashCapacity: 32, Seed: 5},
		Rebuild:   Never{},
	}
	def := cfg.withDefaults()
	// Estimators fed the same stream as the engines hold the same
	// synopsis: one gives the reference similarities, the other the cold
	// view (each round's patterns are new to it).
	ref, cold := core.NewEstimator(cfg.Estimator), core.NewEstimator(cfg.Estimator)
	ref.ObserveTrees(docs)
	cold.ObserveTrees(docs)
	coldView := cold.View()
	sim := ref.SimilarityMatrix(def.Metric, pats) // sim[existing][new], as a row
	index := make(map[*pattern.Pattern]int, len(pats))
	for i, p := range pats {
		index[p] = i
	}
	row := func(existing []*pattern.Pattern, p *pattern.Pattern) []float64 {
		out := make([]float64, len(existing))
		for i, q := range existing {
			out[i] = sim[index[q]][index[p]]
		}
		return out
	}
	candidates := pats[rounds*base:]

	var commits, probes, rebuilds, bad int
	for r := range rounds {
		members := slices.Clone(pats[r*base : (r+1)*base])
		degree := make(map[*pattern.Pattern]int, base)
		for _, p := range members {
			for _, q := range members {
				if p != q && sim[index[p]][index[q]] >= def.Threshold {
					degree[p]++
				}
			}
		}
		sort.SliceStable(members, func(a, b int) bool { return degree[members[a]] < degree[members[b]] })
		incremental := &cluster.Communities{Threshold: def.Threshold}
		matrix := make([][]float64, base)
		for i, p := range members {
			incremental.Assign(row(members[:i], p))
			matrix[i] = make([]float64, base)
			for j, q := range members {
				matrix[i][j] = sim[index[p]][index[q]]
			}
		}
		_, seeds := cluster.GreedySeeded(matrix, def.Threshold)
		var racer *pattern.Pattern
		for i, p := range candidates {
			if g := placeByRow(row(members, p), seeds, def.Threshold); g < len(seeds) && !slices.Contains(incremental.Reps, seeds[g]) {
				racer, candidates = p, slices.Delete(candidates, i, i+1)
				break
			}
		}
		if racer == nil {
			continue
		}
		probes++

		e := New(cfg)
		e.est.ObserveTrees(docs)
		var subscribing *pattern.Pattern // the pattern whose subscribe is committing
		e.SetJournal(&hookJournal{subscribed: func(rec persist.Record) {
			commits++
			g, col := rec.Group, index[subscribing]
			want, best := -1, 0.0
			for h, rg := range e.groups {
				if v := sim[index[rg.rep.pat]][col]; v >= def.Threshold && (want == -1 || v > best) {
					want, best = h, v
				}
			}
			if founded := g == len(e.groups); (want == -1) != founded || (!founded && g != want) {
				bad++
				t.Errorf("round %d: pattern %d committed into community %d (founded %v); over the representatives it commits into, Assign picks %d",
					r, col, g, founded, want)
			}
		}})
		for _, p := range members {
			subscribing = p
			if _, err := e.SubscribePattern(p, ""); err != nil {
				t.Fatal(err)
			}
		}

		subscribing = racer
		e.viewMu.Lock()
		e.view = coldView
		e.viewMu.Unlock()
		evals := coldView.Evals()
		var racing, rebuilder sync.WaitGroup
		stop := make(chan struct{})
		racing.Add(1)
		go func() {
			defer racing.Done()
			if _, err := e.SubscribePattern(racer, ""); err != nil {
				t.Error(err)
			}
		}()
		rebuilder.Add(1)
		go func() {
			defer rebuilder.Done()
			for coldView.Evals() == evals {
				runtime.Gosched()
			}
			for {
				select {
				case <-stop:
					return
				default:
					e.Rebuild()
				}
			}
		}()
		racing.Wait()
		close(stop)
		rebuilder.Wait()
		rebuilds += int(e.Stats().Rebuilds)
		e.Close()
	}
	if commits != probes*(base+1) || probes < rounds/3 || rebuilds == 0 || bad > 0 {
		t.Fatalf("%d rounds of %d: %d commits beside %d rebuilds, %d misplaced", probes, rounds, commits, rebuilds, bad)
	}
}

// reclusterLog is a slog handler summing the "registry reclustered"
// events' pair counts.
type reclusterLog struct {
	mu                       sync.Mutex
	events, computed, reused int64
}

func (h *reclusterLog) Enabled(context.Context, slog.Level) bool { return true }
func (h *reclusterLog) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *reclusterLog) WithGroup(string) slog.Handler            { return h }

func (h *reclusterLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "registry reclustered" {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.events++
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "pairs_computed":
			h.computed += a.Value.Int64()
		case "pairs_reused":
			h.reused += a.Value.Int64()
		}
		return true
	})
	return nil
}

// TestRebuildGraphMatchesFullMatrix is the differential for rebuilds on
// the view's graph: at the daemon's defaults, 1000 generated NITF
// patterns subscribed after 500 warm documents, the partition and
// representatives after every rebuild are what cluster.GreedySeeded makes
// of the full SimilarityMatrix of the registry on the same view. Every
// rebuild after the first evaluates only the pairs with a pattern
// subscribed since the one before: the events' pairs_computed and
// pairs_reused sum to 328 455 and 407 699 over the fill's 8 rebuilds, and
// the rebuild histogram timed each.
func TestRebuildGraphMatchesFullMatrix(t *testing.T) {
	nDocs, nSubs := 500, 1000
	if raceEnabled || testing.Short() {
		nDocs, nSubs = 150, 300
	}
	docs, pats := benchWorkload(nDocs, nSubs)
	log := new(reclusterLog)
	e := newTestEngine(t, Config{
		Estimator: core.Config{Representation: core.Hashes, HashCapacity: 1000, Seed: 1},
		Logger:    slog.New(log),
	})
	publishFlushed(t, e, docs)
	var computed, reused int64
	prev := 0 // live at the previous rebuild
	e.SetChurnHook(func(ev ChurnEvent) {
		if !ev.Rebuilt {
			return
		}
		live, groups, reps := partitionOf(e)
		want, seeds := cluster.GreedySeeded(currentView(e).SimilarityMatrix(e.cfg.Metric, live), e.cfg.Threshold)
		if !reflect.DeepEqual(groups, want) || !reflect.DeepEqual(reps, seeds) {
			t.Errorf("rebuild at %d live: %d communities, not the %d (or not the members and representatives) the full matrix's greedy makes",
				len(live), len(groups), len(want))
		}
		n := len(live)
		reused += int64(prev * (prev - 1) / 2)
		computed += int64(n*(n-1)/2 - prev*(prev-1)/2)
		prev = n
	})
	for _, p := range pats {
		if _, err := e.SubscribePattern(p, ""); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Rebuilds < 2 || log.events != int64(st.Rebuilds) || e.rebuildLat.Snapshot().Count != st.Rebuilds {
		t.Fatalf("%d rebuilds, %d events, %d timed", st.Rebuilds, log.events, e.rebuildLat.Snapshot().Count)
	}
	if log.computed != computed || log.reused != reused {
		t.Errorf("rebuilds computed %d and reused %d pairs, want %d and %d", log.computed, log.reused, computed, reused)
	}
	if nSubs == 1000 && (st.Rebuilds != 8 || st.Communities != 395 || log.computed != 328455 || log.reused != 407699) {
		t.Errorf("fill of 1000: %d rebuilds, %d communities, %d pairs computed, %d reused; want 8, 395, 328455, 407699",
			st.Rebuilds, st.Communities, log.computed, log.reused)
	}
}

// TestViewCacheFollowsLiveSet: an unsubscribe takes the pattern's SEL
// evaluation out of the similarity view, so churn on a quiet stream — the
// daemon parses every subscribe, so each is a pattern the view has not
// seen — keeps the view's cache at the live set instead of growing it by
// one entry per subscribe until the wholesale clear at 8192. It holds
// without rebuilds too.
func TestViewCacheFollowsLiveSet(t *testing.T) {
	live, churn := 1000, 6000
	if raceEnabled || testing.Short() {
		live, churn = 100, 600
	}
	docs, pats := benchWorkload(200, live)
	var exprs []string
	for _, p := range querygen.New(dtd.NITFLike(), querygen.Defaults(97)).GenerateDistinct(256) {
		exprs = append(exprs, p.String())
	}
	for name, policy := range map[string]RebuildPolicy{"default": nil, "never": Never{}} {
		t.Run(name, func(t *testing.T) {
			e := newTestEngine(t, Config{Estimator: core.Config{Representation: core.Hashes, HashCapacity: 1000, Seed: 1}, Rebuild: policy})
			publishFlushed(t, e, docs)
			var ids []uint64
			for _, p := range pats {
				id, err := e.SubscribePattern(p, "")
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			n := churn
			if name == "default" {
				n = churn / 4 // a rebuild per 125 pairs at 1000 live
			}
			for i := range n {
				id, err := e.Subscribe(exprs[i%len(exprs)])
				if err != nil {
					t.Fatal(err)
				}
				if !e.Unsubscribe(ids[0]) {
					t.Fatalf("subscription %d was not live", ids[0])
				}
				ids = append(ids[1:], id)
			}
			if got := currentView(e).Cached(); float64(got) > 1.1*float64(e.Live()) {
				t.Errorf("after %d churn pairs the view caches %d evaluations for %d live subscriptions", n, got, e.Live())
			}
		})
	}
}
