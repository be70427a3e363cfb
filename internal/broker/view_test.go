package broker

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"treesim/internal/core"
	"treesim/internal/dtd"
	"treesim/internal/matchset"
	"treesim/internal/pattern"
	"treesim/internal/persist"
	"treesim/internal/querygen"
	"treesim/internal/xmltree"
)

// currentView returns the view the engine's communities are keyed on
// (nil before the first subscribe).
func currentView(e *Engine) *core.View { return e.view.Load() }

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
// live subscription besides (the re-bucket's cold pass).
func TestSimilarityViewDoublingRule(t *testing.T) {
	const n = 16
	docs, pats := benchWorkload(16*n, 9*n)
	e := newTestEngine(t, Config{Estimator: core.Config{Representation: core.Hashes, HashCapacity: 64, Seed: 5}})
	refreshes := func() uint64 { return e.counters.viewRefreshes.Load() }
	// subscribe registers the next pattern and returns the view it was
	// keyed on and the SEL evaluations that view ran meanwhile.
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
	// The first subscribe takes the view, with nothing to re-bucket on it.
	for range 2 {
		if v, evals := subscribe(); v.Docs() != n || evals != 1 || refreshes() != 1 {
			t.Fatalf("subscribe into %d live: view covers %d docs, %d evaluations, %d refreshes; want %d, 1, 1",
				e.Live()-1, v.Docs(), evals, refreshes(), n)
		}
	}

	// N → 8N one document at a time, one subscribe after each.
	for d := n + 1; d <= 8*n; d++ {
		publishFlushed(t, e, docs[d-1:d])
		live := e.Live()
		v, evals := subscribe()
		if d == 2*n || d == 4*n || d == 8*n {
			if v.Docs() != d || evals != int64(live+1) {
				t.Fatalf("at %d docs: view covers %d, %d evaluations; want a new view of %d and a cold pass of %d live + 1",
					d, v.Docs(), evals, d, live)
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

	// A forced Rebuild re-buckets on a new view: journaled and counted
	// when the partition moves, which on a stream this young it does.
	before := e.Stats()
	e.Rebuild()
	if v := currentView(e); refreshes() != 5 || v.Docs() != at {
		t.Fatalf("forced Rebuild: %d refreshes, view covers %d docs; want 5, %d", refreshes(), v.Docs(), at)
	}
	if st := e.Stats(); st.Rebuilds != before.Rebuilds+1 || before.Rebuilds == 0 {
		t.Fatalf("forced Rebuild: rebuilds %d → %d; want one more (after at least one doubling's)",
			before.Rebuilds, st.Rebuilds)
	}
}

// samplePartition buckets pats by the sample of their evaluation on v, in
// order: each pattern joins the first bucket whose first pattern carries
// its sample, and one carrying none founds its own. Buckets hold indices.
func samplePartition(v *core.View, pats []*pattern.Pattern) [][]int {
	var out [][]int
	for i, p := range pats {
		pv := v.Eval(p)
		g := slices.IndexFunc(out, func(b []int) bool { return matchset.SameSample(v.Eval(pats[b[0]]), pv) })
		if g < 0 {
			out = append(out, []int{i})
		} else {
			out[g] = append(out[g], i)
		}
	}
	return out
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

// asSets is a partition as a comparable set of member sets.
func asSets(groups [][]int) map[string]bool {
	out := make(map[string]bool, len(groups))
	for _, g := range groups {
		g = slices.Sorted(slices.Values(g))
		out[fmt.Sprint(g)] = true
	}
	return out
}

// TestSubscribeOnFreshViewMatchesLiveAssign is the differential for the
// frame a subscription is keyed in: at the instant after a refresh — by
// the doubling rule or by a forced Rebuild — Subscribe puts a pattern in
// the community whose members carry its sample on the estimator's
// current view, taken here from a second estimator fed the same stream,
// and founds one when no community does.
func TestSubscribeOnFreshViewMatchesLiveAssign(t *testing.T) {
	docs, pats := benchWorkload(256, 120)
	cfg := Config{Estimator: core.Config{Representation: core.Hashes, HashCapacity: 64, Seed: 5}}
	e := newTestEngine(t, cfg)
	ref := core.NewEstimator(cfg.Estimator)
	observed := 0
	stream := func(upTo int) {
		publishFlushed(t, e, docs[observed:upTo])
		ref.ObserveTrees(docs[observed:upTo])
		observed = upTo
	}
	// place subscribes p and checks its community against the reference.
	place := func(p *pattern.Pattern) {
		t.Helper()
		refreshes := e.counters.viewRefreshes.Load()
		id, err := e.SubscribePattern(p, "")
		if err != nil {
			t.Fatal(err)
		}
		if e.counters.viewRefreshes.Load() == refreshes && currentView(e).Docs() != observed {
			t.Fatalf("subscribe at %d docs ran on a view of %d: not the instant after a refresh", observed, currentView(e).Docs())
		}
		v := ref.View()
		pv := v.Eval(p)
		e.mu.RLock()
		defer e.mu.RUnlock()
		mine := e.byID[id].group
		for c, g := range e.groups {
			for _, s := range g.members() {
				if same := matchset.SameSample(pv, v.Eval(s.pat)); s.id != id && same != (g == mine) {
					t.Errorf("at %d docs: subscription %d in community %d, member %d of community %d carries its sample: %v",
						observed, id, slices.Index(e.groups, mine), s.id, c, same)
				}
			}
		}
	}

	stream(32)
	next := 0
	for ; next < 60; next++ { // a registry with some structure, keyed on the view of 32
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

// TestCommunitiesAreEqualSamples: at the daemon's defaults, 1000
// generated NITF patterns subscribed after 500 warm documents form the
// partition that bucketing them by sample on the engine's view makes,
// each community represented by its smallest id.
func TestCommunitiesAreEqualSamples(t *testing.T) {
	nDocs, nSubs := 500, 1000
	if raceEnabled || testing.Short() {
		nDocs, nSubs = 150, 300
	}
	docs, pats := benchWorkload(nDocs, nSubs)
	e := newTestEngine(t, Config{Estimator: core.Config{Representation: core.Hashes, HashCapacity: 1000, Seed: 1}, Threshold: 0.99})
	publishFlushed(t, e, docs)
	for _, p := range pats {
		if _, err := e.SubscribePattern(p, ""); err != nil {
			t.Fatal(err)
		}
	}
	live, groups, reps := partitionOf(e)
	want := samplePartition(currentView(e), live)
	if got, want := asSets(groups), asSets(want); !maps.Equal(got, want) {
		t.Fatalf("%d communities, bucketing by sample makes %d (or other members)", len(got), len(want))
	}
	for g, members := range groups {
		if reps[g] != slices.Min(members) {
			t.Errorf("community %d is represented by %d, not its smallest id %d", g, reps[g], slices.Min(members))
		}
	}
	if len(groups) >= len(live) || len(groups) < len(live)/4 {
		t.Fatalf("%d communities for %d subscriptions", len(groups), len(live))
	}
}

// TestPartitionIndependentOfArrivalOrder subscribes one population in
// two arrival orders on the same warmed stream: the two engines form
// one partition, as sets of the patterns' ids.
func TestPartitionIndependentOfArrivalOrder(t *testing.T) {
	docs, pats := benchWorkload(200, 300)
	order := rand.New(rand.NewSource(3)).Perm(len(pats))
	partition := func(order []int) map[string]bool {
		e := newTestEngine(t, Config{Estimator: core.Config{Representation: core.Hashes, HashCapacity: 1000, Seed: 1}})
		publishFlushed(t, e, docs)
		of := make(map[uint64]int, len(pats)) // subscription id → pattern index
		for _, i := range order {
			id, err := e.SubscribePattern(pats[i], "")
			if err != nil {
				t.Fatal(err)
			}
			of[id] = i
		}
		var groups [][]int
		for _, ids := range e.CommunityIDs() {
			var g []int
			for _, id := range ids {
				g = append(g, of[id])
			}
			groups = append(groups, g)
		}
		return asSets(groups)
	}
	inOrder := make([]int, len(pats))
	for i := range inOrder {
		inOrder[i] = i
	}
	a, b := partition(inOrder), partition(order)
	if !maps.Equal(a, b) {
		t.Fatalf("arrival order moved the partition: %d communities in order, %d shuffled", len(a), len(b))
	}
	if len(a) >= len(pats) {
		t.Fatal("every subscription is its own community: the test exercised nothing")
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

// TestSubscribeBesideRebuildPlacesOnCurrentReps races subscribes, each
// after a publish, against a goroutine re-bucketing in a loop, so views
// change under the subscribes. A subscription must commit into the
// communities as they are keyed when it commits, never as a superseded
// view keyed them: at every commit the subscription joins the community
// whose representative carries its sample on the engine's current view,
// or founds one when none does.
func TestSubscribeBesideRebuildPlacesOnCurrentReps(t *testing.T) {
	docs, pats := benchWorkload(400, 240)
	e := newTestEngine(t, Config{Estimator: core.Config{Representation: core.Hashes, HashCapacity: 32, Seed: 5}})
	byExpr := make(map[string]*pattern.Pattern, len(pats))
	for _, p := range pats {
		byExpr[p.String()] = p
	}
	var commits, bad int
	e.SetJournal(&hookJournal{subscribed: func(rec persist.Record) {
		// Inside the commit: the registry lock is held.
		commits++
		v, pv := currentView(e), currentView(e).Eval(byExpr[rec.Expr])
		want := len(e.groups)
		if _, ok := matchset.SampleKey(pv); ok {
			if g := slices.IndexFunc(e.groups, func(g *routeGroup) bool { return matchset.SameSample(v.Eval(g.rep.pat), pv) }); g >= 0 {
				want = g
			}
		}
		if rec.Group != want {
			bad++
			t.Errorf("%s committed into community %d of %d; on the current view it belongs in %d", rec.Expr, rec.Group, len(e.groups), want)
		}
	}})
	publishFlushed(t, e, docs[:20])
	var subscribers, rebuilder sync.WaitGroup
	stop := make(chan struct{})
	for w := range 2 {
		subscribers.Add(1)
		go func() {
			defer subscribers.Done()
			for i := w; i < len(pats); i += 2 {
				if _, err := e.Publish(docs[20+i]); err != nil {
					t.Error(err)
				}
				if _, err := e.SubscribePattern(pats[i], ""); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	rebuilder.Add(1)
	go func() {
		defer rebuilder.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Rebuild()
			}
		}
	}()
	subscribers.Wait()
	close(stop)
	rebuilder.Wait()
	e.mu.Lock()
	n := commits
	e.mu.Unlock()
	if n != len(pats) || bad > 0 || e.Stats().Rebuilds == 0 {
		t.Fatalf("%d commits of %d beside %d re-buckets, %d misplaced", n, len(pats), e.Stats().Rebuilds, bad)
	}
}

// TestViewCacheFollowsLiveSet: an unsubscribe takes the pattern's SEL
// evaluation out of the similarity view, so churn on a quiet stream — the
// daemon parses every subscribe, so each is a pattern the view has not
// seen — keeps the view's cache at the live set instead of growing it by
// one entry per subscribe until the wholesale clear at 8192, with
// communities and in exact mode.
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
	for name, threshold := range map[string]float64{"default": 0, "exact": 2} {
		t.Run(name, func(t *testing.T) {
			e := newTestEngine(t, Config{Estimator: core.Config{Representation: core.Hashes, HashCapacity: 1000, Seed: 1}, Threshold: threshold})
			publishFlushed(t, e, docs)
			var ids []uint64
			for _, p := range pats {
				id, err := e.SubscribePattern(p, "")
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			for i := range churn {
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
				t.Errorf("after %d churn pairs the view caches %d evaluations for %d live subscriptions", churn, got, e.Live())
			}
		})
	}
}
