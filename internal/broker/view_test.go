package broker

import (
	"testing"

	"treesim/internal/cluster"
	"treesim/internal/core"
	"treesim/internal/pattern"
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
// registry pattern besides.
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
		live := e.Live()
		v, evals := subscribe()
		if d == 2*n || d == 4*n || d == 8*n {
			if v.Docs() != d || evals != int64(live+1) {
				t.Fatalf("at %d docs: view covers %d, %d evaluations; want a new view of %d and a cold pass of %d", d, v.Docs(), evals, d, live+1)
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

// TestSubscribeOnFreshViewMatchesLiveAssign is the differential for the
// frame a row is computed in: at the instant after a refresh — by the
// doubling rule or by a forced Rebuild — Subscribe places a pattern in
// the community cluster.Assign picks over a live SimilarityRow, taken
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
		e.mu.RLock()
		live := e.patternsLocked(nil)
		want, err := cluster.FromGroups(e.cfg.Threshold, e.comms.Groups, e.comms.Reps)
		e.mu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
		g := want.Assign(ref.SimilarityRow(e.cfg.Metric, p, live))
		refreshes := e.counters.viewRefreshes.Load()
		if _, err := e.SubscribePattern(p, ""); err != nil {
			t.Fatal(err)
		}
		if e.counters.viewRefreshes.Load() == refreshes && currentView(e).Docs() != observed {
			t.Fatalf("subscribe at %d docs ran on a view of %d: not the instant after a refresh", observed, currentView(e).Docs())
		}
		e.mu.RLock()
		defer e.mu.RUnlock()
		if got := e.comms.Find(len(e.subs) - 1); got != g || len(e.comms.Groups) != len(want.Groups) {
			t.Errorf("at %d docs, %d live: subscribed into community %d of %d, live Assign picks %d of %d",
				observed, len(live), got, len(e.comms.Groups), g, len(want.Groups))
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
