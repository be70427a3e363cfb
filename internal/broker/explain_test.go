package broker

import (
	"reflect"
	"testing"
	"time"

	"treesim/internal/core"
	"treesim/internal/dtd"
	"treesim/internal/persist"
	"treesim/internal/querygen"
	"treesim/internal/xmlgen"
	"treesim/internal/xmltree"
)

// TestExplainDifferentialSingleShard is the acceptance check for
// Explain against the engine's one forest ("shard" 0): across a
// random workload, the predicted delivery set must equal — exactly, id
// for id — the deliveries a real publish of the same document produces,
// and Explain itself must leave no trace in the engine's counters.
func TestExplainDifferentialSingleShard(t *testing.T) {
	d := dtd.Media()
	docs := xmlgen.New(d, xmlgen.Calibrate(d, 100, 7)).GenerateN(140)
	subs := querygen.New(d, querygen.Defaults(13)).GenerateDistinct(96)

	e := New(Config{
		Estimator:     core.Config{Representation: core.Hashes, HashCapacity: 256, Seed: 5},
		QueueCapacity: 4096, // no drop-oldest evictions to confound the diff
	})
	defer e.Close()
	e.est.ObserveTrees(docs[:40])
	ids := make([]uint64, 0, len(subs))
	for _, p := range subs {
		id, err := e.SubscribePattern(p, "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	e.Rebuild() // settle the clustering: Explain vs Publish on one partition

	preStats := e.Stats()
	checked, matchedDocs := 0, 0
	for _, doc := range docs[40:] {
		ex, err := e.Explain(xmltree.Pack(doc))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Publish(doc)
		if err != nil {
			t.Fatal(err)
		}

		if ex.MatchedCommunities != res.Matched {
			t.Fatalf("doc %d: Explain predicted %d matched communities, publish saw %d",
				res.Seq, ex.MatchedCommunities, res.Matched)
		}
		if len(ex.Deliveries) != res.Deliveries {
			t.Fatalf("doc %d: Explain predicted %d deliveries, publish made %d",
				res.Seq, len(ex.Deliveries), res.Deliveries)
		}

		// The ground truth: which subscriptions actually drained this
		// sequence number.
		actual := map[uint64]bool{}
		for _, id := range ids {
			ds, err := e.Drain(id, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, dv := range ds {
				if dv.Doc == res.Seq {
					actual[id] = true
				}
			}
		}
		if len(actual) != len(ex.Deliveries) {
			t.Fatalf("doc %d: drained %d subscriptions, Explain predicted %d (%v)",
				res.Seq, len(actual), len(ex.Deliveries), ex.Deliveries)
		}
		for _, id := range ex.Deliveries {
			if !actual[id] {
				t.Fatalf("doc %d: Explain predicted delivery to %d, which drained nothing", res.Seq, id)
			}
		}
		checked++
		if res.Matched > 0 {
			matchedDocs++
		}
	}
	if matchedDocs == 0 {
		t.Fatalf("workload produced no matching documents across %d checks; test proves nothing", checked)
	}

	// Explain ran once per document and must not have moved a counter:
	// published documents equals publishes, filter evals doubled would
	// betray Explain counting its own representative verdicts.
	st := e.Stats()
	if got, want := st.Published-preStats.Published, uint64(checked); got != want {
		t.Fatalf("published delta %d, want %d (Explain published something?)", got, want)
	}
}

// TestBatchInstallKeepsVerdicts reinstalls the engine's own partition
// after subscribe/unsubscribe churn has left forest ids out of label
// order, so the batch install renumbers the forest under unchanged
// communities: every Explain verdict and every publish's matched and
// delivered counts must come out as before.
func TestBatchInstallKeepsVerdicts(t *testing.T) {
	d := dtd.Media()
	docs := xmlgen.New(d, xmlgen.Calibrate(d, 100, 7)).GenerateN(100)
	subs := querygen.New(d, querygen.Defaults(13)).GenerateDistinct(120)
	e := newTestEngine(t, Config{
		Estimator:     core.Config{Representation: core.Hashes, HashCapacity: 256, Seed: 5},
		QueueCapacity: 4096,
	})
	e.est.ObserveTrees(docs[:40])
	var ids []uint64
	for _, p := range subs[:80] {
		id, err := e.SubscribePattern(p, "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	e.Rebuild()
	for i, id := range ids {
		if i%4 == 0 {
			e.Unsubscribe(id)
		}
	}
	for _, p := range subs[80:] {
		if _, err := e.SubscribePattern(p, ""); err != nil {
			t.Fatal(err)
		}
	}

	type verdict struct {
		ex                  *Explanation
		matched, deliveries int
	}
	verdicts := func() []verdict {
		var vs []verdict
		for _, doc := range docs[40:] {
			ex, err := e.Explain(xmltree.Pack(doc))
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Publish(doc)
			if err != nil {
				t.Fatal(err)
			}
			ex.Shards = nil // sizes and timings, not verdicts
			vs = append(vs, verdict{ex, res.Matched, res.Deliveries})
		}
		return vs
	}
	before := verdicts()
	e.mu.RLock()
	groups, reps := e.partitionIDsLocked()
	e.mu.RUnlock()
	if err := e.Apply(persist.Record{Op: persist.OpRebuild, Groups: groups, Reps: reps}); err != nil {
		t.Fatal(err)
	}
	after := verdicts()
	matched := 0
	for i := range before {
		if !reflect.DeepEqual(before[i], after[i]) {
			t.Fatalf("doc %d: before the install %+v, after %+v", i, before[i], after[i])
		}
		matched += before[i].matched
	}
	if matched == 0 {
		t.Fatal("no document matched a community; the test proves nothing")
	}
}

// TestExplainStatsShape pins the decision-record bookkeeping: one
// verdict per community, filter evals equal to the community count,
// shard stats only for populated shards, and verdict internals
// (members, exact subset, delivery union) mutually consistent.
func TestExplainStatsShape(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	for _, expr := range []string{"/a/b", "/a[b]", "/c/d", "//e"} {
		if _, err := e.Subscribe(expr); err != nil {
			t.Fatal(err)
		}
	}
	ex, err := e.Explain(xmltree.Pack(doc(t, "a(b)")))
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Communities) == 0 || ex.FilterEvals != len(ex.Communities) {
		t.Fatalf("filter evals %d vs %d communities", ex.FilterEvals, len(ex.Communities))
	}
	if ex.DocNodes <= 0 {
		t.Fatalf("doc nodes = %d", ex.DocNodes)
	}
	total := 0
	for _, v := range ex.Communities {
		if len(v.ExactIDs) > len(v.MemberIDs) {
			t.Fatalf("community %d: more exact matches than members: %+v", v.Community, v)
		}
		if v.Matched {
			total += len(v.MemberIDs)
		}
	}
	if total != len(ex.Deliveries) {
		t.Fatalf("delivery union %d != summed matched members %d", len(ex.Deliveries), total)
	}
	seen := map[int]bool{}
	for _, ss := range ex.Shards {
		if ss.Communities == 0 {
			t.Fatalf("empty shard %d reported stats", ss.Shard)
		}
		if seen[ss.Shard] {
			t.Fatalf("shard %d reported twice", ss.Shard)
		}
		seen[ss.Shard] = true
	}
}

// TestIntrospectSnapshotsAgree cross-checks the two registry views:
// every subscription's community assignment in IntrospectSubscriptions
// must place it in that community's member list in
// IntrospectCommunities, and shard pins must agree.
func TestIntrospectSnapshotsAgree(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	for _, expr := range []string{"/a/b", "/a/b[c]", "/x//y", "/q"} {
		if _, err := e.Subscribe(expr); err != nil {
			t.Fatal(err)
		}
	}
	comms := e.IntrospectCommunities()
	subsInfo := e.IntrospectSubscriptions()
	if len(subsInfo) != 4 {
		t.Fatalf("introspected %d subscriptions, want 4", len(subsInfo))
	}
	byComm := map[int]CommunityInfo{}
	memberCount := 0
	for _, c := range comms {
		byComm[c.Community] = c
		memberCount += c.Size
		if c.Size != len(c.MemberIDs) {
			t.Fatalf("community %d: size %d but %d member ids", c.Community, c.Size, len(c.MemberIDs))
		}
	}
	if memberCount != len(subsInfo) {
		t.Fatalf("community membership covers %d subscriptions, want %d", memberCount, len(subsInfo))
	}
	for _, s := range subsInfo {
		c, ok := byComm[s.Community]
		if !ok {
			t.Fatalf("subscription %d claims community %d, which was not introspected", s.ID, s.Community)
		}
		if c.Shard != s.Shard {
			t.Fatalf("subscription %d: shard %d but its community %d pins shard %d",
				s.ID, s.Shard, s.Community, c.Shard)
		}
		found := false
		for _, m := range c.MemberIDs {
			found = found || m == s.ID
		}
		if !found {
			t.Fatalf("subscription %d missing from community %d members %v", s.ID, s.Community, c.MemberIDs)
		}
	}
}

// TestExplainTakesNoRegistryLock: Explain reads the routing table under
// the routing lock alone, as a publish does, so it answers while the
// registry lock is held exclusively — as a subscribe holds it to commit,
// or to compute its row after repeated churn.
func TestExplainTakesNoRegistryLock(t *testing.T) {
	e := newTestEngine(t, Config{})
	if _, err := e.Subscribe("/a/b"); err != nil {
		t.Fatal(err)
	}
	d := doc(t, "a(b)")
	done := make(chan *Explanation, 1)
	e.mu.Lock()
	go func() {
		ex, _ := e.Explain(xmltree.Pack(d))
		done <- ex
	}()
	select {
	case ex := <-done:
		e.mu.Unlock()
		if ex == nil || len(ex.Deliveries) != 1 {
			t.Fatalf("Explain under a held registry lock = %+v, want the one delivery", ex)
		}
	case <-time.After(5 * time.Second):
		e.mu.Unlock()
		<-done
		t.Fatal("Explain waited on the registry lock")
	}
}
