package broker

import (
	"math/rand"
	"reflect"
	"testing"

	"treesim/internal/persist"
)

// placed is one community as its record shows it: representative and
// members, at its positional index.
type placed struct {
	Rep     uint64
	Members []uint64
}

// placement is every community as introspection shows it, in index
// order.
func placement(e *Engine) []placed {
	var out []placed
	for _, c := range e.IntrospectCommunities() {
		out = append(out, placed{c.RepID, c.MemberIDs})
	}
	return out
}

// replayed is a fresh engine that has applied recs.
func replayed(t *testing.T, recs []persist.Record) *Engine {
	t.Helper()
	e := newTestEngine(t, Config{Rebuild: Never{}})
	for _, r := range recs {
		if err := e.Apply(r); err != nil {
			t.Fatalf("replay %s %d: %v", r.Op, r.ID, err)
		}
	}
	return e
}

// subRec journals a subscription placed in community g, as a subscribe
// commit does.
func subRec(id uint64, expr string, g int, mode DeliveryMode) persist.Record {
	return persist.Record{Op: persist.OpSubscribe, ID: id, Expr: expr, Group: g, Mode: uint8(mode)}
}

// TestUnsubscribePromotesSmallestIDAndShiftsIndices: a leaving
// representative's successor is the smallest surviving id, whichever
// mode's list it is on; a community that loses its last member
// dissolves, and every later community's index — in introspection, in
// deliveries and in the journal's next placement — moves down by one.
func TestUnsubscribePromotesSmallestIDAndShiftsIndices(t *testing.T) {
	initial := []persist.Record{
		subRec(1, "/a", 0, AtMostOnce),
		subRec(2, "/a/b", 0, AtLeastOnce),
		subRec(3, "/c", 1, AtMostOnce),
		subRec(4, "//a", 0, AtMostOnce),
		subRec(5, "/d", 2, AtMostOnce),
	}
	e := replayed(t, initial)
	j := new(memJournal)
	e.SetJournal(j)
	want := []placed{{1, []uint64{1, 2, 4}}, {3, []uint64{3}}, {5, []uint64{5}}}
	if got := placement(e); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed placement %v, want %v", got, want)
	}

	e.Unsubscribe(1) // the representative: 2, on the at-least-once list, succeeds
	checkForests(t, e, doc(t, "a(b)"), doc(t, "a"))
	want[0] = placed{2, []uint64{2, 4}}
	if got := placement(e); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the representative left: %v, want %v", got, want)
	}
	if res, _ := e.Publish(doc(t, "a")); res.Matched != 0 {
		t.Fatalf("a(…) without b still routes to community 0 under /a/b: %+v", res)
	}

	e.Unsubscribe(3) // a singleton: community 1 dissolves, /d moves to 1
	checkForests(t, e, doc(t, "d"))
	want = []placed{want[0], {5, []uint64{5}}}
	if got := placement(e); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the dissolve: %v, want %v", got, want)
	}
	if res, _ := e.Publish(doc(t, "d")); res.Matched != 1 {
		t.Fatalf("publish d: %+v", res)
	}
	if ds, err := e.Drain(5, 0, 0); err != nil || len(ds) != 1 || ds[0].Community != 1 {
		t.Fatalf("delivery to /d after the shift: %+v, %v; want community 1", ds, err)
	}
	for _, s := range e.IntrospectSubscriptions() {
		if s.ID == 5 && s.Community != 1 {
			t.Fatalf("introspection puts 5 in community %d, want 1", s.Community)
		}
	}
	if _, err := e.Subscribe("//zzz"); err != nil {
		t.Fatal(err)
	}
	recs := j.records()
	if last := recs[len(recs)-1]; last.Op != persist.OpSubscribe || last.Group != 2 {
		t.Fatalf("a founder after the shift journaled %+v, want community 2", last)
	}
	if got, want := placement(replayed(t, append(initial, recs...))), placement(e); !reflect.DeepEqual(got, want) {
		t.Errorf("replaying the journal: %v, want %v", got, want)
	}
}

// TestDeliveryModeRejected: a delivery mode that is neither contract
// is refused at every entry point that takes one, and nothing commits.
func TestDeliveryModeRejected(t *testing.T) {
	const bad = DeliveryMode(2)
	t.Run("subscribe", func(t *testing.T) {
		e := newTestEngine(t, Config{})
		if id, err := e.SubscribeOpts("/a", SubscribeOptions{Mode: bad}); err == nil || e.Live() != 0 {
			t.Fatalf("subscribed %d in mode %d: %v", id, bad, err)
		}
	})
	t.Run("restore", func(t *testing.T) {
		st := &State{Format: stateFormat, Subs: []SubEntry{{ID: 1, Expr: "/a", Mode: uint8(bad)}}, Groups: [][]int{{0}}, Reps: []int{0}, NextID: 1}
		if e, err := Restore(Config{}, st); err == nil {
			e.Close()
			t.Fatalf("restored a subscription in mode %d", bad)
		}
	})
	t.Run("apply", func(t *testing.T) {
		e := newTestEngine(t, Config{})
		if err := e.Apply(subRec(1, "/a", 0, bad)); err == nil || e.Live() != 0 {
			t.Fatalf("replayed a subscription in mode %d: %v", bad, err)
		}
	})
}

// restoredState is a valid snapshot: three subscriptions, one of them
// at-least-once, in two communities whose members are listed unsorted.
func restoredState() *State {
	subs := []SubEntry{{ID: 1, Expr: "/a"}, {ID: 2, Expr: "/b"}, {ID: 3, Expr: "/c", Mode: uint8(AtLeastOnce)}}
	return &State{Format: stateFormat, Subs: subs, Groups: [][]int{{2, 0}, {1}}, Reps: []int{0, 1}, NextID: 3}
}

// restored is an engine restored from restoredState, checked against
// the placement that state describes.
func restored(t *testing.T) (*Engine, []placed) {
	t.Helper()
	e, err := Restore(Config{Rebuild: Never{}}, restoredState())
	if err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	checkForests(t, e)
	want := []placed{{1, []uint64{1, 3}}, {2, []uint64{2}}}
	if got := placement(e); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored %v, want %v", got, want)
	}
	return e, want
}

// TestMalformedPartitionsRejected: Restore and Apply's OpSubscribe and
// OpRebuild accept only a partition of the live registry — every
// subscription in exactly one nonempty community with a member for a
// representative, and a journaled placement no further than the next
// community — and a rejected record leaves the engine as it was.
func TestMalformedPartitionsRejected(t *testing.T) {
	e, want := restored(t)

	for _, tc := range []struct {
		name   string
		groups [][]int
		reps   []int
	}{
		{"rep count mismatch", [][]int{{0, 2}, {1}}, []int{0}},
		{"empty group", [][]int{{0, 2}, {1}, {}}, []int{0, 1, 1}},
		{"duplicate item", [][]int{{0, 1, 2}, {1}}, []int{0, 1}},
		{"missing item", [][]int{{0}, {1}}, []int{0, 1}},
		{"rep not member", [][]int{{0, 2}, {1}}, []int{0, 0}},
		{"negative index", [][]int{{-1, 0, 2}, {1}}, []int{0, 1}},
		{"index past the registry", [][]int{{0, 2, 3}, {1}}, []int{0, 1}},
	} {
		bad := restoredState()
		bad.Groups, bad.Reps = tc.groups, tc.reps
		if e, err := Restore(Config{}, bad); err == nil {
			e.Close()
			t.Errorf("restore, %s: no error", tc.name)
		}
	}

	for _, tc := range []struct {
		name   string
		groups [][]uint64
		reps   []uint64
	}{
		{"rep count mismatch", [][]uint64{{1, 3}, {2}}, []uint64{1}},
		{"empty group", [][]uint64{{1, 3}, {2}, {}}, []uint64{1, 2, 2}},
		{"duplicate id", [][]uint64{{1, 2, 3}, {2}}, []uint64{1, 2}},
		{"missing id", [][]uint64{{1}, {2}}, []uint64{1, 2}},
		{"rep not member", [][]uint64{{1, 3}, {2}}, []uint64{1, 1}},
		{"unknown id", [][]uint64{{1, 3, 9}, {2}}, []uint64{1, 2}},
	} {
		if err := e.Apply(persist.Record{Op: persist.OpRebuild, Groups: tc.groups, Reps: tc.reps}); err == nil {
			t.Errorf("apply rebuild, %s: no error", tc.name)
		}
	}
	for _, g := range []int{-1, 3} {
		if err := e.Apply(subRec(4, "/d", g, AtMostOnce)); err == nil {
			t.Errorf("apply subscribe into community %d of 2: no error", g)
		}
	}
	if got := placement(e); !reflect.DeepEqual(got, want) || e.Live() != 3 {
		t.Fatalf("rejected records changed the engine: %v, %d live", got, e.Live())
	}
}

// TestRestoredPartitionThenMaintain: a restored clustering keeps
// working — placements up to the next community, a representative
// leaving, a rebuild record — with the record invariants after each.
func TestRestoredPartitionThenMaintain(t *testing.T) {
	e, _ := restored(t)
	for _, r := range []persist.Record{
		subRec(4, "/a/x", 0, AtMostOnce),
		subRec(5, "/e", 2, AtLeastOnce),
		{Op: persist.OpUnsubscribe, ID: 1},
		{Op: persist.OpRebuild, Groups: [][]uint64{{2, 3}, {4, 5}}, Reps: []uint64{3, 5}},
	} {
		if err := e.Apply(r); err != nil {
			t.Fatalf("apply %s %d: %v", r.Op, r.ID, err)
		}
		checkForests(t, e)
	}
	want := []placed{{3, []uint64{2, 3}}, {5, []uint64{4, 5}}}
	if got := placement(e); !reflect.DeepEqual(got, want) {
		t.Fatalf("maintained %v, want %v", got, want)
	}
}

// TestChurnReplaysToSamePlacement is a seeded churn run — subscribes in
// both modes, unsubscribes of representatives, singletons and plain
// members, forced rebuilds — that after every step replays the journal
// so far into a fresh engine and requires the same communities at the
// same indices, with the same representatives and members. Every
// community is nonempty and CommunityIDs lists them largest first.
func TestChurnReplaysToSamePlacement(t *testing.T) {
	steps := 160
	if raceEnabled || testing.Short() {
		steps = 60
	}
	docs, pats := benchWorkload(120, steps)
	e := newTestEngine(t, Config{Rebuild: Never{}})
	j := new(memJournal)
	e.SetJournal(j)
	publishFlushed(t, e, docs)
	rng := rand.New(rand.NewSource(37))
	next := 0
	kinds := map[string]int{}
	for step := range steps {
		cs := e.IntrospectCommunities()
		pick := func(keep func(CommunityInfo) bool) (uint64, bool) {
			var ids []uint64
			for _, c := range cs {
				if keep(c) {
					ids = append(ids, c.RepID)
				}
			}
			if len(ids) == 0 {
				return 0, false
			}
			return ids[rng.Intn(len(ids))], true
		}
		kind := "subscribe"
		switch r := rng.Intn(10); {
		case r == 0:
			kind = "rebuild"
			e.Rebuild()
		case r <= 2 && len(cs) > 3:
			if id, ok := pick(func(c CommunityInfo) bool { return c.Size > 1 }); ok {
				kind = "representative"
				e.Unsubscribe(id)
			}
		case r <= 3 && len(cs) > 3:
			if id, ok := pick(func(c CommunityInfo) bool { return c.Size == 1 }); ok {
				kind = "singleton"
				e.Unsubscribe(id)
			}
		case r <= 4 && len(cs) > 3:
			c := cs[rng.Intn(len(cs))]
			kind = "member"
			e.Unsubscribe(c.MemberIDs[len(c.MemberIDs)-1])
		}
		if kind == "subscribe" {
			mode := DeliveryMode(rng.Intn(2))
			if _, err := e.SubscribeOpts(pats[next].String(), SubscribeOptions{Mode: mode}); err != nil {
				t.Fatal(err)
			}
			next++
		}
		kinds[kind]++
		checkForests(t, e)
		if got, want := placement(replayed(t, j.records())), placement(e); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): replay places %v, the engine %v", step, kind, got, want)
		}
		ids := e.CommunityIDs()
		for i := 1; i < len(ids); i++ {
			if len(ids[i]) > len(ids[i-1]) {
				t.Fatalf("step %d: CommunityIDs not largest first: %v", step, ids)
			}
		}
	}
	for _, k := range []string{"subscribe", "rebuild", "representative", "singleton", "member"} {
		if kinds[k] == 0 {
			t.Errorf("the run made no %s step: %v", k, kinds)
		}
	}
}
