package fault_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"treesim/internal/broker"
	"treesim/internal/fault"
	"treesim/internal/persist"
)

// subModel is the checker's ground truth for one subscription.
type subModel struct {
	expr string
	mode broker.DeliveryMode
	// live: false marks a tombstone — unsubscribed while the journal was
	// failed, so recovery revives it.
	live bool
	// durable: the subscribe was journaled (recovery restores it).
	durable bool
	// delivered/acked track at-least-once doc keys journaled while the
	// store was healthy — the set conservation is asserted over.
	delivered map[string]bool
	acked     map[string]bool
}

// exprs maps each subscription pattern in the pool to a probe document
// matching it and nothing else in the pool.
var exprPool = []struct{ expr, probe string }{
	{"/a/b", "<a><b/>%s</a>"},
	{"/c/d", "<c><d/>%s</c>"},
	{"//e", "<x><y><e/></y>%s</x>"},
}

func brokerCfg() broker.Config {
	return broker.Config{Threshold: 2}
}

// recoverDir opens dir and recovers an engine from it the way
// cmd/treesimd does (broker.Recover); on an empty directory that is a
// fresh engine journaling into a fresh store. The injector rides along
// so later schedule steps can fault the recovered store too.
func recoverDir(t *testing.T, dir string, fsys persist.FS) (*broker.Engine, *persist.Store) {
	t.Helper()
	store, err := persist.Open(dir, persist.Options{FS: fsys, SyncEveryAppend: true})
	if err != nil {
		t.Fatalf("recover open: %v", err)
	}
	eng, _, err := broker.Recover(brokerCfg(), store)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return eng, store
}

func liveIDs(eng *broker.Engine) []uint64 {
	var ids []uint64
	for _, g := range eng.CommunityIDs() {
		ids = append(ids, g...)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestCrashSchedules replays seeded random interleavings of
// {subscribe, unsubscribe, publish+drain+ack, snapshot, inject disk
// fault, crash, recover} against a ground-truth model and asserts,
// after every recovery: the durable subscription set is restored
// exactly, routing matches the model (each probe reaches exactly the
// matching live subscriptions), acked at-least-once deliveries are
// never redelivered, and unacked ones always are — ledger
// conservation. Any failing seed reproduces exactly:
//
//	go test ./internal/fault -run TestCrashSchedules -seedstart N
func TestCrashSchedules(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runCrashSchedule(t, seed)
		})
	}
}

func runCrashSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()

	inj := fault.NewInjector()
	fsys := fault.NewFS(inj)
	// recoverDir opens the store with SyncEveryAppend so a sync failpoint
	// fires on the very next journaled mutation, keeping the schedule
	// deterministic.
	eng, store := recoverDir(t, dir, fsys)

	model := map[uint64]*subModel{} // live subscriptions, ground truth
	faulted := false
	docN := 0

	// sortedIDs keeps every model walk deterministic for a given seed —
	// map iteration order must never touch the rng stream.
	sortedIDs := func() []uint64 {
		ids := make([]uint64, 0, len(model))
		for id := range model {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}

	subscribe := func() {
		pick := exprPool[rng.Intn(len(exprPool))]
		mode := broker.AtMostOnce
		if rng.Intn(2) == 0 {
			mode = broker.AtLeastOnce
		}
		id, err := eng.SubscribeOpts(pick.expr, broker.SubscribeOptions{Mode: mode})
		if faulted && mode == broker.AtLeastOnce {
			if !errors.Is(err, broker.ErrDegraded) {
				t.Fatalf("at-least-once subscribe on degraded engine: id=%d err=%v, want ErrDegraded", id, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("subscribe: %v", err)
		}
		model[id] = &subModel{expr: pick.expr, mode: mode, live: true, durable: !faulted,
			delivered: map[string]bool{}, acked: map[string]bool{}}
	}

	unsubscribe := func() {
		var live []uint64
		for _, id := range sortedIDs() {
			if model[id].live {
				live = append(live, id)
			}
		}
		if len(live) == 0 {
			return
		}
		id := live[rng.Intn(len(live))]
		if !eng.Unsubscribe(id) {
			t.Fatalf("unsubscribe %d: not live", id)
		}
		if faulted && model[id].durable {
			// The removal was not journaled; recovery resurrects a
			// durable subscription, so keep tracking it under a
			// tombstone rather than forgetting its ledger.
			model[id].live = false
		} else {
			delete(model, id)
		}
	}

	publish := func() {
		pick := exprPool[rng.Intn(len(exprPool))]
		docN++
		uniq := fmt.Sprintf("<m%d/>", docN)
		doc := parseDoc(t, fmt.Sprintf(pick.probe, uniq))
		key := doc.Clone().Canonicalize().String()
		if _, err := eng.Publish(doc); err != nil {
			t.Fatalf("publish: %v", err)
		}
		eng.Flush()
		// Drain every live subscription and check routing equivalence:
		// exactly the subs whose expr matches the probe receive it.
		for _, id := range sortedIDs() {
			m := model[id]
			if !m.live {
				continue
			}
			want := m.expr == pick.expr
			r, err := eng.DrainBatch(id, 0, 0)
			if err != nil {
				t.Fatalf("drain %d: %v", id, err)
			}
			got := false
			var cursor uint64
			for _, d := range r.Deliveries {
				tree := eng.Document(d.Doc)
				if tree == nil {
					t.Fatalf("sub %d: doc %d not retrievable", id, d.Doc)
				}
				k := tree.Clone().Canonicalize().String()
				if k == key {
					got = true
				}
				cursor = d.Cursor
				if m.mode == broker.AtLeastOnce && !faulted {
					m.delivered[k] = true
				}
			}
			if got != want {
				t.Fatalf("routing divergence (seed %d, doc %d): sub %d (%s) got=%v want=%v", seed, docN, id, m.expr, got, want)
			}
			if m.mode == broker.AtLeastOnce && len(r.Deliveries) > 0 && rng.Intn(10) < 7 {
				if _, err := eng.Ack(id, cursor); err != nil {
					t.Fatalf("ack %d: %v", id, err)
				}
				if !faulted {
					for k := range m.delivered {
						if !m.acked[k] {
							m.acked[k] = true
						}
					}
				}
			}
		}
	}

	snapshot := func() {
		if faulted {
			return
		}
		if err := eng.WriteSnapshot(store, 0, 0); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
	}

	injectFault := func() {
		if faulted {
			return
		}
		points := []string{fault.PointWALWrite, fault.PointWALSync}
		modes := []fault.Mode{fault.Fail, fault.Short, fault.NoSpace}
		point := points[rng.Intn(len(points))]
		inj.Arm(point, fault.Rule{Mode: modes[rng.Intn(len(modes))]})
		// Trigger deterministically with a throwaway at-most-once
		// subscribe: committed in memory, its journal append fires the
		// failpoint and latches the store.
		id, err := eng.Subscribe("/zz/trigger")
		if err != nil {
			t.Fatalf("trigger subscribe: %v", err)
		}
		if fired := inj.Fired(); len(fired) == 0 {
			// The point may not have been hit (sync point with no
			// sync-every-append): fall back to an explicit append check.
			if _, err := store.Append(persist.Record{Op: persist.OpUnsubscribe, ID: 0}); err == nil {
				t.Fatal("fault armed but store still healthy after append")
			}
		}
		if !store.Failed() {
			t.Fatal("store not failed after fault fired")
		}
		if !eng.Degraded() {
			t.Fatal("engine not degraded after journal error")
		}
		// A sync-point fault means the frame itself hit the file intact:
		// this harness crashes the process, not the power, so the record
		// replays on reopen. Write-point faults leave nothing (fail,
		// enospc) or a torn frame that scanWAL truncates (short).
		model[id] = &subModel{expr: "/zz/trigger", mode: broker.AtMostOnce, live: true,
			durable:   point == fault.PointWALSync,
			delivered: map[string]bool{}, acked: map[string]bool{}}
		faulted = true
	}

	crashRecover := func() {
		eng.Close()
		store.Close()
		eng, store = recoverDir(t, dir, fsys)
		faulted = false

		// 1. The durable subscription set is restored exactly.
		next := map[uint64]*subModel{}
		var wantIDs []uint64
		for id, m := range model {
			if m.durable {
				m.live = true // tombstones revive: the unsub was lost
				next[id] = m
				wantIDs = append(wantIDs, id)
			}
		}
		model = next
		sort.Slice(wantIDs, func(i, j int) bool { return wantIDs[i] < wantIDs[j] })
		gotIDs := liveIDs(eng)
		if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
			t.Fatalf("recovered live set %v, want %v (fired: %v)", gotIDs, wantIDs, inj.Fired())
		}

		// 2. Ledger conservation per at-least-once subscription: every
		// journaled-but-unacked delivery comes back exactly once, and
		// nothing acked ever does.
		for _, id := range sortedIDs() {
			m := model[id]
			if m.mode != broker.AtLeastOnce {
				continue
			}
			got := map[string]int{}
			for {
				r, err := eng.DrainBatch(id, 0, 0)
				if err != nil {
					t.Fatalf("post-recovery drain %d: %v", id, err)
				}
				if len(r.Deliveries) == 0 {
					break
				}
				var cursor uint64
				for _, d := range r.Deliveries {
					tree := eng.Document(d.Doc)
					if tree == nil {
						t.Fatalf("post-recovery doc %d not retrievable", d.Doc)
					}
					got[tree.Clone().Canonicalize().String()]++
					cursor = d.Cursor
				}
				if _, err := eng.Ack(id, cursor); err != nil {
					t.Fatalf("post-recovery ack %d: %v", id, err)
				}
			}
			for k := range m.acked {
				if got[k] > 0 {
					t.Fatalf("seed %d: acked doc %q redelivered to sub %d", seed, k, id)
				}
			}
			for k := range m.delivered {
				if m.acked[k] {
					continue
				}
				if got[k] != 1 {
					t.Fatalf("seed %d: unacked doc %q delivered %d times to sub %d after recovery, want 1", seed, k, got[k], id)
				}
			}
			// Everything is acked now; reset the ledger.
			for k := range m.delivered {
				m.acked[k] = true
			}
		}
	}

	const ops = 70
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(20); {
		case r < 6:
			subscribe()
		case r < 8:
			if len(model) > 0 {
				unsubscribe()
			}
		case r < 15:
			publish()
		case r < 17:
			snapshot()
		case r < 18:
			injectFault()
		default:
			crashRecover()
		}
	}
	crashRecover() // end every schedule with a verified recovery
	eng.Close()
	store.Close()
}
