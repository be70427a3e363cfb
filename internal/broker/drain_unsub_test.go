package broker

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treesim/internal/core"
	"treesim/internal/xmltree"
)

// TestDrainAfterUnsubscribeIsNotFound: once Unsubscribe returns, a new
// Drain on the same id resolves to a definitive ErrNotFound — not a
// hang, not an empty success.
func TestDrainAfterUnsubscribeIsNotFound(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	id, err := e.Subscribe("/x")
	if err != nil {
		t.Fatal(err)
	}
	if !e.Unsubscribe(id) {
		t.Fatal("unsubscribe reported unknown id")
	}
	if _, err := e.Drain(id, 10, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("drain after unsubscribe: %v, want ErrNotFound", err)
	}
	// A long-polling drain must not block once the id is gone either.
	start := time.Now()
	if _, err := e.Drain(id, 10, 5*time.Second); !errors.Is(err, ErrNotFound) {
		t.Fatalf("long-poll drain after unsubscribe: %v, want ErrNotFound", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("long-poll drain blocked on a dead subscription")
	}
}

// TestUnsubscribeWakesLongPollingDrain: a drain parked on an empty
// queue returns promptly when the subscription is removed under it.
func TestUnsubscribeWakesLongPollingDrain(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	id, err := e.Subscribe("/x")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.Drain(id, 10, 30*time.Second)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the drain park
	if !e.Unsubscribe(id) {
		t.Fatal("unsubscribe failed")
	}
	select {
	case err := <-done:
		// The drain raced the unsubscribe: either it looked up the queue
		// first (empty result, nil error — the queue closed under it) or
		// after removal (not found). Both are definitive; blocking until
		// the 30s deadline is the bug this guards against.
		if err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatalf("drain woken by unsubscribe returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain still parked long after unsubscribe")
	}
}

// TestConcurrentDrainUnsubscribe hammers Drain against Unsubscribe on
// the same ids (run with -race): every drain must return either
// deliveries or ErrNotFound, and after each id's unsubscribe commits,
// the next drain on it must be ErrNotFound.
func TestConcurrentDrainUnsubscribe(t *testing.T) {
	e := New(Config{QueueCapacity: 64, PrecisionSample: -1})
	defer e.Close()
	tree, err := xmltree.ParseString("<x><y/></x>", xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const consumers = 16
	ids := make([]uint64, consumers)
	var unsubscribed [consumers]atomic.Bool
	for i := range ids {
		if ids[i], err = e.Subscribe("/x"); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Publisher keeps queues busy.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := e.Publish(tree); err != nil {
					return
				}
			}
		}
	}()
	// Drainers loop over every consumer.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, id := range ids {
					committed := unsubscribed[i].Load()
					_, err := e.Drain(id, 8, time.Millisecond)
					if err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("drain %d: unexpected error %v", id, err)
						return
					}
					if committed && err == nil {
						t.Errorf("drain %d succeeded after unsubscribe committed", id)
						return
					}
				}
			}
		}()
	}
	// Unsubscribe each consumer partway through the storm.
	for i := range ids {
		time.Sleep(2 * time.Millisecond)
		if !e.Unsubscribe(ids[i]) {
			t.Errorf("unsubscribe %d reported unknown id", ids[i])
		}
		unsubscribed[i].Store(true)
		if _, err := e.Drain(ids[i], 1, 0); !errors.Is(err, ErrNotFound) {
			t.Errorf("drain %d right after unsubscribe: %v, want ErrNotFound", ids[i], err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestChurnHookObservesMutations: the hook sees every commit with
// consistent live numbers and a Rebuilt event for a re-bucket.
func TestChurnHookObservesMutations(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	var mu sync.Mutex
	var events []ChurnEvent
	e.SetChurnHook(func(ev ChurnEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	var ids []uint64
	for i := 0; i < 3; i++ {
		id, err := e.Subscribe("/a/b")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	e.Unsubscribe(ids[0])
	e.Rebuild()
	mu.Lock()
	defer mu.Unlock()
	if len(events) < 4 {
		t.Fatalf("saw %d events, want at least 4 (3 subscribes + 1 unsubscribe)", len(events))
	}
	if events[0].Live != 1 || events[0].Rebuilt {
		t.Fatalf("first event %+v, want live=1", events[0])
	}
	rebuilt := false
	for _, ev := range events {
		rebuilt = rebuilt || ev.Rebuilt
	}
	if !rebuilt {
		t.Fatal("Rebuild fired no Rebuilt event")
	}
}

// TestCommunityViewsSnapshot: views expose representative and members
// consistently with CommunityIDs.
func TestCommunityViewsSnapshot(t *testing.T) {
	e := New(Config{Estimator: core.Config{Representation: core.Sets, Seed: 1}})
	defer e.Close()
	if _, err := e.Publish(doc(t, "a(b)")); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	for _, expr := range []string{"/a", "/a/b", "//b"} { // one match set: one community
		if _, err := e.Subscribe(expr); err != nil {
			t.Fatal(err)
		}
	}
	views := e.CommunityViews()
	if len(views) != 1 {
		t.Fatalf("%d views, want 1 community", len(views))
	}
	v := views[0]
	if len(v.Members) != 3 || len(v.Exprs) != 3 {
		t.Fatalf("view has %d members / %d exprs, want 3/3", len(v.Members), len(v.Exprs))
	}
	if v.RepExpr != "/a" {
		t.Fatalf("representative %q, want the first subscription /a", v.RepExpr)
	}
	for i, m := range v.Members {
		if m.String() != v.Exprs[i] {
			t.Fatalf("member %d pattern %q does not match expr %q", i, m.String(), v.Exprs[i])
		}
	}
}
