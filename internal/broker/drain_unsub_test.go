package broker

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treesim/internal/core"
	"treesim/internal/pattern"
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

// TestChurnHookObservesMutations: the hook sees every subscribe and
// unsubscribe with the live count after it, and nothing else — a
// re-bucket moves no live pattern, so Rebuild fires no event.
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
	if want := []ChurnEvent{{Live: 1}, {Live: 2}, {Live: 3}, {Live: 2}}; !slices.Equal(events, want) {
		t.Fatalf("events %+v, want %+v (3 subscribes, 1 unsubscribe, none for Rebuild)", events, want)
	}
}

// TestLivePatterns: the live population in id order, each subscription's
// own *pattern.Pattern across calls and re-buckets, and an unsubscribed
// pattern gone.
func TestLivePatterns(t *testing.T) {
	e := New(Config{Estimator: core.Config{Representation: core.Sets, Seed: 1}})
	defer e.Close()
	if _, err := e.Publish(doc(t, "a(b)")); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	var pats []*pattern.Pattern
	var ids []uint64
	for _, expr := range []string{"/a", "/a/b", "//b", "/z"} {
		p := pattern.MustParse(expr)
		id, err := e.SubscribePattern(p, expr)
		if err != nil {
			t.Fatal(err)
		}
		pats, ids = append(pats, p), append(ids, id)
	}
	if got := e.LivePatterns(); !slices.Equal(got, pats) {
		t.Fatalf("live patterns %v, want %v in id order", got, pats)
	}
	e.Unsubscribe(ids[1])
	e.Rebuild()
	if got, want := e.LivePatterns(), []*pattern.Pattern{pats[0], pats[2], pats[3]}; !slices.Equal(got, want) {
		t.Fatalf("after unsubscribing /a/b and a re-bucket: %v, want %v", got, want)
	}
}
