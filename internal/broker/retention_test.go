package broker

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"treesim/internal/core"
	"treesim/internal/xmltree"
)

// TestDocRingHoldsPackedBytes walks one document through the ring and
// the pin map and checks what is held at each step: the ring's own bytes
// behind a pin taken after the put, a document held by both counted
// once, and nothing once ring and pins let go.
func TestDocRingHoldsPackedBytes(t *testing.T) {
	e := New(Config{DocCache: 2})
	defer e.Close()
	r := e.docs
	doc := func(s string) *xmltree.Tree {
		tr, err := xmltree.ParseCompact(s)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b, c := doc("a(b,c(b))"), doc("x(y)"), doc("longer(label,label,label)")
	size := func(tr *xmltree.Tree) int64 { return int64(len(xmltree.Pack(tr))) }
	held := func(want int64, when string) {
		t.Helper()
		if got := r.bytes.Load(); got != want {
			t.Fatalf("%s: %d bytes retained, want %d", when, got, want)
		}
	}

	r.put(1, a, nil)
	held(size(a), "after put 1")
	r.pin(1, nil) // a publish pins after it put: the ring's bytes are the pin's
	r.pin(1, nil)
	held(size(a), "after pinning a ring document")
	if &r.get(1)[0] != &r.pinned[1].doc[0] {
		t.Error("the pin packed its own copy of a document the ring holds")
	}
	r.put(2, b, nil)
	r.put(3, c, nil) // evicts 1 from the ring; the pin keeps it
	held(size(a)+size(b)+size(c), "after the ring moved past a pinned document")
	if got := e.Document(1); got == nil || !got.Root.Equal(a.Root) {
		t.Errorf("pinned document past the ring = %v, want %v", got, a)
	}
	r.unpin(1)
	held(size(a)+size(b)+size(c), "after one of two unpins")
	r.unpin(1, 1)
	held(size(b)+size(c), "after the last unpin")
	if e.Document(1) != nil {
		t.Error("document 1 still retrievable")
	}

	r.pin(9, xmltree.Pack(a)) // recovery: nothing in the ring to reuse
	r.pin(8, nil)             // recovery of a delivery journaled without content
	held(size(a)+size(b)+size(c), "after a recovery pin")
	r.put(4, nil, nil) // the empty document evicts 2
	held(size(a)+size(c), "after an empty put")
	if e.Document(4) != nil || e.Document(0) != nil {
		t.Error("the empty document or sequence 0 reads as a tree")
	}
	r.unpin(9)
	r.put(5, b, nil)
	held(size(b), "at the end")

	var gauge strings.Builder
	if err := e.tel.WritePrometheus(&gauge); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\ntreesim_broker_docs_retained_bytes %d\n", size(b)); !strings.Contains(gauge.String(), want) {
		t.Errorf("/metrics lacks %q", want)
	}
}

// TestLiveHeapBudget holds a daemon-shaped engine at rest to a live-heap
// budget: 1000 subscriptions at the daemon's defaults, a 500-document
// warm stream, then 6000 publishes parsed from text as the daemon parses
// them, so the retention ring (4096) is full and wrapped. It reads 6.5 MB;
// with a 256-slot delivery ring per subscription it read 14 MB, with parse
// trees in the retention ring and map-backed samples too, 32 MB.
func TestLiveHeapBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("builds a 1000-subscription engine and reads the heap; not under -short or -race")
	}
	docs, subs := benchWorkload(500, 1000)
	xml := make([]string, len(docs))
	for i, d := range docs {
		s, err := xmltree.XMLString(d, false)
		if err != nil {
			t.Fatal(err)
		}
		xml[i] = s
	}
	e := New(Config{Estimator: core.Config{Representation: core.Hashes, HashCapacity: 1000, Seed: 1}})
	defer e.Close()
	e.est.ObserveTrees(docs)
	docs = nil
	for _, p := range subs {
		if _, err := e.SubscribePattern(p, ""); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6000; i++ {
		d, err := xmltree.ParseString(xml[i%len(xml)], e.cfg.Estimator.ParseOptions)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	const budget = 9 << 20
	t.Logf("live heap %.1f MB, %d objects; %.1f MB of packed documents", float64(m.HeapAlloc)/(1<<20), m.HeapObjects, float64(e.docs.bytes.Load())/(1<<20))
	if m.HeapAlloc > budget {
		t.Errorf("live heap %.1f MB, budget %d MB", float64(m.HeapAlloc)/(1<<20), budget>>20)
	}
}

// TestSteadyStateHeapBudget holds a saturated engine to a live-heap
// budget: 1000 subscriptions at Hashes of 1000 and threshold 0.99 on a
// synopsis that has seen 80,000 documents (the 500 of the workload,
// cycled), one forced re-bucket whose view keeps its Full sets and SEL
// values, then 5000 publishes parsed from text. The distinct samples
// dominated it: it read 20.7 MB with every sample and Hashes value a
// sorted []uint64, and reads 8.3 MB with them packed as uvarint gaps.
func TestSteadyStateHeapBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("feeds a 1000-subscription engine 80,000 documents and reads the heap; not under -short or -race")
	}
	docs, subs := benchWorkload(500, 1000)
	xml := make([]string, len(docs))
	for i, d := range docs {
		s, err := xmltree.XMLString(d, false)
		if err != nil {
			t.Fatal(err)
		}
		xml[i] = s
	}
	e := New(Config{Estimator: core.Config{Representation: core.Hashes, HashCapacity: 1000, Seed: 1}, Threshold: 0.99})
	defer e.Close()
	for e.est.DocsObserved() < 80000 {
		e.est.ObserveTrees(docs)
	}
	docs = nil
	for _, p := range subs {
		if _, err := e.SubscribePattern(p, ""); err != nil {
			t.Fatal(err)
		}
	}
	e.Rebuild()
	for i := 0; i < 5000; i++ {
		d, err := xmltree.ParseString(xml[i%len(xml)], e.cfg.Estimator.ParseOptions)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	const budget = 10<<20 + 512<<10
	t.Logf("live heap %.1f MB, %d objects", float64(m.HeapAlloc)/(1<<20), m.HeapObjects)
	if m.HeapAlloc > budget {
		t.Errorf("live heap %.1f MB, budget %.1f MB", float64(m.HeapAlloc)/(1<<20), float64(budget)/(1<<20))
	}
}
