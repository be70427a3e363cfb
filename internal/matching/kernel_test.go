package matching

import (
	"math/rand"
	"testing"

	"treesim/internal/dtd"
	"treesim/internal/pattern"
	"treesim/internal/querygen"
	"treesim/internal/xmltree"
)

// unfiredWorkload is NITF documents and patterns plus xCBL patterns no
// NITF document can raise a single forest bit for: no wildcards, and no
// label the NITF schema knows.
func unfiredWorkload(tb testing.TB, nDocs, nFired, nUnfired int) (docs []*xmltree.Tree, fired, unfired []*pattern.Pattern) {
	tb.Helper()
	docs, fired = benchWorkload(nDocs, nFired)
	nitf := map[string]bool{}
	for _, name := range dtd.NITFLike().Names() {
		nitf[name] = true
	}
	opts := querygen.Defaults(47)
	opts.WildcardProb = 0
	var shares func(n *pattern.Node) bool
	shares = func(n *pattern.Node) bool {
		if nitf[n.Label] {
			return true
		}
		for _, c := range n.Children {
			if shares(c) {
				return true
			}
		}
		return false
	}
	for _, p := range querygen.New(dtd.XCBLLike(), opts).GenerateDistinct(nUnfired + nUnfired/4) {
		if len(unfired) < nUnfired && !shares(p.Root) {
			unfired = append(unfired, p)
		}
	}
	if len(unfired) < nUnfired {
		tb.Fatalf("only %d of %d xCBL patterns share no label with NITF", len(unfired), nUnfired)
	}
	return docs, fired, unfired
}

// TestMatchWorkIgnoresUnfiredPatterns pins the kernel's cost model
// without a clock: registered patterns that a document raises no bit
// for add no frame work to its match. (A dense kernel clears, unites
// and scans the whole universe per document node: 9x here.)
func TestMatchWorkIgnoresUnfiredPatterns(t *testing.T) {
	docs, fired, unfired := unfiredWorkload(t, 1, 1000, 8000)
	doc := docs[0]
	f := NewForest()
	for _, p := range fired {
		f.Add(p)
	}
	work := func() (words, matched int) {
		fr := &FrameStack{}
		ms := f.MatchOn(fr, doc)
		defer ms.Release()
		return fr.WordsTouched(), ms.Count()
	}
	words, matched := work()
	if words == 0 {
		t.Fatal("counter counts nothing")
	}
	nodes := f.NodeCount()
	for _, p := range unfired {
		f.Add(p)
	}
	if f.NodeCount() < 5*nodes {
		t.Fatalf("forest grew %d -> %d nodes; the extra patterns should dwarf the fired ones", nodes, f.NodeCount())
	}
	words2, matched2 := work()
	if matched2 != matched {
		t.Fatalf("matches moved %d -> %d: the extra patterns fire", matched, matched2)
	}
	if words2 != words {
		t.Fatalf("frame words touched %d -> %d with %d unfired patterns registered", words, words2, len(unfired))
	}
}

// TestPooledFramesAcrossGrowthAndReuse runs every match on ONE frame
// stack while the forest's universe grows, ids and handles are recycled
// and documents get deeper, so each match starts on the previous one's
// leftovers: stale dirty lists, frames shorter than the universe, slots
// the last document never reached.
func TestPooledFramesAcrossGrowthAndReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	labels := []string{"a", "b", "c", "d", "e"}
	var randDoc func(depth, maxDepth int) *xmltree.Node
	randDoc = func(depth, maxDepth int) *xmltree.Node {
		n := &xmltree.Node{Label: labels[rng.Intn(len(labels))]}
		if depth < maxDepth {
			for i := 0; i < 1+rng.Intn(2); i++ {
				n.Children = append(n.Children, randDoc(depth+1, maxDepth))
			}
		}
		return n
	}
	var randPat func(depth int) *pattern.Node
	randPat = func(depth int) *pattern.Node {
		n := &pattern.Node{Label: labels[rng.Intn(len(labels))]}
		switch r := rng.Intn(10); {
		case r == 0:
			n.Label = pattern.Wildcard
		case r == 1 && depth < 4:
			// "//" takes exactly one non-"//" child.
			n.Label = pattern.Descendant
			c := randPat(depth + 1)
			for c.Label == pattern.Descendant {
				c = c.Children[0]
			}
			n.Children = []*pattern.Node{c}
			return n
		}
		if depth < 4 {
			for i := 0; i < rng.Intn(3); i++ {
				n.Children = append(n.Children, randPat(depth+1))
			}
		}
		return n
	}

	f := NewForest()
	fr := &FrameStack{}
	live := map[int]*pattern.Pattern{}
	for round := 0; round < 300; round++ {
		// Grow in bursts (universe crosses word boundaries between two
		// matches), shrink in bursts (ids and handles come back).
		switch {
		case round%40 < 25:
			for i := 0; i < 1+rng.Intn(8); i++ {
				p := &pattern.Pattern{Root: &pattern.Node{Label: pattern.Root, Children: []*pattern.Node{randPat(0)}}}
				if p.Validate() != nil {
					t.Fatalf("generator built an invalid pattern %s", p)
				}
				live[f.Add(p)] = p
			}
		default:
			for h := range live {
				if rng.Intn(3) == 0 {
					f.Remove(h)
					delete(live, h)
				}
			}
		}
		doc := &xmltree.Tree{Root: randDoc(0, 1+round/30)}
		ms := f.MatchOn(fr, doc)
		for h, p := range live {
			if got, want := ms.Has(h), pattern.Matches(doc, p); got != want {
				t.Fatalf("round %d: doc %s pattern %s: forest = %v, oracle = %v", round, doc, p, got, want)
			}
		}
		if ms.Count() > len(live) {
			t.Fatalf("round %d: %d matches among %d live patterns", round, ms.Count(), len(live))
		}
		ms.Release()
	}
	if f.NodeCount() < 128 {
		t.Fatalf("universe only reached %d nodes; the test never left two words", f.NodeCount())
	}
}

// TestFirstKidLoopExaminesOnlyAdmissibleCandidates pins the label-keyed
// index's cost model without a clock: on the NITF workload, every
// candidate the kernel examines is one the document node's label admits
// — accepted or rejected on its remaining kids, never on its label —
// and every list it reads holds one, while a label-blind scan of the
// same lists would also load the label-rejected ones (most of them).
// It holds on ids in label order (after a batch install) and on ids
// churned out of it.
func TestFirstKidLoopExaminesOnlyAdmissibleCandidates(t *testing.T) {
	docs, subs := benchWorkload(8, 1000)
	f := NewForest()
	hs := f.Replace(nil, subs)
	checkIndex(t, f)
	count := func(stage string) {
		var examined, accepted, kidRejected, labelRejected int
		for _, d := range docs {
			fr := &FrameStack{}
			f.MatchOn(fr, d).Release()
			a, k, l, lists := f.CandidateWork(d)
			if fr.Examined() != a+k {
				t.Errorf("%s: examined %d candidates; %d accepted + %d kid-rejected are label-admissible", stage, fr.Examined(), a, k)
			}
			if fr.Lists() != lists {
				t.Errorf("%s: read %d candidate lists; %d hold an admissible candidate", stage, fr.Lists(), lists)
			}
			examined, accepted, kidRejected, labelRejected = examined+fr.Examined(), accepted+a, kidRejected+k, labelRejected+l
		}
		if accepted == 0 || kidRejected == 0 || labelRejected < examined {
			t.Fatalf("%s: workload exercises too little: %d accepted, %d kid-rejected, %d label-rejected", stage, accepted, kidRejected, labelRejected)
		}
		t.Logf("%s, per document: %d examined (%d accepted, %d kid-rejected); a label-blind scan loads %d more",
			stage, examined/len(docs), accepted/len(docs), kidRejected/len(docs), labelRejected/len(docs))
	}
	count("installed")
	for i := 0; i < len(hs); i += 3 {
		f.Remove(hs[i])
		hs[i] = f.Add(subs[i])
	}
	checkIndex(t, f)
	count("churned")
}

// TestFirstKidIndexUnderChurn replays BenchmarkForestChurn's add/remove
// pattern and checks the index after every step: sorted inserts and
// order-preserving deletes, with node ids recycled throughout.
func TestFirstKidIndexUnderChurn(t *testing.T) {
	docs, subs := benchWorkload(2, 1024)
	f := NewForest()
	var hs []int
	live := map[int]*pattern.Pattern{}
	add := func(p *pattern.Pattern) {
		h := f.Add(p)
		hs, live[h] = append(hs, h), p
		checkIndex(t, f)
	}
	for _, p := range subs[:512] {
		add(p)
	}
	for i := 0; i < 600 && !t.Failed(); i++ {
		add(subs[512+i%512])
		f.Remove(hs[0])
		delete(live, hs[0])
		hs = hs[1:]
		checkIndex(t, f)
	}
	for _, d := range docs {
		ms := f.Match(d)
		for h, p := range live {
			if got, want := ms.Has(h), pattern.Matches(d, p); got != want {
				t.Fatalf("after churn: pattern %s: forest = %v, oracle = %v", p, got, want)
			}
		}
		ms.Release()
	}
}
