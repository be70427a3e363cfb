package overlay

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"treesim/internal/dtd"
	"treesim/internal/overlay/wire"
	"treesim/internal/xmlgen"
	"treesim/internal/xmltree"
)

// tapTransport records the publications handed to a link before the
// codec sees them.
type tapTransport struct {
	Transport
	pubs []wire.Publication
}

func (t *tapTransport) SendPublish(p wire.Publication) error {
	t.pubs = append(t.pubs, p)
	return t.Transport.SendPublish(p)
}

// same reports whether two slices are one: same first byte, same length.
func same(a, b []byte) bool { return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0] }

// nitfDoc is a generated NITF document and the pattern of its root.
func nitfDoc() (*xmltree.Tree, string) {
	tr := xmlgen.New(dtd.NITFLike(), xmlgen.Options{Seed: 7}).Generate()
	return tr, "/" + tr.Root.Label
}

// TestHopCarriesThePackedBytes follows one document down an in-process
// line a–b–c (real codec, no sockets) by slice identity: a sends the
// bytes its retention ring holds for the sequence it just published; b
// retains the decoded payload's own slice and sends that same slice on;
// nothing on the way packs, copies or serializes the document again. A
// second document with labels no XML parser would accept arrives intact,
// which a text form anywhere on the path could not deliver.
func TestHopCarriesThePackedBytes(t *testing.T) {
	a, b, c := newNode(t, "a", Config{}), newNode(t, "b", Config{}), newNode(t, "c", Config{})
	ab, bc := &tapTransport{Transport: Inproc{Peer: b}}, &tapTransport{Transport: Inproc{Peer: c}}
	if err := ConnectTransports(a, b, ab, Inproc{Peer: a}); err != nil {
		t.Fatal(err)
	}
	if err := ConnectTransports(b, c, bc, Inproc{Peer: b}); err != nil {
		t.Fatal(err)
	}
	tr, root := nitfDoc()
	odd := xmltree.New("not an <xml> name")
	odd.Root.AddChild("").AddChild("a&b")
	mustSubscribe(t, b, root)
	mustSubscribe(t, c, root)
	mustSubscribe(t, c, "/*") // takes the odd document to c as well

	for i, d := range []*xmltree.Tree{tr, odd} {
		res, sent, err := a.Publish(d)
		if err != nil || sent != 1 || len(ab.pubs) != i+1 || len(bc.pubs) != i+1 {
			t.Fatalf("document %d: sent=%d err=%v, a→b saw %d and b→c %d publications", i, sent, err, len(ab.pubs), len(bc.pubs))
		}
		first, onward := ab.pubs[i], bc.pubs[i]
		if first.XML != "" || onward.XML != "" {
			t.Errorf("document %d travelled as text", i)
		}
		if !same(first.Doc, a.Engine().PackedDocument(res.Seq)) {
			t.Errorf("document %d: a sent bytes other than its ring's", i)
		}
		atB := b.Engine().PackedDocument(uint64(i + 1))
		if !same(onward.Doc, atB) {
			t.Errorf("document %d: b forwarded bytes other than the ones it retained", i)
		}
		if same(atB, first.Doc) || !bytes.Equal(atB, first.Doc) {
			t.Errorf("document %d: b retains %d bytes, a sent %d, through a codec", i, len(atB), len(first.Doc))
		}
		if got := c.Engine().Document(uint64(i + 1)); got == nil || !got.Root.Equal(d.Root) {
			t.Errorf("document %d at c = %v, want %v", i, got, d)
		}
	}

	// What b retains is the decoded publication's payload slice itself.
	enc, err := wire.EncodePublication(wire.Publication{From: "a", Origin: "a", Seq: 99, TTL: 4, Doc: xmltree.Pack(tr)})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := wire.DecodePublication(enc)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.HandlePublish(dec); err != nil {
		t.Fatal(err)
	}
	if !same(b.Engine().PackedDocument(3), enc[len(enc)-len(dec.Doc):]) || !same(bc.pubs[2].Doc, dec.Doc) {
		t.Error("b copied the payload of a frame it decoded")
	}
}

// TestStreamHopBytes is the same line over real peer streams: what a
// forward costs on the wire, and that what comes out at the far end is
// byte for byte what a text hop delivered.
func TestStreamHopBytes(t *testing.T) {
	cfg := fastHealth()
	cfg.AdvertTTL = -1
	const timeout = 5 * time.Second
	a, _ := servedNode(t, "a", cfg, timeout)
	b, urlB := servedNode(t, "b", cfg, timeout)
	c, urlC := servedNode(t, "c", cfg, timeout)
	if err := DialPeer(b, urlC, timeout); err != nil {
		t.Fatal(err)
	}
	if err := DialPeer(a, urlB, timeout); err != nil {
		t.Fatal(err)
	}
	tr, root := nitfDoc()
	mustSubscribe(t, b, root)
	mustSubscribe(t, c, root)
	waitUntil(t, 3*time.Second, func() bool { return routedPatterns(a) == 2 }, "a never learned both aggregates")

	text, err := xmltree.XMLString(tr, false)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if _, sent, err := a.Publish(tr); err != nil || sent != 1 {
			t.Fatalf("publish %d: sent=%d err=%v", i, sent, err)
		}
	}
	for _, hop := range []struct {
		from *Node
		to   string
	}{{a, "b"}, {b, "c"}} {
		traffic := hop.from.linkTraffic(hop.to, "publish")
		frames, perForward := traffic.frames.Load(), float64(traffic.bytes.Load())/n
		if frames != n || perForward > 0.65*float64(len(text)) {
			t.Errorf("%s→%s: %d publish frames of %.0f bytes each; the document is %d bytes of XML", hop.from.ID(), hop.to, frames, perForward, len(text))
		}
	}
	// The daemon's GET /doc/{seq} writes XMLString of Document(seq).
	for _, node := range []*Node{b, c} {
		got, err := xmltree.XMLString(node.Engine().Document(n), false)
		if err != nil || got != text {
			t.Errorf("document %d at %s reads\n%s\nwant\n%s (err %v)", n, node.ID(), got, text, err)
		}
	}
}

// TestUnpackablePublicationIsRefusedAndSeen: a version-2 frame whose
// payload is not a packed document — garbage, or a tree deeper than
// xmltree.MaxDepth — is acked as an error over the stream, reaches no
// engine, never panics, and stays marked seen: a replay is a duplicate.
func TestUnpackablePublicationIsRefusedAndSeen(t *testing.T) {
	b, url, _ := holdingNode(t, time.Second)
	deep := xmltree.New("held")
	for n, i := deep.Root, 0; i < xmltree.MaxDepth; i++ {
		n = n.AddChild("held")
	}
	a := newNode(t, "a", Config{})
	tr := newStreamTransport(a, "b", url, time.Second)
	defer tr.Close()
	for i, payload := range [][]byte{{0xff, 0xff, 0xff}, []byte("<held/>"), xmltree.Pack(deep)} {
		pub := wire.Publication{From: "a", Origin: "a", Seq: uint64(i + 1), TTL: 4, Doc: payload}
		err := tr.SendPublish(pub)
		if err == nil || !strings.Contains(err.Error(), "rejected") {
			t.Errorf("payload %d: send returned %v, want the peer's rejection", i, err)
		}
		if err := tr.SendPublish(pub); err != nil {
			t.Errorf("payload %d replayed: %v, want it acked as a duplicate", i, err)
		}
	}
	if bi := b.Info(); bi.Injected != 0 || bi.Duplicates != 3 || bi.ForwardsRecv != 6 {
		t.Errorf("b: injected %d, duplicates %d of %d received; want 0, 3 of 6", bi.Injected, bi.Duplicates, bi.ForwardsRecv)
	}
}

// TestHandlePublishRefusesBadBytes: a forwarded publication whose bytes
// are truncated or nested deeper than xmltree.MaxDepth is an error at
// HandlePublish, before the engine sees it: it stays marked seen (a
// replay is a duplicate), the synopsis ingests nothing and no delivery
// is made.
func TestHandlePublishRefusesBadBytes(t *testing.T) {
	a, b := newNode(t, "a", Config{}), newNode(t, "b", Config{})
	connect(t, a, b)
	tr, root := nitfDoc()
	mustSubscribe(t, b, root)
	mustSubscribe(t, b, "/held")
	deep := xmltree.New("held")
	for n, i := deep.Root, 0; i < xmltree.MaxDepth; i++ {
		n = n.AddChild("held")
	}
	good := xmltree.Pack(tr)
	eng := b.Engine()
	eng.Flush()
	before, observed := eng.Stats(), eng.Estimator().DocsObserved()
	for i, payload := range [][]byte{good[:len(good)/2], good[:len(good)-1], xmltree.Pack(deep)} {
		pub := wire.Publication{From: "a", Origin: "a", Seq: uint64(100 + i), TTL: 4, Doc: payload}
		if err := b.HandlePublish(pub); err == nil {
			t.Errorf("payload %d: HandlePublish accepted it", i)
		}
		if err := b.HandlePublish(pub); err != nil {
			t.Errorf("payload %d replayed: %v, want it dropped as a duplicate", i, err)
		}
	}
	eng.Flush()
	after := eng.Stats()
	if after.Deliveries != before.Deliveries || after.Published != before.Published || eng.Estimator().DocsObserved() != observed {
		t.Errorf("deliveries %d → %d, published %d → %d, documents observed %d → %d; want all unchanged",
			before.Deliveries, after.Deliveries, before.Published, after.Published, observed, eng.Estimator().DocsObserved())
	}
	if bi := b.Info(); bi.Injected != 0 || bi.Duplicates != 3 {
		t.Errorf("b: injected %d, duplicates %d; want 0 and 3", bi.Injected, bi.Duplicates)
	}
}

// TestHandlePublishAllocations bounds what a forwarded publication costs
// the heap at a warm middle node — injection, the remote-forest match and
// the forward — below what one Unpack of a NITF document cost there
// before documents stayed packed: 4 allocations and about 4.9 KB.
func TestHandlePublishAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	n, next := middleNode(t)
	i := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(500, func() {
		if err := n.HandlePublish(next(i)); err != nil {
			t.Fatal(err)
		}
		i++
	})
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(i)
	if allocs >= 4 || perOp >= 4900 {
		t.Errorf("HandlePublish: %.1f allocations and %.0f bytes per publication; want fewer than one Unpack's 4 and 4.9 KB", allocs, perOp)
	}
}
