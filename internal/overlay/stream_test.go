package overlay

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treesim/internal/broker"
	"treesim/internal/overlay/wire"
)

const testMaxBody = 1 << 16

// servedNode is a node behind a real loopback listener, as treesimd
// mounts it: its Addr is the listener's URL, so peers that hear from it
// dial the reverse link themselves.
func servedNode(t *testing.T, id string, cfg Config, timeout time.Duration) (*Node, string) {
	t.Helper()
	mux := http.NewServeMux()
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	cfg.Addr = srv.URL
	n := newNode(t, id, cfg)
	RegisterHTTP(mux, n, testMaxBody, timeout)
	return n, srv.URL
}

// holdTransport is a downstream peer whose publish handler blocks until
// released — what holds a frame's handler, and with it the frame's ack.
type holdTransport struct {
	entered chan struct{} // one token per publish that arrived
	release chan struct{} // close to let them all return
}

func newHold() *holdTransport {
	return &holdTransport{entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (h *holdTransport) SendAdvert(wire.AdvertBatch) error { return nil }
func (h *holdTransport) SendPublish(wire.Publication) error {
	h.entered <- struct{}{}
	<-h.release
	return nil
}

// holdingNode is a served node "b" that knows peer "a" (so frames from
// it are accepted) and routes /held documents to a holdTransport.
func holdingNode(t *testing.T, timeout time.Duration) (*Node, string, *holdTransport) {
	t.Helper()
	cfg := fastHealth()
	cfg.AdvertTTL = -1
	b, url := servedNode(t, "b", cfg, timeout)
	hold := newHold()
	if err := b.AddPeer("a", &silentTransport{}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer("c", hold); err != nil {
		t.Fatal(err)
	}
	if err := b.HandleAdvert(wire.AdvertBatch{From: "c", Adverts: []wire.Advert{{
		Origin: "c", Version: 1,
		Communities: []wire.Community{{Patterns: []string{"/held"}, Members: 1, Selectivity: 0.5}},
	}}}); err != nil {
		t.Fatal(err)
	}
	return b, url, hold
}

func pubFrom(from string, seq uint64, xml string) wire.Publication {
	return wire.Publication{From: from, Origin: "a", Seq: seq, TTL: 4, XML: xml}
}

// scriptedPeer is a stream endpoint that acks every frame with the
// status its script picks, counting the publish frames it saw.
func scriptedPeer(t *testing.T, script func(kind byte) wire.Status) (string, *atomic.Int64) {
	t.Helper()
	var pubs atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, br, ok := acceptStream(w, r)
		if !ok {
			return
		}
		defer conn.Close()
		for {
			kind, id, _, err := wire.ReadFrame(br, testMaxBody)
			if err != nil {
				return
			}
			if kind == wire.KindPublish {
				pubs.Add(1)
			}
			conn.Write(wire.AppendFrame(nil, wire.KindAck, id, wire.EncodeAck(script(kind), "scripted")))
		}
	}))
	t.Cleanup(srv.Close)
	return srv.URL, &pubs
}

// TestStreamAckStatusMapping: an ack's status is the only source of a
// send's verdict. busy becomes BusyError — retried once, then shed,
// link health untouched; closed and bad are ordinary failures that take
// the link down. The receiving side's classification is the inverse.
func TestStreamAckStatusMapping(t *testing.T) {
	cfg := fastHealth()
	cfg.AdvertTTL = -1
	cfg.Maintenance = time.Hour // no probes: link state is what the sends left
	a := newNode(t, "a", cfg)
	for _, c := range []struct {
		st   wire.Status
		busy bool
		fail bool
	}{
		{wire.StatusOK, false, false},
		{wire.StatusBusy, true, true},
		{wire.StatusClosed, false, true},
		{wire.StatusBad, false, true},
	} {
		url, _ := scriptedPeer(t, func(byte) wire.Status { return c.st })
		tr := newStreamTransport(a, "x", url, time.Second)
		err := tr.SendPublish(pubFrom("a", 1, "<x/>"))
		tr.Close()
		var be *BusyError
		if (err != nil) != c.fail || errors.As(err, &be) != c.busy {
			t.Errorf("ack status %d: err = %v, want failure=%v busy=%v", c.st, err, c.fail, c.busy)
		}
		if c.fail && !c.busy && !strings.Contains(err.Error(), "scripted") {
			t.Errorf("ack status %d: error %q drops the peer's message", c.st, err)
		}
	}

	// Through the node: adverts are accepted, every publication is shed.
	url, pubs := scriptedPeer(t, func(kind byte) wire.Status {
		if kind == wire.KindPublish {
			return wire.StatusBusy
		}
		return wire.StatusOK
	})
	if err := a.AddPeer("b", newStreamTransport(a, "b", url, time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := a.HandleAdvert(wire.AdvertBatch{From: "b", Adverts: []wire.Advert{{
		Origin: "b", Version: 1,
		Communities: []wire.Community{{Patterns: []string{"/x/y"}, Members: 1, Selectivity: 0.5}},
	}}}); err != nil {
		t.Fatal(err)
	}
	if _, sent, err := a.Publish(doc(t, "<x><y/></x>")); err != nil || sent != 0 {
		t.Fatalf("publish to busy peer: sent=%d err=%v, want 0 sent, nil err", sent, err)
	}
	ai := a.Info()
	if ai.PeerBusy != 1 || pubs.Load() != 2 {
		t.Fatalf("PeerBusy = %d, peer saw %d publish frames; want 1 and 2 (send + one retry)", ai.PeerBusy, pubs.Load())
	}
	if len(ai.DownPeers) != 0 || ai.LinkDowns != 0 || ai.SendErrors != 0 {
		t.Fatalf("busy peer charged link health: down=%v downs=%d errs=%d", ai.DownPeers, ai.LinkDowns, ai.SendErrors)
	}

	for _, c := range []struct {
		err  error
		want wire.Status
	}{
		{nil, wire.StatusOK},
		{fmt.Errorf("overlay: inject from %q: %w", "a", broker.ErrBusy), wire.StatusBusy},
		{ErrClosed, wire.StatusClosed},
		{fmt.Errorf("inject: %w", broker.ErrClosed), wire.StatusClosed},
		{errors.New("overlay: publication from unknown peer"), wire.StatusBad},
	} {
		if got, _, _ := wire.DecodeAck(ackPayload(c.err)); got != c.want {
			t.Errorf("ackPayload(%v) carries status %d, want %d", c.err, got, c.want)
		}
	}
}

// TestStreamConcurrentSenders: eight senders share one link. One
// frame's handler is held downstream; the other seven are served and
// acked meanwhile, each with its own verdict — the odd ones come from a
// sender b does not know and must be told so by name.
func TestStreamConcurrentSenders(t *testing.T) {
	b, url, hold := holdingNode(t, 5*time.Second)
	a := newNode(t, "a", Config{})
	tr := newStreamTransport(a, "b", url, 5*time.Second)
	defer tr.Close()

	held := make(chan error, 1)
	go func() { held <- tr.SendPublish(pubFrom("a", 100, "<held/>")) }()
	<-hold.entered

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 1; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			from := "a"
			if i%2 == 1 {
				from = fmt.Sprintf("stranger-%d", i)
			}
			errs[i] = tr.SendPublish(pubFrom(from, uint64(i), "<free/>"))
		}()
	}
	wg.Wait()
	for i := 1; i < 8; i++ {
		switch {
		case i%2 == 0 && errs[i] != nil:
			t.Errorf("sender %d: %v, want its ok ack", i, errs[i])
		case i%2 == 1 && (errs[i] == nil || !strings.Contains(errs[i].Error(), fmt.Sprintf("stranger-%d", i))):
			t.Errorf("sender %d: %v, want the rejection naming it", i, errs[i])
		}
	}
	select {
	case err := <-held:
		t.Fatalf("held frame acked (%v) before its handler returned", err)
	default:
	}
	close(hold.release)
	if err := <-held; err != nil {
		t.Fatalf("held frame: %v", err)
	}
	if got := b.Info().Injected; got != 4 {
		t.Fatalf("b injected %d publications, want 4 (held + three known senders)", got)
	}
	if p, ad := a.linkTraffic("b", "publish"), a.linkTraffic("b", "advert"); p.frames.Load() != 8 || p.bytes.Load() == 0 || ad.frames.Load() != 0 {
		t.Fatalf("link traffic: %d publish frames, %d bytes, %d advert frames; want 8, >0, 0",
			p.frames.Load(), p.bytes.Load(), ad.frames.Load())
	}
}

// TestStreamPeerClosedMidFrame: the peer's end of the connection dies
// with a frame unacked. The sender errors at once, the link goes down,
// and the backoff probe redials a fresh stream and resyncs — routing
// works again with no help.
func TestStreamPeerClosedMidFrame(t *testing.T) {
	cfg := fastHealth()
	cfg.AdvertTTL = -1
	const timeout = 5 * time.Second
	a, _ := servedNode(t, "a", cfg, timeout)
	b, urlB := servedNode(t, "b", cfg, timeout)
	hold := newHold()
	if err := b.AddPeer("c", hold); err != nil {
		t.Fatal(err)
	}
	if err := b.HandleAdvert(wire.AdvertBatch{From: "c", Adverts: []wire.Advert{{
		Origin: "c", Version: 1,
		Communities: []wire.Community{{Patterns: []string{"/held"}, Members: 1, Selectivity: 0.5}},
	}}}); err != nil {
		t.Fatal(err)
	}
	if err := DialPeer(a, urlB, timeout); err != nil {
		t.Fatal(err)
	}
	sub := mustSubscribe(t, b, "/x/y")
	waitUntil(t, 3*time.Second, func() bool { return routedPatterns(a) == 2 },
		"a never learned b's aggregate (reverse stream) and c's (through b)")

	start := time.Now()
	res := make(chan int, 1)
	go func() {
		_, sent, _ := a.Publish(doc(t, "<held/>"))
		res <- sent
	}()
	// b is now serving a's frame, held downstream: cut b's end.
	<-hold.entered
	b.mu.Lock()
	for conn := range b.inbound {
		conn.Close()
	}
	b.mu.Unlock()
	if sent := <-res; sent != 0 {
		t.Fatalf("publish over a cut stream reported %d sends", sent)
	}
	if d := time.Since(start); d >= timeout {
		t.Fatalf("sender took %v to notice the cut, peer timeout is %v", d, timeout)
	}
	if ai := a.Info(); ai.LinkDowns != 1 || ai.SendErrors != 1 {
		t.Fatalf("after the cut: linkDowns=%d sendErrors=%d, want 1 and 1", ai.LinkDowns, ai.SendErrors)
	}
	close(hold.release)

	waitUntil(t, 3*time.Second, func() bool { return len(a.Info().DownPeers) == 0 }, "probe never recovered the link")
	if ai := a.Info(); ai.LinkRecoveries != 1 || ai.Resyncs != 1 {
		t.Fatalf("after heal: recoveries=%d resyncs=%d, want 1 each", ai.LinkRecoveries, ai.Resyncs)
	}
	if _, sent, err := a.Publish(doc(t, "<x><y/></x>")); err != nil || sent != 1 {
		t.Fatalf("publish after redial: sent=%d err=%v, want 1", sent, err)
	}
	if ds := drainAll(t, b, sub); len(ds) != 1 {
		t.Fatalf("b holds %d deliveries after the redial, want 1", len(ds))
	}
}

// TestStreamAckTimeout: a peer that reads frames but never acks costs
// each waiting sender the peer timeout, once — the expiry closes the
// stream, failing everyone on it, and the next send dials afresh.
func TestStreamAckTimeout(t *testing.T) {
	const timeout = 150 * time.Millisecond
	_, url, hold := holdingNode(t, time.Second)
	a := newNode(t, "a", Config{})
	tr := newStreamTransport(a, "b", url, timeout)
	defer tr.Close()

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = tr.SendPublish(pubFrom("a", uint64(i+1), "<held/>"))
		}()
	}
	wg.Wait()
	if d := time.Since(start); d < timeout || d > 10*timeout {
		t.Fatalf("senders waited %v for a silent peer, peer timeout is %v", d, timeout)
	}
	for i, err := range errs {
		var be *BusyError
		if err == nil || errors.As(err, &be) {
			t.Fatalf("sender %d: %v, want a plain failure", i, err)
		}
	}
	close(hold.release)
	if err := tr.SendPublish(pubFrom("a", 3, "<free/>")); err != nil {
		t.Fatalf("send after the stream was failed: %v, want a fresh dial", err)
	}
}

// routedPatterns counts the advertised patterns in n's routing table.
func routedPatterns(n *Node) int {
	total := 0
	for _, r := range n.IntrospectRoutes() {
		total += r.Patterns
	}
	return total
}

// readAck reads one ack frame off a raw stream.
func readAck(t *testing.T, br *bufio.Reader) (uint32, wire.Status, string) {
	t.Helper()
	kind, id, payload, err := wire.ReadFrame(br, wire.MaxAckLen)
	if err != nil || kind != wire.KindAck {
		t.Fatalf("read ack: kind %d, %v", kind, err)
	}
	st, msg, err := wire.DecodeAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	return id, st, msg
}

// TestStreamBadFramesCloseStream: a frame that is not the protocol —
// truncated, over -max-body, of unknown kind — ends its stream without
// a panic and without anything reaching the engine; a well-framed but
// undecodable payload is merely rejected, and the listener keeps
// serving good streams throughout.
func TestStreamBadFramesCloseStream(t *testing.T) {
	b, url, _ := holdingNode(t, time.Second)
	dial := func() (net.Conn, *bufio.Reader) {
		t.Helper()
		conn, br, err := dialStream(url, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		t.Cleanup(func() { conn.Close() })
		return conn, br
	}
	good, err := wire.EncodePublication(pubFrom("a", 1, "<free/>"))
	if err != nil {
		t.Fatal(err)
	}
	closes := map[string][]byte{
		"unknown kind":     wire.AppendFrame(nil, 9, 1, good),
		"ack as a request": wire.AppendFrame(nil, wire.KindAck, 1, wire.EncodeAck(wire.StatusOK, "")),
		"oversize":         wire.AppendFrame(nil, wire.KindPublish, 1, make([]byte, testMaxBody+1))[:wire.FrameHeaderLen],
	}
	for name, frame := range closes {
		conn, br := dial()
		if _, err := conn.Write(frame); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The close may arrive as a reset (unread bytes on b's side).
		if rest, err := io.ReadAll(br); len(rest) != 0 || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s: stream answered %d bytes, err %v; want it closed", name, len(rest), err)
		}
	}
	// Truncated: the header promises more than the sender delivers.
	conn, _ := dial()
	conn.Write(wire.AppendFrame(nil, wire.KindPublish, 1, good)[:wire.FrameHeaderLen+5])
	conn.Close()
	waitUntil(t, 3*time.Second, func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.inbound) == 0
	}, "bad streams never wound down")
	if bi := b.Info(); bi.ForwardsRecv != 0 || bi.Injected != 0 {
		t.Fatalf("bad frames reached the node: recv=%d injected=%d", bi.ForwardsRecv, bi.Injected)
	}

	conn, br := dial()
	conn.Write(wire.AppendFrame(nil, wire.KindPublish, 7, []byte("{\"proto\":1}")))
	if id, st, msg := readAck(t, br); id != 7 || st != wire.StatusBad || msg == "" {
		t.Fatalf("undecodable payload: ack id=%d status=%d %q, want 7, bad, a reason", id, st, msg)
	}
	conn.Write(wire.AppendFrame(nil, wire.KindPublish, 8, good))
	if id, st, msg := readAck(t, br); id != 8 || st != wire.StatusOK {
		t.Fatalf("good frame after a rejected one: ack id=%d status=%d %q", id, st, msg)
	}
	if bi := b.Info(); bi.Injected != 1 {
		t.Fatalf("b injected %d publications, want 1", bi.Injected)
	}
}

// TestStreamCloseAcksInFlight: Node.Close with a frame being served
// waits for its handler, acks it, and only then closes the stream;
// after that the node refuses the dial.
func TestStreamCloseAcksInFlight(t *testing.T) {
	b, url, hold := holdingNode(t, 5*time.Second)
	a := newNode(t, "a", Config{})
	tr := newStreamTransport(a, "b", url, 5*time.Second)
	defer tr.Close()

	held := make(chan error, 1)
	go func() { held <- tr.SendPublish(pubFrom("a", 1, "<held/>")) }()
	<-hold.entered
	closed := make(chan struct{})
	go func() { b.Close(); close(closed) }()
	waitUntil(t, 3*time.Second, func() bool {
		_, _, err := b.Publish(doc(t, "<free/>"))
		return err == ErrClosed
	}, "Close never marked the node closed")
	select {
	case <-closed:
		t.Fatal("Close returned with a frame still being served")
	case err := <-held:
		t.Fatalf("frame answered (%v) before its handler returned", err)
	default:
	}
	close(hold.release)
	if err := <-held; err != nil {
		t.Fatalf("in-flight frame: %v, want its ok ack", err)
	}
	<-closed
	// The first send may still find the old stream (its close not yet
	// read); the one after it must dial, and be refused.
	if err := tr.SendPublish(pubFrom("a", 2, "<free/>")); err == nil {
		t.Fatal("send to a closed node succeeded")
	}
	err := tr.SendPublish(pubFrom("a", 3, "<free/>"))
	if err == nil || !strings.Contains(err.Error(), ErrClosed.Error()) {
		t.Fatalf("dial to a closed node: %v, want a refusal naming %q", err, ErrClosed)
	}
	if got := b.Info().Injected; got != 1 {
		t.Fatalf("b injected %d publications, want 1", got)
	}
}

// TestStreamLineIsSynchronous pins the contract the benchmark's
// verification pass leans on, over real loopback listeners: the moment
// Publish returns at A, a wait=0 drain at C already holds the delivery
// — every hop acked only after its own injection and forwards. Closing
// the line into a triangle then makes every document arrive twice
// somewhere; the duplicate is acked without being injected again.
func TestStreamLineIsSynchronous(t *testing.T) {
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
	subB := mustSubscribe(t, b, "/x")
	subC := mustSubscribe(t, c, "/x/y")
	waitUntil(t, 3*time.Second, func() bool { return routedPatterns(a) == 2 }, "a never learned both aggregates")

	for i := 0; i < 50; i++ {
		if _, sent, err := a.Publish(doc(t, fmt.Sprintf("<x><y n=\"%d\"/></x>", i))); err != nil || sent != 1 {
			t.Fatalf("publish %d: sent=%d err=%v, want 1", i, sent, err)
		}
		if nb, nc := len(drainAll(t, b, subB)), len(drainAll(t, c, subC)); nb != 1 || nc != 1 {
			t.Fatalf("publish %d returned with %d deliveries at b and %d at c, want 1 and 1", i, nb, nc)
		}
	}
	if d := b.Info().Duplicates + c.Info().Duplicates; d != 0 {
		t.Fatalf("%d duplicates on a line", d)
	}

	if err := DialPeer(a, urlC, timeout); err != nil {
		t.Fatal(err)
	}
	// A fresh advert from c now reaches a directly, one hop shorter than
	// through b: the route to c moves, and a starts forwarding both ways.
	waitUntil(t, 3*time.Second, func() bool { return c.HasPeer("a") }, "c never dialed a back")
	c.Advertise()
	waitUntil(t, 3*time.Second, func() bool {
		for _, r := range a.IntrospectRoutes() {
			if r.Origin == "c" && r.Via == "c" {
				return true
			}
		}
		return false
	}, "a's route to c never moved to the direct link")
	injected := b.Info().Injected + c.Info().Injected
	for i := 0; i < 20; i++ {
		if _, _, err := a.Publish(doc(t, "<x><y/></x>")); err != nil {
			t.Fatal(err)
		}
		if nb, nc := len(drainAll(t, b, subB)), len(drainAll(t, c, subC)); nb != 1 || nc != 1 {
			t.Fatalf("triangle publish %d: %d deliveries at b and %d at c, want exactly 1 and 1", i, nb, nc)
		}
	}
	if got := b.Info().Injected + c.Info().Injected - injected; got != 40 {
		t.Fatalf("20 publications were injected %d times at b and c, want 40", got)
	}
	if d := b.Info().Duplicates + c.Info().Duplicates; d == 0 {
		t.Fatal("the triangle produced no duplicate to suppress; the test lost its cycle")
	}
	if ai := a.Info(); ai.SendErrors != 0 {
		t.Fatalf("a counted %d send errors", ai.SendErrors)
	}
}
