package overlay

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"treesim/internal/broker"
	"treesim/internal/overlay/wire"
)

// A link between two daemons is a pair of streams, one per direction:
// the sender dials the peer's listener (GET /peer/stream + Upgrade),
// both sides drop out of HTTP, and the connection then carries wire
// frames — requests one way, acks the other. A send returns when the ack
// with its id arrives, and the receiver acks a publication only after
// its own HandlePublish (local injection and downstream forwards) has
// returned: a publish stays synchronous end to end, as it was over one
// POST per hop. What is gone is the request.

// streamProto is the Upgrade token of the peer stream protocol.
const streamProto = "treesim-peer/1"

// maxStreamHandlers bounds the frames one inbound stream serves at a
// time, and so the goroutines a peer can pin; a full stream stops
// reading, which pushes back on the sender through TCP.
const maxStreamHandlers = 64

// peerTimeout resolves the configured peer timeout (<= 0: 10s), which
// bounds a stream's handshake, each write, and a frame's wait for its ack.
func peerTimeout(d time.Duration) time.Duration {
	if d <= 0 {
		return 10 * time.Second
	}
	return d
}

// frameWriter is the write half of a stream end. Senders line up on wmu
// and each appends its frame; only the last in line writes, so frames
// that arrive while a write is in flight go out together in the next
// one — no writer goroutine.
type frameWriter struct {
	conn    net.Conn
	timeout time.Duration

	queued atomic.Int32 // senders holding or waiting for wmu
	wmu    sync.Mutex
	buf    []byte // frames not yet handed to conn.Write
	werr   error
}

// send queues one frame and returns once it is written or left to the
// sender behind; a failed write closes the connection, which is how
// those who left learn of it.
func (w *frameWriter) send(kind byte, id uint32, payload []byte) error {
	w.queued.Add(1)
	w.wmu.Lock()
	defer w.wmu.Unlock()
	last := w.queued.Add(-1) == 0
	if w.werr != nil {
		return w.werr
	}
	w.buf = wire.AppendFrame(w.buf, kind, id, payload)
	if !last {
		return nil
	}
	w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	if _, w.werr = w.conn.Write(w.buf); w.werr != nil {
		w.conn.Close()
	}
	if w.buf = w.buf[:0]; cap(w.buf) > 1<<20 {
		w.buf = nil // do not pin the buffer one huge frame grew
	}
	return w.werr
}

// outStream is one dialed connection, the sending end of a link
// direction. Every registered waiter receives exactly one value: the
// peer's verdict from the reader, or from fail the error that killed
// the stream.
type outStream struct {
	frameWriter

	mu      sync.Mutex
	waiting map[uint32]chan error // capacity 1: the reader never blocks
	nextID  uint32
	err     error // why the stream died; set once
}

// roundTrip sends one request frame and waits for its ack, at most the
// peer timeout — on expiry the whole stream is failed, since a peer
// that stopped acking cannot be told apart from a dead one.
func (s *outStream) roundTrip(kind byte, payload []byte) error {
	ch := make(chan error, 1)
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		return s.err
	}
	s.nextID++
	id := s.nextID
	s.waiting[id] = ch
	s.mu.Unlock()
	if err := s.send(kind, id, payload); err != nil {
		s.fail(err)
	}
	timer := time.NewTimer(s.timeout)
	defer timer.Stop()
	select {
	case err := <-ch:
		return err
	case <-timer.C:
		s.fail(fmt.Errorf("overlay: no ack from %s within %v", s.conn.RemoteAddr(), s.timeout))
		return <-ch
	}
}

// readAcks is the stream's reader goroutine: it hands each verdict to
// the sender waiting on its id and exits when the connection closes.
func (s *outStream) readAcks(br *bufio.Reader) {
	for {
		var verdict error
		kind, id, payload, err := wire.ReadFrame(br, wire.MaxAckLen)
		if err == nil && kind != wire.KindAck {
			err = fmt.Errorf("unexpected frame kind %d", kind)
		}
		if err == nil {
			verdict, err = ackError(payload)
		}
		if err != nil {
			s.fail(fmt.Errorf("overlay: peer stream to %s: %w", s.conn.RemoteAddr(), err))
			return
		}
		s.mu.Lock()
		ch := s.waiting[id]
		delete(s.waiting, id)
		s.mu.Unlock()
		if ch != nil {
			ch <- verdict
		}
	}
}

// fail kills the stream: the connection closes and every waiting sender
// gets err.
func (s *outStream) fail(err error) {
	s.mu.Lock()
	waiting := s.waiting
	if s.err == nil {
		s.err, s.waiting = err, nil
		s.conn.Close()
	}
	s.mu.Unlock()
	for _, ch := range waiting {
		ch <- err
	}
}

// streamTransport is the Transport between daemons: it owns the sending
// stream of one link direction, dialed on first use and redialed after a
// failure by whatever sends next (the link-health probe, once the
// failure has marked the link down).
type streamTransport struct {
	base          string
	timeout       time.Duration
	pubs, adverts linkTraffic

	mu     sync.Mutex // held across a dial, so concurrent senders share it
	cur    *outStream
	closed bool
}

func newStreamTransport(n *Node, peer, base string, timeout time.Duration) *streamTransport {
	return &streamTransport{base: base, timeout: timeout, pubs: n.linkTraffic(peer, "publish"), adverts: n.linkTraffic(peer, "advert")}
}

// SendAdvert implements Transport.
func (t *streamTransport) SendAdvert(b wire.AdvertBatch) error {
	data, err := wire.EncodeAdvertBatch(b)
	if err != nil {
		return err
	}
	return t.roundTrip(wire.KindAdvert, data, t.adverts)
}

// SendPublish implements Transport.
func (t *streamTransport) SendPublish(p wire.Publication) error {
	data, err := wire.EncodePublication(p)
	if err != nil {
		return err
	}
	return t.roundTrip(wire.KindPublish, data, t.pubs)
}

func (t *streamTransport) roundTrip(kind byte, payload []byte, traffic linkTraffic) error {
	s, err := t.stream()
	if err != nil {
		return err
	}
	traffic.frames.Inc()
	traffic.bytes.Add(uint64(len(payload)))
	return s.roundTrip(kind, payload)
}

// stream returns the live stream, dialing one if there is none.
func (t *streamTransport) stream() (*outStream, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if s := t.cur; s != nil {
		s.mu.Lock()
		alive := s.err == nil
		s.mu.Unlock()
		if alive {
			return s, nil
		}
	}
	conn, br, err := dialStream(t.base, t.timeout)
	if err != nil {
		return nil, err
	}
	t.cur = &outStream{frameWriter: frameWriter{conn: conn, timeout: t.timeout}, waiting: make(map[uint32]chan error)}
	go t.cur.readAcks(br)
	return t.cur, nil
}

// Close fails the stream (senders still waiting get ErrClosed) and
// refuses further sends.
func (t *streamTransport) Close() {
	t.mu.Lock()
	t.closed = true
	s := t.cur
	t.mu.Unlock()
	if s != nil {
		s.fail(ErrClosed)
	}
}

// dialStream connects to the peer daemon at base and upgrades the
// connection to the stream protocol. The returned reader holds whatever
// followed the handshake.
func dialStream(base string, timeout time.Duration) (net.Conn, *bufio.Reader, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/peer/stream", nil)
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", streamProto)
	d := net.Dialer{Timeout: min(timeout/2, 3*time.Second), KeepAlive: 15 * time.Second}
	conn, err := d.Dial("tcp", req.URL.Host) // plain http, explicit port: what treesimd serves
	if err != nil {
		return nil, nil, err
	}
	conn.SetDeadline(time.Now().Add(timeout))
	br := bufio.NewReader(conn)
	if err = req.Write(conn); err == nil {
		var resp *http.Response
		if resp, err = http.ReadResponse(br, req); err == nil &&
			(resp.StatusCode != http.StatusSwitchingProtocols || !strings.EqualFold(resp.Header.Get("Upgrade"), streamProto)) {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			err = fmt.Errorf("overlay: GET %s/peer/stream: %s: %s", base, resp.Status, msg)
		}
	}
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	conn.SetDeadline(time.Time{})
	return conn, br, nil
}

// serveStream reads request frames off an upgraded connection until it
// closes, serving each off the reader's goroutine — a publication's
// handler returns only when its downstream forwards have, and the frames
// behind it must not wait for that — and acking it with the handler's
// verdict. Frames go to workers started as the stream needs them and
// kept until it ends: a worker's stack stays grown through parse and
// forest recursion, where a goroutine per frame regrew it every time.
// A truncated frame, one of unknown kind or one over maxBody ends the
// stream: nothing after it can be trusted to be a frame.
func (n *Node) serveStream(conn net.Conn, br *bufio.Reader, maxBody int64, timeout time.Duration) {
	w := &frameWriter{conn: conn, timeout: timeout}
	done := make(chan struct{}) // closed once every frame read has been acked
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		conn.Close()
		return
	}
	n.inbound[conn] = done
	n.mu.Unlock()
	type frame struct {
		kind    byte
		id      uint32
		payload []byte
	}
	work := make(chan frame) // unbuffered: a send succeeds only into an idle worker
	var handlers sync.WaitGroup
	defer func() {
		close(work)
		handlers.Wait()
		conn.Close()
		n.mu.Lock()
		delete(n.inbound, conn)
		n.mu.Unlock()
		close(done)
	}()
	for workers := 0; ; {
		kind, id, payload, err := wire.ReadFrame(br, maxBody)
		if err == nil && kind != wire.KindPublish && kind != wire.KindAdvert {
			err = fmt.Errorf("unexpected frame kind %d", kind)
		}
		if err != nil {
			// EOF or a connection error is a peer going away; the rest
			// is a peer not speaking the protocol.
			var ne net.Error
			if !errors.Is(err, io.EOF) && !errors.As(err, &ne) {
				n.cfg.Logger.Warn("peer stream closed", "remote", conn.RemoteAddr().String(), "err", err.Error())
			}
			return
		}
		f := frame{kind, id, payload}
		select {
		case work <- f:
			continue
		default:
		}
		if workers == maxStreamHandlers {
			work <- f // every worker is busy: stop reading until one is not
			continue
		}
		workers++
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			for ok := true; ok; f, ok = <-work {
				ack := ackPayload(n.handleFrame(f.kind, f.payload, timeout))
				w.send(wire.KindAck, f.id, ack) // a failed write closes the stream; the sender times out
			}
		}()
	}
}

// handleFrame decodes one request frame and hands it to the node. A
// sender that is not yet a peer but carries a callback address gets the
// reverse link first, so one-directional -peers configuration yields
// bidirectional federation.
func (n *Node) handleFrame(kind byte, payload []byte, timeout time.Duration) error {
	if kind == wire.KindPublish {
		pub, err := wire.DecodePublication(payload)
		if err != nil {
			return err
		}
		n.autoPeer(pub.From, pub.Addr, timeout)
		return n.HandlePublish(pub)
	}
	batch, err := wire.DecodeAdvertBatch(payload)
	if err != nil {
		return err
	}
	n.autoPeer(batch.From, batch.Addr, timeout)
	return n.HandleAdvert(batch)
}

func (n *Node) autoPeer(from, addr string, timeout time.Duration) {
	if from != "" && addr != "" && from != n.ID() && !n.HasPeer(from) {
		n.AddPeer(from, newStreamTransport(n, from, addr, timeout))
	}
}

// ackPayload classifies a handler outcome for the ack and ackError is
// its inverse at the sender: engine backpressure travels as busy and
// comes out a BusyError (retried once, link health untouched); a closed
// node or engine travels as closed, anything else as bad, and both come
// out plain failures.
func ackPayload(err error) []byte {
	switch {
	case err == nil:
		return wire.EncodeAck(wire.StatusOK, "")
	case errors.Is(err, broker.ErrBusy):
		return wire.EncodeAck(wire.StatusBusy, err.Error())
	case errors.Is(err, ErrClosed) || errors.Is(err, broker.ErrClosed):
		return wire.EncodeAck(wire.StatusClosed, err.Error())
	}
	return wire.EncodeAck(wire.StatusBad, err.Error())
}

func ackError(payload []byte) (verdict, err error) {
	st, msg, err := wire.DecodeAck(payload)
	switch {
	case err != nil || st == wire.StatusOK:
		return nil, err
	case st == wire.StatusBusy:
		return &BusyError{}, nil
	case st == wire.StatusClosed:
		return fmt.Errorf("overlay: peer is shutting down: %s", msg), nil
	}
	return fmt.Errorf("overlay: peer rejected the message: %s", msg), nil
}
