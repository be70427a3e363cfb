package overlay

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"treesim/internal/overlay/wire"
)

// RegisterHTTP mounts the node's peer endpoints on mux:
//
//	GET /peer/stream  Upgrade: treesim-peer/1 → 101, then wire frames
//	GET /peer/info    wire.Info
//
// A frame over maxBody bytes ends its stream; timeout (<= 0: 10s)
// bounds ack writes and the reverse links auto-established toward
// senders that carry a callback Addr.
func RegisterHTTP(mux *http.ServeMux, n *Node, maxBody int64, timeout time.Duration) {
	timeout = peerTimeout(timeout)
	mux.HandleFunc("GET /peer/stream", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		closed := n.closed
		n.mu.Unlock()
		if closed {
			peerError(w, http.StatusServiceUnavailable, "%v", ErrClosed)
			return
		}
		if conn, br, ok := acceptStream(w, r); ok {
			n.serveStream(conn, br, maxBody, timeout)
		}
	})

	mux.HandleFunc("GET /peer/info", func(w http.ResponseWriter, r *http.Request) {
		data, err := wire.EncodeInfo(n.Info())
		if err != nil {
			peerError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
}

// acceptStream answers a stream dial: it takes the connection over from
// the HTTP server and confirms the upgrade, or answers the error and
// reports false.
func acceptStream(w http.ResponseWriter, r *http.Request) (net.Conn, *bufio.Reader, bool) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), streamProto) {
		w.Header().Set("Upgrade", streamProto)
		peerError(w, http.StatusUpgradeRequired, "want Upgrade: %s", streamProto)
		return nil, nil, false
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		peerError(w, http.StatusInternalServerError, "connection cannot be upgraded")
		return nil, nil, false
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		peerError(w, http.StatusInternalServerError, "%v", err)
		return nil, nil, false
	}
	// The server's read and write deadlines were set for one request; a
	// stream lives until either side closes it.
	conn.SetDeadline(time.Time{})
	if _, err := io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+streamProto+"\r\n\r\n"); err != nil {
		conn.Close()
		return nil, nil, false
	}
	return conn, brw.Reader, true
}

// DialPeer fetches the peer's identity from base+"/peer/info" and adds
// it as a peer over a stream transport; the stream itself is dialed by
// the first send (the state sync AddPeer pushes). timeout (<= 0: 10s)
// bounds the fetch and, on the link, every write-to-ack. Callers retry:
// the peer daemon may not be up yet.
func DialPeer(n *Node, base string, timeout time.Duration) error {
	timeout = peerTimeout(timeout)
	client := &http.Client{Timeout: timeout}
	defer client.CloseIdleConnections()
	resp, err := client.Get(base + "/peer/info")
	if err != nil {
		return err
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("overlay: GET %s/peer/info: %s", base, resp.Status)
	}
	info, err := wire.DecodeInfo(data)
	if err != nil {
		return err
	}
	if info.ID == n.ID() {
		return fmt.Errorf("overlay: peer %s is this node (%s)", base, info.ID)
	}
	return n.AddPeer(info.ID, newStreamTransport(n, info.ID, base, timeout))
}

func peerError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\"error\":%q}\n", fmt.Sprintf(format, args...))
}
