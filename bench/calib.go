package main

import (
	"encoding/xml"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"
)

// hostRef is the reference the gated timings are scaled by. The box is a
// few cores of a shared host, and how fast the host runs them swings by
// half from one minute to the next; a run's raw rate and the daemons' CPU
// time per publish swing with it. The reference is a publish in
// miniature written against the standard library alone, so that no
// change to this repository makes it faster or slower: an HTTP POST of a
// fixed document over loopback to a server inside the harness, which
// tokenises it, counts and sorts the element names and answers. What is
// read off it is the CPU time the harness process spends on one such
// request, client and server side together: like a publish it is system
// calls, the loopback stack, the Go runtime and some parsing, and unlike
// its wall time it does not depend on which thread woke when.
type hostRef struct {
	srv    *http.Server
	client *http.Client
	url    string
}

var refDoc = func() string {
	var b strings.Builder
	b.WriteString("<root>")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "<a%d><b%d><c>x</c></b%d></a%d>", i%37, i%11, i%11, i%37)
	}
	b.WriteString("</root>")
	return b.String()
}()

func refHandler(w http.ResponseWriter, r *http.Request) {
	d := xml.NewDecoder(r.Body)
	seen := map[string]int{}
	for {
		t, err := d.Token()
		if err != nil {
			break
		}
		if s, ok := t.(xml.StartElement); ok {
			seen[s.Name.Local]++
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, `{"names":%d,"first":%q}`, len(keys), keys[0])
}

func newHostRef() (*hostRef, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &hostRef{
		srv:    &http.Server{Handler: http.HandlerFunc(refHandler)},
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		url:    "http://" + ln.Addr().String() + "/",
	}
	go h.srv.Serve(ln)
	return h, nil
}

// close stops the server; Serve returns once the listener is closed.
func (h *hostRef) close() {
	h.client.CloseIdleConnections()
	h.srv.Close()
}

// request sends one reference request and returns the CPU time the
// process spent meanwhile. Connection 2's goroutine runs in the same
// process; it is mostly waiting, and the median of many requests does
// not see it.
func (h *hostRef) request() time.Duration {
	c0 := selfCPU()
	resp, err := h.client.Post(h.url, "application/xml", strings.NewReader(refDoc))
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return selfCPU() - c0
}

// burst is the median of n reference requests made back to back: the
// host's speed around a set-up, where no publish loop runs to spread
// them over.
func (h *hostRef) burst(n int) time.Duration {
	var l lats
	for i := 0; i < n; i++ {
		l = append(l, int64(h.request()))
	}
	return time.Duration(l.sorted().quantile(0.5))
}

const (
	// setupBurst requests are made before and after each set-up.
	setupBurst = 100
	// refEvery publishes, the publisher makes one reference request:
	// some 5% of the window, and two to four thousand samples spread
	// evenly over it.
	refEvery = 8
	// refNominal is the CPU time of a reference request on a host at
	// nominal speed, about what this box shows in its quiet minutes.
	// The numbers scaled by it are comparable between runs whatever the
	// host was doing; the nominal itself is a convention.
	refNominal = 500 * time.Microsecond
)

// slowdown says how many times slower than nominal the host ran when a
// reference request cost this much CPU.
func slowdown(ref time.Duration) float64 {
	return float64(ref) / float64(refNominal)
}
