package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"treesim/internal/broker"
	"treesim/internal/overlay"
	"treesim/internal/persist"
	"treesim/internal/telemetry"
	"treesim/internal/xmltree"
)

// testHandler builds the real daemon mux over a fresh standalone engine
// — the same wiring main uses, minus the listener.
func testHandler(t *testing.T) (http.Handler, *broker.Engine, *telemetry.EventRing) {
	t.Helper()
	reg := telemetry.NewRegistry()
	eng := broker.New(broker.Config{Telemetry: reg})
	t.Cleanup(func() { eng.Close() })
	events := telemetry.NewEventRing(16)
	logger := slog.New(slog.DiscardHandler)
	d := &daemon{eng: eng, reg: reg, events: events, logger: logger, maxBody: testMaxBody, peerTimeout: time.Second, mode: broker.AtMostOnce}
	return d.handler(), eng, events
}

// testMaxBody is the -max-body testHandler runs with.
const testMaxBody = 1 << 20

func do(t *testing.T, h http.Handler, method, path, contentType, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// errorBody decodes the daemon's JSON error shape and fails the test if
// the response is not {"error": "<nonempty>"}.
func errorBody(t *testing.T, w *httptest.ResponseRecorder) string {
	t.Helper()
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("error response Content-Type = %q, want application/json", ct)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body is not JSON: %v (%q)", err, w.Body.String())
	}
	if e.Error == "" {
		t.Fatalf("error body carries no error message: %q", w.Body.String())
	}
	return e.Error
}

// TestHandlerErrorPaths is the table-driven sweep over the read and
// write surfaces' failure modes: every case must answer with the right
// status code and the daemon's uniform {"error": ...} JSON shape.
func TestHandlerErrorPaths(t *testing.T) {
	h, eng, _ := testHandler(t)
	if _, err := eng.Subscribe("/a/b"); err != nil { // id 1, keeps /deliveries/1 valid
		t.Fatal(err)
	}
	if _, err := eng.SubscribeOpts("/a/c", broker.SubscribeOptions{Mode: broker.AtLeastOnce}); err != nil { // id 2
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		method     string
		path       string
		ctype      string
		body       string
		wantStatus int
		wantSubstr string
	}{
		{"trace without overlay", "GET", "/trace/deadbeefdeadbeef", "", "", http.StatusNotFound, "tracing runs on the overlay"},
		{"doc absent", "GET", "/doc/999999", "", "", http.StatusNotFound, "not retained"},
		{"doc malformed seq", "GET", "/doc/xyz", "", "", http.StatusBadRequest, "bad seq"},
		{"subscribe malformed json", "POST", "/subscribe", "application/json", "{not json", http.StatusBadRequest, "bad request body"},
		{"subscribe bad pattern", "POST", "/subscribe", "application/json", `{"pattern": "///["}`, http.StatusBadRequest, ""},
		{"unsubscribe unknown id", "DELETE", "/subscribe/424242", "", "", http.StatusNotFound, "unknown subscription"},
		{"unsubscribe malformed id", "DELETE", "/subscribe/zz", "", "", http.StatusBadRequest, "bad id"},
		{"publish malformed xml", "POST", "/publish", "", "<unclosed>", http.StatusBadRequest, ""},
		{"publish malformed json batch", "POST", "/publish", "application/json", "{not json", http.StatusBadRequest, "bad request body"},
		{"publish json batch wrong shape", "POST", "/publish", "application/json", `42`, http.StatusBadRequest, "want a JSON array"},
		{"publish json batch all invalid", "POST", "/publish", "application/json", `["<unclosed>"]`, http.StatusBadRequest, ""},
		{"deliveries unknown id", "GET", "/deliveries/424242", "", "", http.StatusNotFound, ""},
		{"deliveries malformed max", "GET", "/deliveries/1?max=-3", "", "", http.StatusBadRequest, "bad max"},
		{"deliveries malformed wait", "GET", "/deliveries/1?wait=later", "", "", http.StatusBadRequest, "bad wait"},
		{"explain malformed xml", "POST", "/explain", "", "<unclosed>", http.StatusBadRequest, ""},
		{"introspect routes without overlay", "GET", "/introspect/routes", "", "", http.StatusNotFound, "routing tables live on the overlay"},
		{"introspect links without overlay", "GET", "/introspect/links", "", "", http.StatusNotFound, "links live on the overlay"},
		{"ack malformed id", "POST", "/ack/zz", "application/json", `{"cursor": 1}`, http.StatusBadRequest, "bad id"},
		{"ack malformed body", "POST", "/ack/2", "application/json", "{not json", http.StatusBadRequest, "bad request body"},
		{"ack unknown id", "POST", "/ack/424242", "application/json", `{"cursor": 1}`, http.StatusNotFound, "unknown subscription"},
		{"ack at-most-once subscription", "POST", "/ack/1", "application/json", `{"cursor": 1}`, http.StatusConflict, "not at-least-once"},
		{"ack unissued cursor", "POST", "/ack/2", "application/json", `{"cursor": 99}`, http.StatusBadRequest, "never issued"},
		{"ack on a closed engine", "POST", "/ack/2", "application/json", `{"cursor": 0}`, http.StatusServiceUnavailable, "engine closed"},
		{"publish on a closed engine", "POST", "/publish", "application/xml", "<a><b/></a>", http.StatusServiceUnavailable, "engine closed"},
		{"explain on a closed engine", "POST", "/explain", "application/xml", "<a><b/></a>", http.StatusServiceUnavailable, "engine closed"},
	}
	for _, tc := range cases {
		if strings.HasSuffix(tc.name, "on a closed engine") { // these rows come last
			eng.Close()
		}
		t.Run(tc.name, func(t *testing.T) {
			var w *httptest.ResponseRecorder
			if tc.name == "publish json batch all invalid" {
				w = do(t, h, tc.method, tc.path, tc.ctype, tc.body)
				// Batch responses carry the error inside the summary, not
				// the uniform shape — assert the status and first_error.
				if w.Code != tc.wantStatus {
					t.Fatalf("status = %d, want %d (%s)", w.Code, tc.wantStatus, w.Body.String())
				}
				var resp batchResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				if resp.Errors != 1 || resp.FirstError == "" || resp.Published != 0 {
					t.Fatalf("batch error accounting wrong: %+v", resp)
				}
				return
			}
			w = do(t, h, tc.method, tc.path, tc.ctype, tc.body)
			if w.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (%s)", w.Code, tc.wantStatus, w.Body.String())
			}
			msg := errorBody(t, w)
			if tc.wantSubstr != "" && !strings.Contains(msg, tc.wantSubstr) {
				t.Fatalf("error %q does not mention %q", msg, tc.wantSubstr)
			}
		})
	}
}

// failingJournal fails every append, latching the engine degraded.
type failingJournal struct{}

func (failingJournal) Append(persist.Record) (uint64, error) {
	return 0, errors.New("disk gone")
}

// TestSubscribeUnavailableIs503: a subscribe the engine cannot take now
// — degraded, for an at-least-once contract, or closed — answers 503,
// so a client can tell "retry later" from a bad pattern, which stays 400.
func TestSubscribeUnavailableIs503(t *testing.T) {
	h, eng, _ := testHandler(t)
	eng.SetJournal(failingJournal{})
	if _, err := eng.Subscribe("/a"); err != nil || !eng.Degraded() {
		t.Fatalf("subscribe into a failing journal: %v, degraded %v", err, eng.Degraded())
	}
	for _, tc := range []struct {
		name, body string
		close      bool
		wantStatus int
	}{
		{"bad pattern", `{"pattern": "///["}`, false, http.StatusBadRequest},
		{"degraded at-least-once", `{"pattern": "/b", "mode": "at-least-once"}`, false, http.StatusServiceUnavailable},
		{"closed engine", `{"pattern": "/b"}`, true, http.StatusServiceUnavailable},
		{"bad pattern on a closed engine", `{"pattern": "///["}`, true, http.StatusBadRequest},
	} {
		if tc.close {
			eng.Close()
		}
		w := do(t, h, "POST", "/subscribe", "application/json", tc.body)
		if w.Code != tc.wantStatus {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, w.Code, tc.wantStatus, w.Body.String())
		}
		errorBody(t, w)
	}
}

// TestOversizeBodyIs413: a body of exactly -max-body bytes is served, one
// byte more answers 413 with the uniform error shape, for raw XML on
// /publish and /explain and for a JSON batch on /publish.
func TestOversizeBodyIs413(t *testing.T) {
	h, _, _ := testHandler(t)
	xmlBody := func(size int) string {
		const head, tail = "<a><b/><!--", "--></a>"
		return head + strings.Repeat("x", size-len(head)-len(tail)) + tail
	}
	jsonBody := func(size int) string {
		const head, tail = `["<a><b/></a>"`, `]`
		return head + strings.Repeat(" ", size-len(head)-len(tail)) + tail
	}
	for _, tc := range []struct {
		name, path, ctype string
		body              func(size int) string
	}{
		{"publish xml", "/publish", "application/xml", xmlBody},
		{"explain xml", "/explain", "application/xml", xmlBody},
		{"publish json batch", "/publish", "application/json", jsonBody},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if w := do(t, h, "POST", tc.path, tc.ctype, tc.body(testMaxBody)); w.Code != http.StatusOK {
				t.Fatalf("%d-byte body: status = %d, want 200 (%s)", testMaxBody, w.Code, w.Body.String())
			}
			w := do(t, h, "POST", tc.path, tc.ctype, tc.body(testMaxBody+1))
			if w.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%d-byte body: status = %d, want 413 (%s)", testMaxBody+1, w.Code, w.Body.String())
			}
			if msg := errorBody(t, w); !strings.Contains(msg, "too large") {
				t.Fatalf("error %q does not say the body was too large", msg)
			}
		})
	}
}

// TestOverDeepBodyIs400: a body under -max-body whose elements nest
// past xmltree.MaxDepth — 140 000 deep here, which once cost a
// 1000-subscription daemon 3 s and 680 MB of match scratch sized per
// level — is refused by the parser on both paths that take one: cheaply,
// before anything is sized by its depth. A document at the bound routes.
func TestOverDeepBodyIs400(t *testing.T) {
	h, eng, _ := testHandler(t)
	for i := 0; i < 100; i++ {
		if _, err := eng.Subscribe(fmt.Sprintf("//a/a/a/n%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	chain := func(depth int) string { return strings.Repeat("<a>", depth) + strings.Repeat("</a>", depth) }
	if w := do(t, h, "POST", "/publish", "application/xml", chain(xmltree.MaxDepth-2)); w.Code != http.StatusOK {
		t.Fatalf("a document at the depth bound: status %d (%s)", w.Code, w.Body.String())
	}
	deep := chain(140000)
	for _, path := range []string{"/publish", "/explain"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		w := do(t, h, "POST", path, "application/xml", deep)
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		if w.Code != http.StatusBadRequest || !strings.Contains(errorBody(t, w), "nested deeper") {
			t.Fatalf("%s: status %d (%s), want 400 naming the depth", path, w.Code, w.Body.String())
		}
		if grew := after.TotalAlloc - before.TotalAlloc; took > 50*time.Millisecond && !raceEnabled || grew > 8<<20 {
			t.Errorf("%s: refusing %d bytes took %v and allocated %.1f MB; want under 50ms and 8 MB", path, len(deep), took, float64(grew)/(1<<20))
		}
	}
	if got := eng.Stats().Published; got != 1 {
		t.Errorf("%d documents published, want only the one at the bound", got)
	}
}

// TestPublishBatchEndpoint drives the JSON batch form of POST /publish
// through the gate and mux: a bare array and the {"docs": [...]} wrapper
// both route every document in order, and a malformed document inside a
// batch is skipped and counted while the others still route.
func TestPublishBatchEndpoint(t *testing.T) {
	h, eng, _ := testHandler(t)
	gate := newServerGate()
	gate.setReady(h)
	for _, pat := range []string{"/a/b", "//c"} { // ids 1 and 2
		if w := do(t, gate, "POST", "/subscribe", "application/json", `{"pattern": "`+pat+`"}`); w.Code != http.StatusOK {
			t.Fatalf("subscribe %s: %d %s", pat, w.Code, w.Body.String())
		}
	}
	publish := func(body string) batchResponse {
		t.Helper()
		w := do(t, gate, "POST", "/publish", "application/json", body)
		if w.Code != http.StatusOK {
			t.Fatalf("batch %s: status %d (%s)", body, w.Code, w.Body.String())
		}
		var resp batchResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Seqs 1–3: one document for each subscription and one for nobody.
	if got, want := publish(`["<a><b/></a>", "<c/>", "<z/>"]`), (batchResponse{Published: 3, Matched: 2, Deliveries: 2}); got != want {
		t.Errorf("bare array: %+v, want %+v", got, want)
	}
	// Seq 4.
	if got, want := publish(`{"docs": ["<a><b/><c/></a>"]}`), (batchResponse{Published: 1, Matched: 2, Deliveries: 2}); got != want {
		t.Errorf("wrapped form: %+v, want %+v", got, want)
	}
	// Seqs 5 and 6; the middle document never gets one.
	got := publish(`["<a><b/></a>", "<unclosed>", "<c/>"]`)
	if got.Published != 2 || got.Deliveries != 2 || got.Errors != 1 || !strings.HasPrefix(got.FirstError, "doc 1:") {
		t.Errorf("batch with a malformed document: %+v, want 2 published, 2 deliveries, 1 error naming doc 1", got)
	}

	if n := eng.Stats().Published; n != 6 {
		t.Errorf("engine published %d documents, want 6", n)
	}
	for id, want := range map[int][]uint64{1: {1, 4, 5}, 2: {2, 4, 6}} {
		w := do(t, gate, "GET", fmt.Sprintf("/deliveries/%d?max=100", id), "", "")
		var dr struct {
			Deliveries []broker.Delivery `json:"deliveries"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &dr); err != nil {
			t.Fatal(err)
		}
		var docs []uint64
		for _, d := range dr.Deliveries {
			docs = append(docs, d.Doc)
		}
		if fmt.Sprint(docs) != fmt.Sprint(want) {
			t.Errorf("subscription %d drained docs %v, want %v", id, docs, want)
		}
	}
}

// TestStatsDuringDrain pins the gate contract: a draining daemon still
// answers reads (GET /stats) but refuses writes with the JSON error
// shape, and /healthz reports the draining phase.
func TestStatsDuringDrain(t *testing.T) {
	h, _, _ := testHandler(t)
	gate := newServerGate()
	gate.setReady(h)
	gate.setDraining()

	w := do(t, gate, "GET", "/stats", "", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /stats while draining = %d, want 200 (%s)", w.Code, w.Body.String())
	}
	var st broker.Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats body not decodable while draining: %v", err)
	}

	w = do(t, gate, "POST", "/publish", "", "<a/>")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("POST /publish while draining = %d, want 503", w.Code)
	}
	if msg := errorBody(t, w); !strings.Contains(msg, "shutting down") {
		t.Fatalf("drain refusal message = %q", msg)
	}

	w = do(t, gate, "GET", "/healthz", "", "")
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "draining") {
		t.Fatalf("healthz while draining = %d %q", w.Code, w.Body.String())
	}
}

// TestExplainEndpointAgreesWithPublish is the HTTP-level differential
// check: POST /explain's predicted delivery set must match what POST
// /publish of the same document then reports and what the consumers
// actually drain.
func TestExplainEndpointAgreesWithPublish(t *testing.T) {
	h, _, _ := testHandler(t)
	subIDs := map[uint64]bool{}
	for _, pat := range []string{"/x/y", "/x[y]", "/z", "//w"} {
		w := do(t, h, "POST", "/subscribe", "application/json", `{"pattern": "`+pat+`"}`)
		if w.Code != http.StatusOK {
			t.Fatalf("subscribe %s: %d %s", pat, w.Code, w.Body.String())
		}
		var resp struct {
			ID uint64 `json:"id"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		subIDs[resp.ID] = true
	}

	const docXML = "<x><y><w/></y></x>"
	w := do(t, h, "POST", "/explain", "", docXML)
	if w.Code != http.StatusOK {
		t.Fatalf("explain: %d %s", w.Code, w.Body.String())
	}
	var ex struct {
		Local broker.Explanation `json:"local"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &ex); err != nil {
		t.Fatal(err)
	}
	if len(ex.Local.Deliveries) == 0 {
		t.Fatalf("explain predicted no deliveries for %s: %s", docXML, w.Body.String())
	}

	w = do(t, h, "POST", "/publish", "", docXML)
	if w.Code != http.StatusOK {
		t.Fatalf("publish: %d %s", w.Code, w.Body.String())
	}
	var pub publishResponse
	if err := json.Unmarshal(w.Body.Bytes(), &pub); err != nil {
		t.Fatal(err)
	}
	if pub.Deliveries != len(ex.Local.Deliveries) {
		t.Fatalf("publish delivered to %d queues, explain predicted %d (%v)",
			pub.Deliveries, len(ex.Local.Deliveries), ex.Local.Deliveries)
	}
	for _, id := range ex.Local.Deliveries {
		if !subIDs[id] {
			t.Fatalf("explain predicted delivery to unknown subscription %d", id)
		}
		w := do(t, h, "GET", "/deliveries/"+strconvU(id), "", "")
		if w.Code != http.StatusOK {
			t.Fatalf("deliveries/%d: %d", id, w.Code)
		}
		var dr struct {
			Deliveries []broker.Delivery `json:"deliveries"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &dr); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, d := range dr.Deliveries {
			found = found || d.Doc == pub.Seq
		}
		if !found {
			t.Fatalf("subscription %d drained nothing for doc %d despite prediction", id, pub.Seq)
		}
	}
}

func strconvU(v uint64) string {
	const digits = "0123456789"
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = digits[v%10]
		v /= 10
	}
	return string(b[i:])
}

// TestEventsEndpoint pins the /events contract: an empty ring answers
// an empty JSON list, and captured WARN records surface with their
// attrs and lifetime total.
func TestEventsEndpoint(t *testing.T) {
	h, _, events := testHandler(t)
	w := do(t, h, "GET", "/events", "", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"events":[]`) {
		t.Fatalf("empty events = %d %q", w.Code, w.Body.String())
	}
	events.Add(telemetry.Event{Level: "WARN", Message: "link down", Attrs: map[string]string{"peer": "n2"}})
	w = do(t, h, "GET", "/events", "", "")
	var resp struct {
		Events []telemetry.Event `json:"events"`
		Total  uint64            `json:"total"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Events) != 1 || resp.Total != 1 {
		t.Fatalf("events = %+v", resp)
	}
	if e := resp.Events[0]; e.Message != "link down" || e.Attrs["peer"] != "n2" || e.Seq != 1 {
		t.Fatalf("event round-trip mangled: %+v", e)
	}
}

// TestIntrospectEndpointsStandalone exercises the broker-backed
// introspection surfaces end to end through the mux.
func TestIntrospectEndpointsStandalone(t *testing.T) {
	h, _, _ := testHandler(t)
	for _, pat := range []string{"/a/b", "/a/b[c]"} {
		if w := do(t, h, "POST", "/subscribe", "application/json", `{"pattern": "`+pat+`"}`); w.Code != http.StatusOK {
			t.Fatalf("subscribe: %d", w.Code)
		}
	}
	if w := do(t, h, "POST", "/publish", "application/xml", "<a><b><c/></b></a>"); w.Code != http.StatusOK {
		t.Fatalf("publish: %d", w.Code)
	}
	w := do(t, h, "GET", "/introspect/communities", "", "")
	if w.Code != http.StatusOK {
		t.Fatalf("communities: %d", w.Code)
	}
	var comms struct {
		Communities []broker.CommunityInfo `json:"communities"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &comms); err != nil {
		t.Fatal(err)
	}
	if len(comms.Communities) == 0 {
		t.Fatalf("no communities introspected: %s", w.Body.String())
	}
	// Nobody has drained the one publish: every community's log holds it,
	// and its members are that one entry behind.
	for _, c := range comms.Communities {
		if c.LogEntries != 1 || c.SlowestLag != 1 {
			t.Errorf("community %d: %d log entries, slowest lag %d; want 1 and 1", c.Community, c.LogEntries, c.SlowestLag)
		}
	}
	if body := w.Body.String(); !strings.Contains(body, `"log_entries":1`) || !strings.Contains(body, `"slowest_lag":1`) {
		t.Errorf("communities JSON lacks log_entries/slowest_lag: %s", body)
	}
	w = do(t, h, "GET", "/introspect/subscriptions", "", "")
	var subs struct {
		Subscriptions []broker.SubscriptionInfo `json:"subscriptions"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &subs); err != nil {
		t.Fatal(err)
	}
	if len(subs.Subscriptions) != 2 {
		t.Fatalf("introspected %d subscriptions, want 2", len(subs.Subscriptions))
	}
}

// federatedDaemon is the daemon's handler stack — gate, mux, overlay
// node — behind a real loopback listener, as main assembles it.
func federatedDaemon(t *testing.T, id string) (*overlay.Node, string) {
	t.Helper()
	reg := telemetry.NewRegistry()
	eng := broker.New(broker.Config{Telemetry: reg, Threshold: 2})
	t.Cleanup(func() { eng.Close() })
	gate := newServerGate()
	srv := httptest.NewServer(gate)
	t.Cleanup(srv.Close)
	node := overlay.New(eng, overlay.Config{
		ID: id, Addr: srv.URL, Telemetry: reg,
		AdvertPolicy: broker.Staleness{MaxStale: 1}, AdvertTTL: -1,
	})
	t.Cleanup(node.Close)
	logger := slog.New(slog.DiscardHandler)
	d := &daemon{eng: eng, node: node, reg: reg, events: telemetry.NewEventRing(16), logger: logger, maxBody: testMaxBody, peerTimeout: time.Second, mode: broker.AtMostOnce}
	gate.setReady(d.handler())
	return node, srv.URL
}

// TestExplainScenarioStatus: POST /explain answers 400 for a scenario
// no publication can be in — an arrival link without an origin, or one
// the node does not have, and on a standalone daemon, which has no
// links, any arrival link — and 503 only once the node is closed.
func TestExplainScenarioStatus(t *testing.T) {
	node, url := federatedDaemon(t, "A")
	h, _, _ := testHandler(t)
	standalone := httptest.NewServer(h)
	t.Cleanup(standalone.Close)
	explain := func(base, query string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+"/explain"+query, "application/xml", strings.NewReader("<x><y/></x>"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}
	for _, tc := range []struct {
		name, base, query string
		wantStatus        int
		wantSubstr        string
	}{
		{"local publication", url, "", http.StatusOK, ""},
		{"from without origin", url, "?from=B", http.StatusBadRequest, ""},
		{"from naming no link", url, "?origin=B&from=B", http.StatusBadRequest, `from \"B\" names no attached link`},
		{"standalone from", standalone.URL, "?from=B", http.StatusBadRequest, `from \"B\" names no attached link`},
		{"standalone origin alone", standalone.URL, "?origin=B", http.StatusOK, `"local"`},
	} {
		if code, body := explain(tc.base, tc.query); code != tc.wantStatus || !strings.Contains(body, tc.wantSubstr) {
			t.Errorf("%s: POST /explain%s = %d %s, want %d mentioning %s", tc.name, tc.query, code, body, tc.wantStatus, tc.wantSubstr)
		}
	}
	node.Close()
	if code, body := explain(url, ""); code != http.StatusServiceUnavailable {
		t.Errorf("closed node: POST /explain = %d %s, want 503", code, body)
	}
}

// TestPeerStreamThroughTheDaemon: two daemons federate over GET
// /peer/stream through the real gate and mux (the upgrade must survive
// both), the per-request peer endpoints of the old protocol are gone,
// and the link's frame and byte counters show up where operators look.
func TestPeerStreamThroughTheDaemon(t *testing.T) {
	a, urlA := federatedDaemon(t, "A")
	_, urlB := federatedDaemon(t, "B")
	if err := overlay.DialPeer(a, urlB, time.Second); err != nil {
		t.Fatal(err)
	}
	post := func(url, contentType, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(url, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}
	for _, path := range []string{"/peer/publish", "/peer/advert"} {
		if code, _ := post(urlB+path, "application/json", `{"proto":1}`); code != http.StatusNotFound && code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: HTTP %d, want 404 or 405 — the endpoint is deleted", path, code)
		}
	}
	resp, err := http.Get(urlB + "/peer/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired {
		t.Errorf("GET /peer/stream without Upgrade: HTTP %d, want 426", resp.StatusCode)
	}

	if code, body := post(urlB+"/subscribe", "application/json", `{"pattern":"/x/y"}`); code != http.StatusOK {
		t.Fatalf("subscribe at B: %d %s", code, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := post(urlA+"/publish", "", "<x><y/></x>")
		if code != http.StatusOK {
			t.Fatalf("publish at A: %d %s", code, body)
		}
		if strings.Contains(body, `"forwarded":1`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("A never forwarded to B: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	get := func(url string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return string(data)
	}
	if body := get(urlB + "/deliveries/1"); !strings.Contains(body, `"doc"`) {
		t.Fatalf("B holds no delivery the moment A's publish returned: %s", body)
	}
	var links struct {
		Links []overlay.LinkInfo `json:"links"`
	}
	if err := json.Unmarshal([]byte(get(urlA+"/introspect/links")), &links); err != nil {
		t.Fatal(err)
	}
	if len(links.Links) != 1 || links.Links[0].PublishFrames != 1 || links.Links[0].PublishBytes == 0 ||
		links.Links[0].AdvertFrames == 0 || links.Links[0].AdvertBytes == 0 {
		t.Fatalf("/introspect/links at A: %+v, want one link with 1 publish frame and advert traffic", links.Links)
	}
	metrics := get(urlA + "/metrics")
	for _, want := range []string{
		`treesim_overlay_link_frames_total{kind="publish",peer="B"} 1`,
		`treesim_overlay_link_bytes_total{kind="advert",peer="B"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics at A lacks %s", want)
		}
	}
}

// TestDocEndpointServesThePublishedTree pins GET /doc/{seq}'s body: the
// compact serialization of the tree the publish parsed, byte for byte,
// though the daemon keeps the document packed in between.
func TestDocEndpointServesThePublishedTree(t *testing.T) {
	h, _, _ := testHandler(t)
	docs := []string{
		`<a/>`,
		`<?xml version="1.0"?><nitf id="7"><head><title>t &amp; u</title></head><body><p>one</p><p>two</p><p/></body></nitf>`,
		"<r>\n  <ns:x xmlns:ns=\"u\"><y/><y/></ns:x>\n  <x><y><x/></y></x>\n</r>",
	}
	for i, doc := range docs {
		if w := do(t, h, "POST", "/publish", "", doc); w.Code != http.StatusOK {
			t.Fatalf("publish %d: status %d (%s)", i, w.Code, w.Body.String())
		}
		tr, err := xmltree.ParseString(doc, xmltree.ParseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := xmltree.XMLString(tr, false)
		if err != nil {
			t.Fatal(err)
		}
		w := do(t, h, "GET", fmt.Sprintf("/doc/%d", i+1), "", "")
		if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "application/xml" {
			t.Fatalf("GET /doc/%d: status %d, Content-Type %q", i+1, w.Code, w.Header().Get("Content-Type"))
		}
		if got := w.Body.String(); got != want {
			t.Errorf("GET /doc/%d = %q, want %q", i+1, got, want)
		}
	}
}
