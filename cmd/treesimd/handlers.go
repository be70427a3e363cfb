package main

// The daemon's HTTP surface: one handler per resource over the daemon's
// engine and node, and one rule (status) from their errors to a code.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"treesim/internal/broker"
	"treesim/internal/overlay"
	"treesim/internal/xmltree"
)

// handler is the daemon's mux (method-and-path patterns, Go ≥ 1.22),
// with the overlay's peer endpoints when federated.
func (d *daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /subscribe", d.subscribe)
	mux.HandleFunc("DELETE /subscribe/{id}", d.unsubscribe)
	mux.HandleFunc("POST /publish", d.publish)
	mux.HandleFunc("GET /deliveries/{id}", d.deliveries)
	mux.HandleFunc("POST /ack/{id}", d.ack)
	mux.HandleFunc("GET /doc/{seq}", d.doc)
	mux.HandleFunc("POST /explain", d.explain)
	mux.HandleFunc("/healthz", d.healthz)
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.eng.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := d.reg.WritePrometheus(w); err != nil {
			d.logger.Error("/metrics write failed", "err", err.Error())
		}
	})
	mux.HandleFunc("GET /introspect/communities", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"communities": orEmpty(d.eng.IntrospectCommunities())})
	})
	mux.HandleFunc("GET /introspect/subscriptions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"subscriptions": orEmpty(d.eng.IntrospectSubscriptions())})
	})
	mux.HandleFunc("GET /events", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"events": orEmpty(d.events.Snapshot()), "total": d.events.Total()})
	})
	mux.HandleFunc("GET /introspect/routes", d.overlayOnly("routing tables live on the overlay", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"node": d.node.ID(), "routes": orEmpty(d.node.IntrospectRoutes())})
	}))
	mux.HandleFunc("GET /introspect/links", d.overlayOnly("links live on the overlay", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"node": d.node.ID(), "links": orEmpty(d.node.IntrospectLinks())})
	}))
	mux.HandleFunc("GET /trace/{id}", d.overlayOnly("tracing runs on the overlay", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		writeJSON(w, http.StatusOK, map[string]any{"trace": id, "node": d.node.ID(), "spans": orEmpty(d.node.TraceSpans(id))})
	}))
	if d.node != nil {
		overlay.RegisterHTTP(mux, d.node, d.maxBody, d.peerTimeout)
	}
	return mux
}

// healthz answers readiness once the gate has handed the daemon its
// traffic: 503 "degraded" while a failed store or journal leaves it
// without durability — the daemon is wounded, not dead, so load
// balancers should drain it while every other route keeps serving the
// consumers still reading from it — and 200 "ok" otherwise.
func (d *daemon) healthz(w http.ResponseWriter, r *http.Request) {
	var reason string
	switch {
	case d.store != nil && d.store.Failed():
		reason = "persistent store failed (fail-stop); serving without durability"
	case d.eng.Degraded():
		reason = "journal append failed; serving without durability"
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "degraded", "reason": reason})
}

func (d *daemon) subscribe(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Pattern string `json:"pattern"`
		Mode    string `json:"mode"`
	}
	if err := json.NewDecoder(d.body(r)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	var mode broker.DeliveryMode // at-most-once unless the request names one
	if req.Mode != "" {
		var err error
		if mode, err = broker.ParseDeliveryMode(req.Mode); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	id, err := d.eng.SubscribeOpts(req.Pattern, broker.SubscribeOptions{Mode: mode})
	if err != nil {
		httpError(w, status(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "mode": mode.String()})
}

func (d *daemon) unsubscribe(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r, "id")
	if !ok {
		return
	}
	if !d.eng.Unsubscribe(id) {
		httpError(w, http.StatusNotFound, "unknown subscription %d", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// publishResponse is the POST /publish payload: the local routing
// summary plus how many overlay links the document was forwarded on
// and, when federated with tracing enabled, the trace ID under which
// GET /trace/{id} retrieves the hop spans at every broker it reached.
type publishResponse struct {
	broker.PublishResult
	Forwarded int    `json:"forwarded"`
	Trace     string `json:"trace,omitempty"`
}

func (d *daemon) publish(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		d.publishBatch(w, r)
		return
	}
	t, err := xmltree.Parse(d.body(r), d.eng.Estimator().Config().ParseOptions)
	if err != nil {
		httpError(w, status(err), "treesimd: publish: %v", err)
		return
	}
	resp := publishResponse{}
	if d.node != nil {
		resp.PublishResult, resp.Forwarded, resp.Trace, err = d.node.PublishTraced(t)
	} else {
		resp.PublishResult, err = d.eng.Publish(t)
	}
	if err != nil {
		httpError(w, status(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// batchResponse summarizes a batched POST /publish: aggregate routing
// counts across the batch, plus per-batch error accounting (documents
// that fail to parse are skipped and counted, the rest are published).
type batchResponse struct {
	Published  int    `json:"published"`
	Matched    int    `json:"matched"`
	Deliveries int    `json:"deliveries"`
	Dropped    int    `json:"dropped"`
	Forwarded  int    `json:"forwarded"`
	Errors     int    `json:"errors"`
	FirstError string `json:"first_error,omitempty"`
}

func (b *batchResponse) add(res broker.PublishResult, forwarded int) {
	b.Published++
	b.Matched += res.Matched
	b.Deliveries += res.Deliveries
	b.Dropped += res.Dropped
	b.Forwarded += forwarded
}

// publishBatch publishes a JSON array of XML document strings (bare, or
// wrapped as {"docs": [...]}) one document at a time through the single
// publish path. A document that fails to parse is skipped and counted;
// the batch is a 400 only when every document failed.
func (d *daemon) publishBatch(w http.ResponseWriter, r *http.Request) {
	var raw json.RawMessage
	if err := json.NewDecoder(d.body(r)).Decode(&raw); err != nil {
		httpError(w, status(err), "bad request body: %v", err)
		return
	}
	var docs []string
	if err := json.Unmarshal(raw, &docs); err != nil {
		var wrapped struct {
			Docs []string `json:"docs"`
		}
		if err := json.Unmarshal(raw, &wrapped); err != nil {
			httpError(w, http.StatusBadRequest, "want a JSON array of XML strings or {\"docs\": [...]}: %v", err)
			return
		}
		docs = wrapped.Docs
	}
	resp := batchResponse{}
	opts := d.eng.Estimator().Config().ParseOptions
	for i, doc := range docs {
		t, err := xmltree.ParseString(doc, opts)
		if err != nil {
			if resp.Errors++; resp.Errors == 1 {
				resp.FirstError = fmt.Sprintf("doc %d: %v", i, err)
			}
			continue
		}
		var res broker.PublishResult
		fwd := 0
		if d.node != nil {
			res, fwd, err = d.node.Publish(t)
		} else {
			res, err = d.eng.Publish(t)
		}
		if err != nil {
			httpError(w, status(err), "%v", err)
			return
		}
		resp.add(res, fwd)
	}
	code := http.StatusOK
	if resp.Published == 0 && resp.Errors > 0 {
		code = http.StatusBadRequest
	}
	writeJSON(w, code, resp)
}

func (d *daemon) deliveries(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r, "id")
	if !ok {
		return
	}
	max, wait := 1000, time.Duration(0)
	var err error
	if s := r.URL.Query().Get("max"); s != "" {
		if max, err = strconv.Atoi(s); err != nil || max <= 0 {
			httpError(w, http.StatusBadRequest, "bad max %q", s)
			return
		}
	}
	if s := r.URL.Query().Get("wait"); s != "" {
		if wait, err = time.ParseDuration(s); err != nil || wait < 0 {
			httpError(w, http.StatusBadRequest, "bad wait %q", s)
			return
		}
		wait = min(wait, 30*time.Second)
	}
	res, err := d.eng.DrainBatch(id, max, wait)
	if err != nil {
		httpError(w, status(err), "%v", err)
		return
	}
	resp := map[string]any{
		"deliveries": orEmpty(res.Deliveries),
		"pending":    d.eng.Pending(id),
		"mode":       res.Mode.String(),
	}
	if res.Mode == broker.AtLeastOnce {
		// Batch bookkeeping for the ack protocol: cursor is what the
		// consumer acks after processing, committed its durable floor.
		resp["cursor"] = res.Cursor
		resp["committed"] = res.Committed
		if res.Redelivered > 0 {
			resp["redelivered"] = res.Redelivered
		}
	} else {
		// Explicit loss marker: deliveries evicted (drop-oldest) since
		// the previous poll observed the queue.
		resp["gap"] = res.Gap
	}
	writeJSON(w, http.StatusOK, resp)
}

// ack commits an at-least-once consumer's progress: every delivery with
// cursor ≤ the posted cursor is discharged, never to be redelivered,
// and its document's retention pin drops. Acks are idempotent;
// re-acking a committed cursor is a 200 with acked 0.
func (d *daemon) ack(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r, "id")
	if !ok {
		return
	}
	var req struct {
		Cursor uint64 `json:"cursor"`
	}
	if err := json.NewDecoder(d.body(r)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	acked, err := d.eng.Ack(id, req.Cursor)
	if err != nil {
		httpError(w, status(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"acked": acked})
}

func (d *daemon) doc(w http.ResponseWriter, r *http.Request) {
	seq, ok := pathID(w, r, "seq")
	if !ok {
		return
	}
	t := d.eng.Document(seq)
	if t == nil {
		httpError(w, http.StatusNotFound, "document %d not retained", seq)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	xmltree.WriteXML(w, t, false)
}

// explain dry-runs the routing decision for a document without
// publishing it: the body is raw XML exactly as POST /publish takes it,
// the response the structured decision record. Federated daemons
// include the per-link forward plan; ?origin= and ?from= re-run the
// plan as if the document were a forwarded publication from that
// origin arriving on that link; a from without an origin, or naming no
// attached link, answers 400 — on a standalone daemon every from does.
func (d *daemon) explain(w http.ResponseWriter, r *http.Request) {
	t, err := xmltree.Parse(d.body(r), d.eng.Estimator().Config().ParseOptions)
	if err != nil {
		httpError(w, status(err), "treesimd: explain: %v", err)
		return
	}
	origin, from := r.URL.Query().Get("origin"), r.URL.Query().Get("from")
	var ex any
	switch {
	case d.node != nil:
		ex, err = d.node.ExplainForward(t, origin, from)
	case from != "":
		err = fmt.Errorf("%w: from %q names no attached link", overlay.ErrScenario, from)
	default:
		// Same envelope shape as the federated answer, minus the plan.
		var local *broker.Explanation
		local, err = d.eng.Explain(t)
		ex = map[string]any{"local": local}
	}
	if err != nil {
		httpError(w, status(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ex)
}

// overlayOnly answers 404 on a standalone daemon, saying what lives on
// the overlay, and runs h on a federated one.
func (d *daemon) overlayOnly(what string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if d.node == nil {
			httpError(w, http.StatusNotFound, "%s; start with -federate or -peers", what)
			return
		}
		h(w, r)
	}
}

// status is the one rule from an error the engine, the node or a
// request body returned to an HTTP status: unavailable (retry later,
// elsewhere), unknown subscription, wrong delivery mode, body past
// -max-body, and anything else — the request itself is at fault.
func status(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.Is(err, broker.ErrClosed), errors.Is(err, broker.ErrDegraded), errors.Is(err, overlay.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, broker.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, broker.ErrWrongMode):
		return http.StatusConflict
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// pathID parses the {name} path segment as an unsigned integer; when it
// is not one, it answers 400 and reports false.
func pathID(w http.ResponseWriter, r *http.Request, name string) (uint64, bool) {
	v, err := strconv.ParseUint(r.PathValue(name), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad %s: %v", name, err)
	}
	return v, err == nil
}

// orEmpty makes a nil list encode as [] rather than null.
func orEmpty[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}

// body bounds a request body at -max-body.
func (d *daemon) body(r *http.Request) io.Reader {
	return http.MaxBytesReader(nil, r.Body, d.maxBody)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
