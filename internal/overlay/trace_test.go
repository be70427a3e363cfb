package overlay

import (
	"strings"
	"testing"

	"treesim/internal/telemetry"
	"treesim/internal/xmltree"
)

// collectSpans gathers every node's retained spans for one trace ID —
// what treesim-net and the daemon's /trace endpoint do across HTTP,
// done in-process here.
func collectSpans(nodes []*Node, id string) []telemetry.Span {
	var all []telemetry.Span
	for _, n := range nodes {
		all = append(all, n.TraceSpans(id)...)
	}
	return all
}

// TestPublicationTraceAcrossHops is the tentpole acceptance check in
// miniature: a trace ID injected at A must be retrievable at every hop
// of an A—B—C line, and the spans must assemble into a consistent
// forwarding tree (one origin span, every other span's From edge
// pointing at a node that also holds a span, at most one span per
// node).
func TestPublicationTraceAcrossHops(t *testing.T) {
	a := newNode(t, "a", Config{})
	b := newNode(t, "b", Config{})
	c := newNode(t, "c", Config{})
	nodes := []*Node{a, b, c}
	connect(t, a, b)
	connect(t, b, c)

	subB := mustSubscribe(t, b, "//y")
	subC := mustSubscribe(t, c, "/x/y")

	res, sent, id, err := a.PublishTraced(xmltree.Pack(doc(t, "<x><y/></x>")))
	if err != nil || sent != 1 {
		t.Fatalf("traced publish: sent=%d err=%v", sent, err)
	}
	if len(id) != telemetry.TraceIDLen || strings.Trim(id, "0123456789abcdef") != "" {
		t.Fatalf("trace id %q is not %d hex chars", id, telemetry.TraceIDLen)
	}

	spans := collectSpans(nodes, id)
	if len(spans) != 3 {
		t.Fatalf("got %d spans for trace %s, want one per node: %+v", len(spans), id, spans)
	}
	byNode := map[string]telemetry.Span{}
	for _, sp := range spans {
		if _, dup := byNode[sp.Node]; dup {
			t.Fatalf("node %s recorded two spans for one trace", sp.Node)
		}
		byNode[sp.Node] = sp
		if sp.Trace != id || sp.Origin != "a" || sp.Seq == 0 {
			t.Fatalf("span carries wrong identity: %+v", sp)
		}
		if sp.MatchNS < 0 || sp.QueueWaitNS < 0 || sp.StartUnixNS <= 0 {
			t.Fatalf("span timings implausible: %+v", sp)
		}
	}
	// Tree shape: a is the root (no arrival link), every other span's
	// From edge lands on a node that forwarded to it.
	origin := byNode["a"]
	if origin.From != "" {
		t.Fatalf("origin span has arrival link %q, want none", origin.From)
	}
	for _, node := range []string{"b", "c"} {
		sp, ok := byNode[node]
		if !ok {
			t.Fatalf("no span at hop %s", node)
		}
		parent, ok := byNode[sp.From]
		if !ok {
			t.Fatalf("span at %s arrived from %q, which holds no span", node, sp.From)
		}
		found := false
		for _, to := range parent.ForwardedTo {
			if to == node {
				found = true
			}
		}
		if !found {
			t.Fatalf("parent %s span does not list %s in ForwardedTo %v", sp.From, node, parent.ForwardedTo)
		}
	}
	// Delivery counts line up with the subscriptions in place.
	if origin.Deliveries != res.Deliveries {
		t.Fatalf("origin span deliveries %d != publish result %d", origin.Deliveries, res.Deliveries)
	}
	if byNode["b"].Deliveries != 1 || byNode["c"].Deliveries != 1 {
		t.Fatalf("hop deliveries b=%d c=%d, want 1/1", byNode["b"].Deliveries, byNode["c"].Deliveries)
	}
	drainAll(t, b, subB)
	drainAll(t, c, subC)

	// A second publication gets a distinct ID and its own span set.
	_, _, id2, err := a.PublishTraced(xmltree.Pack(doc(t, "<x><y/></x>")))
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatal("two publications share a trace id")
	}
	if got := len(collectSpans(nodes, id2)); got != 3 {
		t.Fatalf("second trace has %d spans, want 3", got)
	}
	if got := len(collectSpans(nodes, id)); got != 3 {
		t.Fatalf("first trace lost spans after second publish: %d", got)
	}
}

// TestTraceDisabled: TraceCapacity < 0 publishes untraced frames and
// retains nothing; Publish keeps working.
func TestTraceDisabled(t *testing.T) {
	a := newNode(t, "a", Config{TraceCapacity: -1})
	b := newNode(t, "b", Config{TraceCapacity: -1})
	connect(t, a, b)
	mustSubscribe(t, b, "//y")

	_, sent, id, err := a.PublishTraced(xmltree.Pack(doc(t, "<x><y/></x>")))
	if err != nil || sent != 1 {
		t.Fatalf("publish with tracing off: sent=%d err=%v", sent, err)
	}
	if id != "" {
		t.Fatalf("tracing disabled but got id %q", id)
	}
	if spans := a.TraceSpans("anything"); spans != nil {
		t.Fatalf("disabled node returned spans: %v", spans)
	}
}

// TestOverlayMetricsExposition: node counters and per-link series land
// in a shared registry under their documented names.
func TestOverlayMetricsExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := newNode(t, "a", Config{Telemetry: reg})
	b := newNode(t, "b", Config{})
	connect(t, a, b)
	mustSubscribe(t, b, "//y")

	if _, sent, err := a.Publish(doc(t, "<x><y/></x>")); err != nil || sent != 1 {
		t.Fatalf("publish: sent=%d err=%v", sent, err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("overlay exposition does not parse: %v\n%s", err, sb.String())
	}
	sums := telemetry.SumByName(samples)
	ai := a.Info()
	for name, want := range map[string]float64{
		"treesim_overlay_published_total":     float64(ai.Published),
		"treesim_overlay_forwards_sent_total": float64(ai.ForwardsSent),
		"treesim_overlay_adverts_recv_total":  float64(ai.AdvertsRecv),
		"treesim_overlay_link_sends_total":    0, // ≥ forwards+adverts, checked below
		"treesim_overlay_link_up":             1,
	} {
		got, ok := sums[name]
		if !ok {
			t.Errorf("family %s missing from exposition", name)
			continue
		}
		if name == "treesim_overlay_link_sends_total" {
			if got < float64(ai.ForwardsSent) {
				t.Errorf("%s = %g, want >= %d", name, got, ai.ForwardsSent)
			}
			continue
		}
		if got != want {
			t.Errorf("%s = %g, Info says %g", name, got, want)
		}
	}
	// The per-link series must carry the peer label.
	found := false
	for _, s := range samples {
		if s.Name == "treesim_overlay_link_sends_total" && s.Labels["peer"] == "b" {
			found = true
		}
	}
	if !found {
		t.Error(`no treesim_overlay_link_sends_total{peer="b"} series`)
	}
}
