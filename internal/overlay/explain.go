package overlay

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"treesim/internal/broker"
	"treesim/internal/xmltree"
)

// This file is the overlay's explainability and introspection surface:
// a side-effect-free dry run of the forwarding decision (ExplainForward)
// and read-only snapshots of the routing table and link health. Like
// broker.Engine.Explain, nothing here touches a publish path: no
// sequence numbers are assigned, no seen-set entries added, no bytes
// sent, no counters moved.

// OriginMatch records that an origin's advertised aggregate matched the
// explained document on some link — the reason a forward would happen.
type OriginMatch struct {
	Origin string `json:"origin"`
	// Version is the advert version the routing table held for the
	// origin when the decision read its route.
	Version uint64 `json:"version"`
	// Patterns is how many of the origin's advertised covering patterns
	// matched (≥1; more means the document is squarely inside the
	// aggregate, not grazing one cover).
	Patterns int `json:"patterns"`
}

// Forward-verdict reasons. Exactly one applies per link.
const (
	// ReasonMatch: some reachable origin's aggregate matched — forward.
	ReasonMatch = "match"
	// ReasonNoMatch: aggregates were consulted and none matched.
	ReasonNoMatch = "no-match"
	// ReasonNoAggregates: no origin (besides the publication's own) is
	// routed via this link, so there is nothing to match against.
	ReasonNoAggregates = "no-aggregates"
	// ReasonDown: the link is in the damping set; forwarding skips it
	// until a maintenance probe recovers it.
	ReasonDown = "down"
	// ReasonArrival: the publication arrived on this link; forwarding
	// never echoes it back.
	ReasonArrival = "arrival"
)

// ForwardVerdict is one link's share of a forwarding decision.
type ForwardVerdict struct {
	// Peer is the link's peer node id.
	Peer string `json:"peer"`
	// Forward reports whether the document would be sent on this link;
	// Reason says why (ReasonMatch when forwarding, else the skip
	// cause).
	Forward bool   `json:"forward"`
	Reason  string `json:"reason"`
	// Matched lists the origins whose adverts matched (reason "match"),
	// sorted by origin.
	Matched []OriginMatch `json:"matched,omitempty"`
}

// ForwardExplanation is the full decision record for one document at
// one node: the local broker verdicts plus the per-link forward plan.
type ForwardExplanation struct {
	// Node is the explaining node's overlay id; Origin the publication
	// origin the plan assumed (this node for a local publish) and From
	// the assumed arrival link ("" for a local publish).
	Node   string `json:"node"`
	Origin string `json:"origin"`
	From   string `json:"from,omitempty"`
	// Local is the engine's delivery explanation (nil only if the
	// engine is closed mid-call).
	Local *broker.Explanation `json:"local"`
	// Links holds one verdict per attached link, sorted by peer id.
	Links []ForwardVerdict `json:"links"`
	// ForwardTo is the peer list the document would be sent to — the
	// plan's bottom line, comparable to a trace span's ForwardedTo.
	ForwardTo []string `json:"forward_to"`
}

// ErrScenario is returned by ExplainForward for a scenario no
// publication can be in.
var ErrScenario = errors.New("overlay: impossible explain scenario")

// ExplainForward runs the forwarding decision (forward, as a publish
// does) for a document, packed, without sending it: which links would receive a
// forward and why the others would not, plus the local engine's
// delivery explanation. origin and from parameterize the scenario —
// empty origin means "published locally at this node" (from must then
// be empty too; ErrScenario otherwise, or when from names no attached
// link); a non-empty origin with a from link explains a forwarded
// publication's next hop (TTL and duplicate suppression excluded: they
// depend on per-publication state, not routing state).
func (n *Node) ExplainForward(doc []byte, origin, from string) (*ForwardExplanation, error) {
	n.mu.Lock()
	closed, arrival := n.closed, n.links[from]
	n.mu.Unlock()
	switch {
	case closed:
		return nil, ErrClosed
	case from != "" && origin == "":
		return nil, fmt.Errorf("%w: a local publication (no origin) has no arrival link, got from %q", ErrScenario, from)
	case from != "" && arrival == nil:
		return nil, fmt.Errorf("%w: from %q names no attached link", ErrScenario, from)
	}
	if origin == "" {
		origin = n.cfg.ID
	}
	f := docArenas.Get().(*xmltree.Flat)
	defer releaseDoc(f)
	if _, err := f.LoadPacked(doc, nil); err != nil {
		return nil, fmt.Errorf("overlay: explain: %w", err)
	}
	ex := &ForwardExplanation{Node: n.cfg.ID, Origin: origin, From: from}
	for _, l := range n.forward(f, origin, from, ex) {
		ex.ForwardTo = append(ex.ForwardTo, l.id)
	}
	sort.Slice(ex.Links, func(i, j int) bool { return ex.Links[i].Peer < ex.Links[j].Peer })

	local, err := n.eng.Explain(doc)
	if err != nil {
		return nil, err
	}
	ex.Local = local
	return ex, nil
}

// verdictLocked is forward's verdict on the link to peer id, given the
// healthy non-arrival links it considered and the matched origins with
// their routes. Caller holds the node lock.
func (n *Node) verdictLocked(id, origin, from string, links []*link, hits []originHit) ForwardVerdict {
	v := ForwardVerdict{Peer: id, Reason: ReasonNoAggregates}
	switch {
	case id == from:
		v.Reason = ReasonArrival
	case !slices.ContainsFunc(links, func(l *link) bool { return l.id == id }):
		v.Reason = ReasonDown
	default:
		for _, h := range hits {
			if h.via == id {
				v.Forward, v.Reason = true, ReasonMatch
				v.Matched = append(v.Matched, h.OriginMatch)
			}
		}
		if !v.Forward && n.carriesLocked(id, origin) {
			v.Reason = ReasonNoMatch
		}
		sort.Slice(v.Matched, func(i, j int) bool { return v.Matched[i].Origin < v.Matched[j].Origin })
	}
	return v
}

// RouteInfo is one routing-table row of IntrospectRoutes.
type RouteInfo struct {
	Origin  string `json:"origin"`
	Version uint64 `json:"version"`
	Hops    int    `json:"hops"`
	// Via is the next-hop link toward the origin (the accepted advert's
	// arrival link).
	Via string `json:"via"`
	// AgeMS is how long ago the origin was last heard from; the
	// soft-state sweeper expires entries older than the advert TTL.
	AgeMS int64 `json:"age_ms"`
	// Tombstone marks an entry the sweeper has expired (routes evicted,
	// version retained so stale adverts cannot resurrect them) or an
	// origin that advertised an empty aggregate.
	Tombstone bool `json:"tombstone,omitempty"`
	// Patterns and Members size the origin's advertised aggregates.
	Patterns int `json:"patterns"`
	Members  int `json:"members"`
}

// IntrospectRoutes snapshots the routing table, sorted by origin. The
// node lock is held only while copying.
func (n *Node) IntrospectRoutes() []RouteInfo {
	now := time.Now()
	n.mu.Lock()
	out := make([]RouteInfo, 0, len(n.table))
	for origin, e := range n.table {
		s := e.summary(origin)
		out = append(out, RouteInfo{
			Origin:    origin,
			Version:   e.version,
			Hops:      e.hops,
			Via:       e.via,
			AgeMS:     now.Sub(e.lastSeen).Milliseconds(),
			Tombstone: e.expired || len(e.advertised) == 0,
			Patterns:  s.Patterns,
			Members:   s.Members,
		})
	}
	n.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Origin < out[j].Origin })
	return out
}

// LinkInfo is one link row of IntrospectLinks.
type LinkInfo struct {
	Peer string `json:"peer"`
	// Up mirrors the damping state: false means forwarding and gossip
	// skip the link and backoff-paced probes own it.
	Up bool `json:"up"`
	// Sends and Errors are the link's lifetime transport outcomes.
	Sends  uint64 `json:"sends"`
	Errors uint64 `json:"errors"`
	// Fails is the consecutive-failure streak; BackoffMS the current
	// probe backoff and NextProbeMS how far away the next probe is
	// (0 when the link is healthy).
	Fails       int   `json:"fails,omitempty"`
	BackoffMS   int64 `json:"backoff_ms,omitempty"`
	NextProbeMS int64 `json:"next_probe_ms,omitempty"`
	// LastError is the most recent send failure, cleared on recovery.
	LastError string `json:"last_error,omitempty"`
	// Frames and payload bytes written to the link's stream, by kind
	// (zero on in-process links): an advert refresh costs
	// AdvertBytes/AdvertFrames bytes on this link.
	PublishFrames uint64 `json:"publish_frames"`
	PublishBytes  uint64 `json:"publish_bytes"`
	AdvertFrames  uint64 `json:"advert_frames"`
	AdvertBytes   uint64 `json:"advert_bytes"`
}

// IntrospectLinks snapshots per-link health, sorted by peer id.
func (n *Node) IntrospectLinks() []LinkInfo {
	now := time.Now()
	n.mu.Lock()
	out := make([]LinkInfo, 0, len(n.links))
	for id, l := range n.links {
		li := LinkInfo{
			Peer:      id,
			Up:        !l.down,
			Sends:     l.sends.Load(),
			Errors:    l.errs.Load(),
			Fails:     l.fails,
			LastError: l.lastErr,

			PublishFrames: l.pubs.frames.Load(),
			PublishBytes:  l.pubs.bytes.Load(),
			AdvertFrames:  l.adverts.frames.Load(),
			AdvertBytes:   l.adverts.bytes.Load(),
		}
		if l.down {
			li.BackoffMS = l.backoff.Milliseconds()
			if d := l.nextRetry.Sub(now); d > 0 {
				li.NextProbeMS = d.Milliseconds()
			}
		}
		out = append(out, li)
	}
	n.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}
