package broker

import (
	"fmt"
	"slices"

	"treesim/internal/pattern"
)

// This file is the broker's explainability and introspection surface:
// read-only snapshots of routing state (communities, subscriptions) and
// a side-effect-free dry run of the real publish decision (Explain). The
// daemon's POST /explain and GET /introspect/* endpoints are thin JSON
// shims over it. None of it touches the publish hot path: Explain runs
// the match step a publish runs on the routing table a publish reads,
// but skips sequence assignment, synopsis ingest, delivery queues, and
// every counter.

// CommunityVerdict is one community's share of an Explain decision:
// whether the document matched its representative (and therefore would
// be delivered to every member), and which members' own patterns
// exactly matched (the precision detail a sampled publish only
// estimates).
type CommunityVerdict struct {
	// Community is the community index (as stamped into Delivery
	// .Community). Shard is always 0: the field outlives the sharded
	// layout for clients that read it.
	Community int `json:"community"`
	Shard     int `json:"shard"`
	// RepExpr is the representative's subscription expression — the
	// pattern whose forest verdict decides delivery for the whole
	// community.
	RepExpr string `json:"rep"`
	// Matched reports the representative's verdict: true means every
	// member listed in MemberIDs receives the document.
	Matched bool `json:"matched"`
	// MemberIDs are the subscription ids of every member; ExactIDs the
	// subset whose own pattern matched the document. Both sorted
	// ascending. ExactIDs outside a matched community are the recall the
	// clustering preserved; MemberIDs minus ExactIDs inside one are the
	// false positives community-granularity routing accepts.
	MemberIDs []uint64 `json:"members"`
	ExactIDs  []uint64 `json:"exact,omitempty"`
}

// ShardExplainStats describes the forest's matching work for the
// explained document. The name and the Shard index (always 0) date from
// the sharded layout; the engine has one forest.
type ShardExplainStats struct {
	Shard int `json:"shard"`
	// Communities is the community count (each costs one representative
	// verdict).
	Communities int `json:"communities"`
	// LivePatterns and ForestNodes size the forest: one pattern per
	// community, its representative's (LivePatterns == Communities);
	// shared subtrees make ForestNodes smaller than the summed sizes.
	LivePatterns int `json:"live_patterns"`
	ForestNodes  int `json:"forest_nodes"`
	// MatchedPatterns counts subscriptions (representatives and members
	// alike) whose own pattern the document matched.
	MatchedPatterns int `json:"matched_patterns"`
}

// Explanation is the structured decision record of one Explain call:
// what a Publish of the same document would have done, minus the side
// effects.
type Explanation struct {
	// Communities holds one verdict per community, index-ordered.
	Communities []CommunityVerdict `json:"communities"`
	// Deliveries is the predicted delivery set: the subscription ids a
	// real publish would enqueue to, sorted ascending. It equals the
	// union of MemberIDs over matched communities.
	Deliveries []uint64 `json:"deliveries"`
	// MatchedCommunities mirrors PublishResult.Matched; FilterEvals is
	// the number of representative verdicts this document cost (the
	// clustered-routing cost, = len(Communities)).
	MatchedCommunities int `json:"matched_communities"`
	FilterEvals        int `json:"filter_evals"`
	// DocNodes is the flattened document size.
	DocNodes int `json:"doc_nodes"`
	// Shards holds the forest's size and matching breakdown: one
	// element, none while there are no communities.
	Shards []ShardExplainStats `json:"shards"`
}

// Explain is the decision a publish of doc (xmltree.Pack's form) would
// make, without its side effects: no sequence number, no synopsis
// ingest, no deliveries, no counter moves. It runs a publish's load and
// match steps (matchDoc) and walks the routing table a publish walks,
// under routeMu shared as a publish does, and never takes the registry
// lock: it waits on no subscribe's or rebuild's registry section, only
// on the table edits themselves. Member verdicts (ExactIDs) come from
// the precision sample's evaluator, applied to every member.
func (e *Engine) Explain(doc []byte) (*Explanation, error) {
	sc := e.getScratch()
	defer e.putScratch(sc)
	if _, err := sc.flat.LoadPacked(doc, nil); err != nil {
		return nil, fmt.Errorf("broker: explain: %w", err)
	}
	e.routeMu.RLock()
	defer e.routeMu.RUnlock()
	if e.routeClosed {
		return nil, ErrClosed
	}
	ms := e.matchDoc(&sc.flat)
	defer ms.Release()
	ex := &Explanation{
		Communities: make([]CommunityVerdict, len(e.groups)),
		FilterEvals: len(e.groups),
		DocNodes:    sc.flat.Len(),
	}
	if len(e.groups) == 0 {
		return ex, nil
	}
	fm := memberMatchers.Get().(*pattern.FlatMatcher)
	defer memberMatchers.Put(fm)
	fm.LoadFlat(&sc.flat)
	stats := ShardExplainStats{
		Communities:  len(e.groups),
		LivePatterns: e.forest.Live(),
		ForestNodes:  e.forest.NodeCount(),
	}
	for comm, g := range e.groups {
		v := CommunityVerdict{Community: comm, RepExpr: g.rep.expr, Matched: ms.Has(g.fh)}
		for _, s := range g.members() {
			v.MemberIDs = append(v.MemberIDs, s.id)
			if memberMatches(fm, s.pat) {
				v.ExactIDs = append(v.ExactIDs, s.id)
				stats.MatchedPatterns++
			}
		}
		if v.Matched {
			ex.MatchedCommunities++
			ex.Deliveries = append(ex.Deliveries, v.MemberIDs...)
		}
		ex.Communities[comm] = v
	}
	ex.Shards = []ShardExplainStats{stats}
	slices.Sort(ex.Deliveries)
	return ex, nil
}

// CommunityInfo is one community row of IntrospectCommunities.
type CommunityInfo struct {
	Community int `json:"community"`
	// Shard is always 0 (see CommunityVerdict.Shard).
	Shard   int    `json:"shard"`
	Size    int    `json:"size"`
	RepID   uint64 `json:"rep_id"`
	RepExpr string `json:"rep"`
	// MemberIDs are the member subscription ids, sorted ascending.
	MemberIDs []uint64 `json:"members"`
	// LogEntries is what the community's delivery log holds: the queue
	// capacity's at-most-once window and, past it, its at-least-once
	// members' unacked backlog (up to four capacities); SlowestLag how
	// many of them its furthest-behind member has yet to drain or ack.
	LogEntries int `json:"log_entries"`
	SlowestLag int `json:"slowest_lag"`
}

// IntrospectCommunities snapshots the clustering: one row per community
// with its representative and member ids, read from the routing table's
// records under the registry read lock, held only while copying.
func (e *Engine) IntrospectCommunities() []CommunityInfo {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]CommunityInfo, 0, len(e.groups))
	for g, rg := range e.groups {
		ci := CommunityInfo{Community: g, RepID: rg.rep.id, RepExpr: rg.rep.expr}
		for _, s := range rg.members() {
			ci.MemberIDs = append(ci.MemberIDs, s.id)
		}
		ci.Size = len(ci.MemberIDs)
		ci.LogEntries, ci.SlowestLag = rg.log.lag()
		out = append(out, ci)
	}
	return out
}

// SubscriptionInfo is one subscription row of IntrospectSubscriptions.
type SubscriptionInfo struct {
	ID        uint64 `json:"id"`
	Pattern   string `json:"pattern"`
	Community int    `json:"community"`
	// Shard is always 0 (see CommunityVerdict.Shard).
	Shard int `json:"shard"`
	// Mode is the delivery contract ("at-most-once" / "at-least-once").
	Mode string `json:"mode"`
	// Pending is the subscription's current delivery depth: what its
	// cursor has yet to read, or its redeliverable (unleased) entries.
	Pending int `json:"pending"`
	// Dropped is the subscription's lifetime drop-oldest evictions
	// (at-most-once) — the per-consumer attribution of the aggregate
	// treesim_broker_dropped_total counter.
	Dropped uint64 `json:"dropped,omitempty"`
	// The at-least-once ledger: InFlight entries currently leased,
	// Committed/LastCursor the cursor watermarks, Delivered log
	// accepts, Acked discharges, Redelivered repeat hand-outs, Shed
	// capacity-overflow losses, LeaseExpiries lapsed leases. At every
	// quiescent point Delivered == Acked + Pending + InFlight + Shed.
	InFlight      int    `json:"in_flight,omitempty"`
	Committed     uint64 `json:"committed,omitempty"`
	LastCursor    uint64 `json:"last_cursor,omitempty"`
	Delivered     uint64 `json:"delivered,omitempty"`
	Acked         uint64 `json:"acked,omitempty"`
	Redelivered   uint64 `json:"redelivered,omitempty"`
	Shed          uint64 `json:"shed,omitempty"`
	LeaseExpiries uint64 `json:"lease_expiries,omitempty"`
}

// IntrospectSubscriptions snapshots every live subscription with its
// community, delivery mode, queue depth, and per-subscription
// loss/redelivery ledger, sorted by id.
func (e *Engine) IntrospectSubscriptions() []SubscriptionInfo {
	e.mu.RLock()
	defer e.mu.RUnlock()
	community := make(map[*routeGroup]int, len(e.groups))
	for g, rg := range e.groups {
		community[rg] = g
	}
	out := make([]SubscriptionInfo, 0, len(e.byID))
	for _, s := range e.registryLocked() {
		si := SubscriptionInfo{ID: s.id, Pattern: s.expr, Community: community[s.group], Mode: s.mode.String()}
		s.cur.describe(&si)
		out = append(out, si)
	}
	return out
}
