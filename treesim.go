// Package treesim estimates the similarity of tree-pattern
// subscriptions (an XPath subset) over streams of XML documents. It is a
// from-scratch Go reproduction of
//
//	R. Chand, P. Felber, M. Garofalakis.
//	"Tree-Pattern Similarity Estimation for Scalable Content-based
//	Routing". ICDE 2007, pp. 1016–1025.
//
// The core object is the Estimator: it ingests a stream of XML documents
// into a concise synopsis (a path-structure summary whose nodes carry
// compressed matching sets) and answers, at any time,
//
//   - Selectivity(p): the estimated fraction of documents matching a
//     tree pattern p, and
//   - Similarity(m, p, q): proximity metrics M1 = P(p|q),
//     M2 = (P(p|q)+P(q|p))/2, M3 = P(p∧q)/P(p∨q) between subscriptions,
//
// which content-based publish/subscribe systems use to cluster consumers
// into semantic communities.
//
// Quick start:
//
//	est := treesim.New(treesim.Config{Representation: treesim.Hashes, HashCapacity: 1000})
//	doc, _ := treesim.ParseXMLString("<media><CD><title/></CD></media>")
//	est.ObserveTree(doc)
//	p, _ := treesim.ParsePattern("/media/CD")
//	q, _ := treesim.ParsePattern("//CD[title]")
//	fmt.Println(est.Selectivity(p), est.Similarity(treesim.M3, p, q))
//
// Subpackages under internal implement the pieces: document trees and
// skeletons, tree patterns and exact matching, distinct/reservoir
// sampling, the synopsis with its pruning operations, the recursive SEL
// selectivity algorithm, workload generators for the paper's evaluation,
// and the live community-routing broker with its federation overlay.
package treesim

import (
	"io"
	"log/slog"
	"strings"

	"treesim/internal/aggregate"
	"treesim/internal/broker"
	"treesim/internal/cluster"
	"treesim/internal/core"
	"treesim/internal/dtd"
	"treesim/internal/metrics"
	"treesim/internal/overlay"
	"treesim/internal/pattern"
	"treesim/internal/querygen"
	"treesim/internal/synopsis"
	"treesim/internal/telemetry"
	"treesim/internal/xmlgen"
	"treesim/internal/xmltree"
)

// Core types, re-exported for public use.
type (
	// Estimator is the streaming selectivity/similarity estimator.
	Estimator = core.Estimator
	// WindowEstimator estimates over a sliding window of recent
	// documents (exact within the window; an extension beyond the
	// paper).
	WindowEstimator = core.WindowEstimator
	// Config configures an Estimator.
	Config = core.Config
	// Pattern is a tree-pattern subscription.
	Pattern = pattern.Pattern
	// Tree is a node-labeled XML document tree.
	Tree = xmltree.Tree
	// Metric identifies a proximity metric (M1, M2, M3).
	Metric = metrics.Metric
	// SynopsisStats reports synopsis size in the paper's units.
	SynopsisStats = synopsis.Stats
	// DTD is a document type definition for workload generation.
	DTD = dtd.DTD
	// ParseOptions controls XML-to-tree mapping.
	ParseOptions = xmltree.ParseOptions
)

// Matching-set representations.
const (
	// Counters is the per-node counter baseline.
	Counters = core.Counters
	// Sets is document-level reservoir sampling.
	Sets = core.Sets
	// Hashes is per-node distinct sampling (recommended).
	Hashes = core.Hashes
)

// Proximity metrics.
const (
	// M1 is the conditional probability P(p|q) (asymmetric).
	M1 = metrics.M1
	// M2 is the mean of the two conditionals (symmetric).
	M2 = metrics.M2
	// M3 is joint over union, a Jaccard coefficient (symmetric).
	M3 = metrics.M3
)

// New returns a streaming estimator.
func New(cfg Config) *Estimator { return core.NewEstimator(cfg) }

// Load reconstructs an estimator previously serialized with
// (*Estimator).Save.
func Load(r io.Reader) (*Estimator, error) { return core.LoadEstimator(r) }

// NewWindow returns an estimator over a sliding window of the given
// number of most recent documents.
func NewWindow(window int) *WindowEstimator {
	return core.NewWindowEstimator(window, xmltree.ParseOptions{})
}

// ContainsPattern reports whether p contains q (every document matching
// q matches p). The test is the classical homomorphism check: sound,
// and complete except for some interactions of "//", "*" and branching.
func ContainsPattern(p, q *Pattern) bool { return pattern.Contains(p, q) }

// MinimizePattern returns an equivalent pattern with redundant branches
// removed.
func MinimizePattern(p *Pattern) *Pattern { return p.Minimize() }

// GeneralizePatterns returns a pattern containing both inputs — the
// aggregation operator of Chan et al. (VLDB'02), the paper's reference
// [4].
func GeneralizePatterns(p, q *Pattern) *Pattern { return aggregate.Generalize(p, q) }

// AggregationResult is the outcome of subscription aggregation.
type AggregationResult = aggregate.Result

// AggregateSubscriptions reduces a subscription set to at most target
// patterns, greedily merging the pairs whose generalization adds the
// least estimated selectivity over the estimator's observed stream.
// Every aggregate contains the subscriptions it replaces, so routing
// through aggregates never loses deliveries.
func AggregateSubscriptions(est *Estimator, subs []*Pattern, target int) AggregationResult {
	return aggregate.Aggregate(subs, target, estimatorSels{est})
}

// estimatorSels adapts the estimator to the aggregation package.
type estimatorSels struct{ est *Estimator }

func (s estimatorSels) P(p *pattern.Pattern) float64       { return s.est.Selectivity(p) }
func (s estimatorSels) PAnd(p, q *pattern.Pattern) float64 { return s.est.Joint(p, q) }

// ParsePattern parses a tree pattern from the XPath subset, e.g.
// "/media/CD/*/last/Mozart", "//CD[title]", "/.[//a]//b".
func ParsePattern(xpath string) (*Pattern, error) { return pattern.Parse(xpath) }

// MustParsePattern is ParsePattern that panics on error.
func MustParsePattern(xpath string) *Pattern { return pattern.MustParse(xpath) }

// ParseXML reads one XML document into a tree (element structure only;
// use an Estimator's Config.ParseOptions for text/attribute handling).
func ParseXML(r io.Reader) (*Tree, error) {
	return xmltree.Parse(r, xmltree.ParseOptions{})
}

// ParseXMLString is ParseXML over a string.
func ParseXMLString(s string) (*Tree, error) {
	return xmltree.Parse(strings.NewReader(s), xmltree.ParseOptions{})
}

// Matches reports whether document T satisfies pattern p under the exact
// semantics of the paper (used as ground truth; the Estimator
// approximates the fraction of matching documents).
func Matches(t *Tree, p *Pattern) bool { return pattern.Matches(t, p) }

// NITFLikeDTD returns the 123-element news-like evaluation schema.
func NITFLikeDTD() *DTD { return dtd.NITFLike() }

// XCBLLikeDTD returns the 569-element business-like evaluation schema.
func XCBLLikeDTD() *DTD { return dtd.XCBLLike() }

// MediaDTD returns the small Figure-1 style media schema used by the
// examples.
func MediaDTD() *DTD { return dtd.Media() }

// GenerateDocuments produces n random documents from a DTD, calibrated
// to average roughly 100 tag pairs (the paper's corpus regime).
func GenerateDocuments(d *DTD, n int, seed int64) []*Tree {
	opts := xmlgen.Calibrate(d, 100, seed)
	return xmlgen.New(d, opts).GenerateN(n)
}

// GeneratePatterns produces n distinct tree patterns from a DTD using
// the paper's workload parameters (h=10, p*=0.1, p//=0.1, pλ=0.1, θ=1).
func GeneratePatterns(d *DTD, n int, seed int64) []*Pattern {
	return querygen.New(d, querygen.Defaults(seed)).GenerateDistinct(n)
}

// XMLString serializes a document tree back to XML (element structure
// only; promoted text/attribute nodes are not serializable).
func XMLString(t *Tree) (string, error) { return xmltree.XMLString(t, false) }

// Live broker types, re-exported for public use (package
// internal/broker; served over HTTP by cmd/treesimd).
type (
	// Broker is the live pub/sub engine: runtime subscription churn
	// with incremental similarity maintenance, community-based
	// dissemination, bounded per-consumer delivery queues.
	Broker = broker.Engine
	// BrokerConfig configures a Broker.
	BrokerConfig = broker.Config
	// BrokerStats is a point-in-time broker snapshot.
	BrokerStats = broker.Stats
	// Delivery is one document routed to one subscription.
	Delivery = broker.Delivery
	// PublishResult summarizes the routing of one published document.
	PublishResult = broker.PublishResult
	// RebuildPolicy decides when churn warrants full re-clustering.
	RebuildPolicy = broker.RebuildPolicy
	// DeliveryMode selects a subscription's delivery contract:
	// AtMostOnce (bounded ring, counted loss) or AtLeastOnce
	// (cursor-ordered log, explicit ack, lease-based redelivery).
	DeliveryMode = broker.DeliveryMode
	// SubscribeOptions carries per-subscription options for
	// Broker.SubscribeOpts (currently the delivery mode).
	SubscribeOptions = broker.SubscribeOptions
	// DrainResult is one acked-mode drain batch: deliveries plus the
	// batch cursor, committed floor, redelivery count, and (in
	// at-most-once mode) the explicit loss gap.
	DrainResult = broker.DrainResult
)

// Delivery-mode constants, re-exported for SubscribeOptions.
const (
	AtMostOnce  = broker.AtMostOnce
	AtLeastOnce = broker.AtLeastOnce
)

// NewBroker starts a live broker engine (stop it with Close).
func NewBroker(cfg BrokerConfig) *Broker { return broker.New(cfg) }

// Explainability and introspection types, re-exported for public use.
// Explanation (Broker.Explain) is a side-effect-free record of the
// routing decision the broker would make for one document;
// ForwardExplanation (OverlayNode.ExplainForward) extends it with the
// per-link forward plan. The Introspect* snapshot accessors return the
// matching views over live state without holding routing hot locks.
type (
	// Explanation is the decision record of a dry-run local publish.
	Explanation = broker.Explanation
	// CommunityVerdict is one community's matched/skipped verdict
	// within an Explanation.
	CommunityVerdict = broker.CommunityVerdict
	// CommunityInfo describes one clustered community
	// (Broker.IntrospectCommunities).
	CommunityInfo = broker.CommunityInfo
	// SubscriptionInfo describes one live subscription
	// (Broker.IntrospectSubscriptions).
	SubscriptionInfo = broker.SubscriptionInfo
	// ForwardExplanation is a dry-run routing decision across an
	// overlay node: local Explanation plus per-link forward verdicts.
	ForwardExplanation = overlay.ForwardExplanation
	// ForwardVerdict is one link's forward-or-skip decision with its
	// reason and the origin adverts that matched.
	ForwardVerdict = overlay.ForwardVerdict
	// RouteInfo is one routing-table entry
	// (OverlayNode.IntrospectRoutes).
	RouteInfo = overlay.RouteInfo
	// LinkInfo is one peer link's health snapshot
	// (OverlayNode.IntrospectLinks).
	LinkInfo = overlay.LinkInfo
)

// Overlay federation types, re-exported for public use (package
// internal/overlay; served over HTTP by cmd/treesimd -federate and
// measured by cmd/treesim-net).
type (
	// OverlayNode federates a Broker into a routed multi-broker
	// topology: similarity-aggregated subscription advertisements,
	// per-link routing tables, TTL + seen-set forwarding.
	OverlayNode = overlay.Node
	// OverlayConfig configures an OverlayNode.
	OverlayConfig = overlay.Config
	// OverlayTransport delivers wire messages to one peer node.
	OverlayTransport = overlay.Transport
)

// NewOverlayNode attaches a federation node to a broker engine (it
// installs the engine's churn hook; detach with Close).
func NewOverlayNode(eng *Broker, cfg OverlayConfig) *OverlayNode {
	return overlay.New(eng, cfg)
}

// ConnectNodes links two in-process overlay nodes bidirectionally
// through the wire codec.
func ConnectNodes(a, b *OverlayNode) error { return overlay.Connect(a, b) }

// Telemetry types, re-exported for public use (package
// internal/telemetry). Hand one MetricsRegistry to BrokerConfig,
// OverlayConfig, and persistence so a single Prometheus-text scrape
// (MetricsRegistry.WritePrometheus) covers the whole process.
type (
	// MetricsRegistry holds metric families and renders Prometheus
	// text exposition.
	MetricsRegistry = telemetry.Registry
	// TraceSpan is one hop's record of a traced publication.
	TraceSpan = telemetry.Span
	// Event is one captured operational log record.
	Event = telemetry.Event
	// EventRing is a bounded ring of recent operational events; pair
	// with TeeEvents to capture WARN+ slog records into it.
	EventRing = telemetry.EventRing
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// NewEventRing returns a bounded operational-event ring (capacity <= 0
// selects the default).
func NewEventRing(capacity int) *EventRing { return telemetry.NewEventRing(capacity) }

// TeeEvents wraps a slog handler so records at or above min are also
// captured into ring, regardless of the wrapped handler's own level.
func TeeEvents(next slog.Handler, ring *EventRing, min slog.Level) slog.Handler {
	return telemetry.TeeEvents(next, ring, min)
}

// Communities clusters subscriptions into semantic communities: each
// community groups subscriptions whose pairwise similarity under metric
// m (estimated over the observed stream) reaches the threshold with the
// community's seed subscription. It returns the index sets of the
// communities, largest first.
func Communities(est *Estimator, m Metric, subs []*Pattern, threshold float64) [][]int {
	sim := est.SimilarityMatrix(m, subs)
	return cluster.Greedy(sim, threshold)
}
