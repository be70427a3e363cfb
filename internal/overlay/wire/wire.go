// Package wire is the codec for the overlay federation's protocol.
// Brokers exchange three message kinds: advertisement batches
// (similarity-coarsened subscription aggregates, versioned per origin),
// publications (documents forwarded hop-by-hop with a TTL), and a node
// info snapshot (GET /peer/info). Adverts and publications travel as
// frames on one long-lived stream per link direction (frame.go), each
// answered by an ack frame carrying the receiver's verdict. Adverts and
// info are JSON; a publication is a small binary header followed by the
// document: packed (xmltree.Pack bytes) under version byte 2, which is
// what brokers send, or XML text under version byte 1, which brokers
// before that sent and which is still decoded. A version-1 receiver
// refuses a version-2 frame, so upgrade downstream brokers first.
//
// The codec is strict on decode: every accepted message is validated
// (protocol version, bounded sizes, parseable patterns, finite digests)
// and pattern expressions are canonicalized through the pattern parser,
// so a decoded value always re-encodes, and decode∘encode is the
// identity on decoded values — the invariant FuzzDecodeAdvert and
// FuzzDecodePublication enforce. Unknown JSON fields are ignored for
// forward compatibility.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"treesim/internal/pattern"
)

// ProtocolVersion is the overlay wire protocol version. Messages
// carrying a different version are rejected on decode, except that a
// publication may also carry PackedVersion.
const ProtocolVersion = 1

// PackedVersion is the version byte of a publication whose document
// travels packed (Publication.Doc) rather than as XML text.
const PackedVersion = 2

// Size caps enforced on decode. They bound the work a single message
// can demand from a receiving broker, not legitimate use.
const (
	// MaxOriginLen bounds node identifier length in bytes.
	MaxOriginLen = 256
	// MaxAdverts bounds origin adverts per batch.
	MaxAdverts = 4096
	// MaxCommunities bounds communities per advert.
	MaxCommunities = 4096
	// MaxPatterns bounds covering patterns per community.
	MaxPatterns = 4096
	// MaxPatternLen bounds one pattern expression in bytes.
	MaxPatternLen = 1 << 16
)

// Community is one group of an advertised subscription aggregate. An
// advert's patterns, over all its communities, are the containment
// antichain of the origin's live subscriptions; the grouping says which
// engine community owns each and is diagnostic — receivers match the
// union.
type Community struct {
	// Patterns are canonical pattern expressions that jointly contain
	// every subscription the community is counted for (a document
	// matching any of those matches some listed pattern), so matching
	// against them is coarse but recall-preserving.
	Patterns []string `json:"patterns"`
	// Members is the number of subscriptions these patterns stand for —
	// of whatever engine community, and of every community folded into
	// this one when an advert is regrouped to fit the size caps. Over an
	// advert they sum to the origin's live subscriptions.
	Members int `json:"members"`
	// Selectivity is P(representative) of the owning community on the
	// advertising broker's similarity view — the estimate its clustering
	// uses — in [0,1] (the largest such, for a folded community).
	// Diagnostic: Info reports the minimum per origin.
	Selectivity float64 `json:"selectivity"`
}

// Advert is one origin's versioned subscription aggregate. An advert
// with no communities is a tombstone: the origin currently has no
// subscriptions and publications need not flow toward it.
type Advert struct {
	// Origin is the node id whose subscriptions this advert aggregates.
	Origin string `json:"origin"`
	// Version increases monotonically per origin; receivers keep only
	// the highest version seen.
	Version uint64 `json:"version"`
	// Hops is how many links the advert has traveled from its origin
	// (0 when the origin itself is the sender). Diagnostic.
	Hops int `json:"hops"`
	// Communities are the origin's aggregates, possibly empty.
	Communities []Community `json:"communities"`
}

// AdvertBatch is the payload of an advert frame: one or more origin
// adverts pushed over a link.
type AdvertBatch struct {
	// Proto is the wire protocol version (ProtocolVersion).
	Proto int `json:"proto"`
	// From is the sending node's id (the link peer, not necessarily any
	// advert's origin).
	From string `json:"from"`
	// Addr, if set, is a callback base URL the receiver can dial to
	// establish the reverse link (stream transport auto-peering).
	Addr string `json:"addr,omitempty"`
	// Adverts are the origin aggregates.
	Adverts []Advert `json:"adverts"`
}

// Publication is the payload of a publish frame: one document forwarded
// through the overlay. On the wire it is proto (1 byte) | ttl (1) | seq
// (8) | from | addr | origin | trace | document, where the four fields
// are each a 2-byte big-endian length and that many bytes and the
// document — Doc under PackedVersion, XML under ProtocolVersion — is
// the rest of the payload; the json tags serve diagnostics only.
type Publication struct {
	// Proto is the version byte, stamped by Encode from how the document
	// travels: PackedVersion with Doc set, ProtocolVersion with XML set.
	Proto int `json:"proto"`
	// From is the sending node's id (the previous hop).
	From string `json:"from"`
	// Addr, if set, is the sender's callback base URL (auto-peering).
	Addr string `json:"addr,omitempty"`
	// Origin is the node where the document was first published and Seq
	// that node's publish sequence number; together they identify the
	// publication for duplicate suppression.
	Origin string `json:"origin"`
	Seq    uint64 `json:"seq"`
	// TTL is the remaining hop budget; a node forwards with TTL-1 and
	// drops at 0.
	TTL int `json:"ttl"`
	// Doc is the document as xmltree.Pack bytes, XML as text; exactly one
	// is set. The codec treats either as opaque (the receiving broker
	// unpacks or parses it), bounding only its size; a decoded Doc is a
	// slice of the payload.
	Doc []byte `json:"-"`
	XML string `json:"xml,omitempty"`
	// Trace is an optional telemetry trace ID stamped at the origin;
	// nodes handling a traced publication append hop spans retrievable
	// via the daemon's GET /trace/{id}. Optional and opaque; empty means
	// untraced.
	Trace string `json:"trace,omitempty"`
}

// MaxTTL bounds Publication.TTL; MaxXMLLen bounds Publication.XML and
// Publication.Doc; MaxTraceLen bounds Publication.Trace.
const (
	MaxTTL      = 64
	MaxXMLLen   = 4 << 20
	MaxTraceLen = 128
)

// OriginInfo summarizes one routing-table entry in Info.
type OriginInfo struct {
	Origin   string  `json:"origin"`
	Version  uint64  `json:"version"`
	Hops     int     `json:"hops"`
	Via      string  `json:"via"` // next-hop peer id
	Patterns int     `json:"patterns"`
	Members  int     `json:"members"`
	MinSel   float64 `json:"min_selectivity"`
}

// Info is the body of GET /peer/info: a node's identity, links and
// routing table, plus forwarding counters.
type Info struct {
	Proto        int          `json:"proto"`
	ID           string       `json:"id"`
	Addr         string       `json:"addr,omitempty"`
	AdvertVer    uint64       `json:"advert_version"`
	Peers        []string     `json:"peers"`
	Origins      []OriginInfo `json:"origins"`
	LocalAdvert  Advert       `json:"local_advert"`
	ForwardsSent uint64       `json:"forwards_sent"`
	ForwardsRecv uint64       `json:"forwards_recv"`
	Duplicates   uint64       `json:"duplicates"`
	TTLDrops     uint64       `json:"ttl_drops"`
	AdvertsSent  uint64       `json:"adverts_sent"`
	AdvertsRecv  uint64       `json:"adverts_recv"`
	Published    uint64       `json:"published"`
	Injected     uint64       `json:"injected"`

	// Liveness and backpressure counters (soft-state advert expiry,
	// per-link health, peer busy sheds). DownPeers lists the links
	// currently in the damping set.
	DownPeers      []string `json:"down_peers,omitempty"`
	SendErrors     uint64   `json:"send_errors"`
	AdvertsExpired uint64   `json:"adverts_expired"`
	LinkDowns      uint64   `json:"link_downs"`
	LinkRecoveries uint64   `json:"link_recoveries"`
	Resyncs        uint64   `json:"resyncs"`
	PeerBusy       uint64   `json:"peer_busy"`
	BusyRejected   uint64   `json:"busy_rejected"`
}

// EncodeAdvertBatch serializes a batch, stamping the protocol version.
// It validates but never writes into the batch's slices — senders hold
// them in live, concurrently-read node state; canonicalization is the
// decoder's job (the in-process advert builder already emits canonical
// expressions).
func EncodeAdvertBatch(b AdvertBatch) ([]byte, error) {
	b.Proto = ProtocolVersion
	if err := validateAdvertBatch(&b, false); err != nil {
		return nil, fmt.Errorf("wire: encode advert batch: %w", err)
	}
	return json.Marshal(b)
}

// DecodeAdvertBatch parses and validates a batch. Pattern expressions
// are canonicalized (parsed and re-serialized), so two decodes of
// equivalent spellings agree and the batch re-encodes byte-stably.
func DecodeAdvertBatch(data []byte) (AdvertBatch, error) {
	var b AdvertBatch
	if err := json.Unmarshal(data, &b); err != nil {
		return AdvertBatch{}, fmt.Errorf("wire: decode advert batch: %w", err)
	}
	if err := validateAdvertBatch(&b, true); err != nil {
		return AdvertBatch{}, fmt.Errorf("wire: decode advert batch: %w", err)
	}
	return b, nil
}

// validateAdvertBatch checks bounds; with canonicalize set it also
// rewrites pattern expressions to canonical form in place (decode-only:
// a freshly unmarshaled batch owns its slices).
func validateAdvertBatch(b *AdvertBatch, canonicalize bool) error {
	if b.Proto != ProtocolVersion {
		return fmt.Errorf("protocol version %d, want %d", b.Proto, ProtocolVersion)
	}
	if err := validateID(b.From, "from"); err != nil {
		return err
	}
	if len(b.Addr) > MaxOriginLen {
		return fmt.Errorf("addr longer than %d bytes", MaxOriginLen)
	}
	if len(b.Adverts) > MaxAdverts {
		return fmt.Errorf("%d adverts exceeds cap %d", len(b.Adverts), MaxAdverts)
	}
	for i := range b.Adverts {
		if err := validateAdvert(&b.Adverts[i], canonicalize); err != nil {
			return fmt.Errorf("advert %d: %w", i, err)
		}
	}
	return nil
}

func validateAdvert(a *Advert, canonicalize bool) error {
	if err := validateID(a.Origin, "origin"); err != nil {
		return err
	}
	if a.Hops < 0 || a.Hops > MaxTTL {
		return fmt.Errorf("hops %d outside [0,%d]", a.Hops, MaxTTL)
	}
	if len(a.Communities) > MaxCommunities {
		return fmt.Errorf("%d communities exceeds cap %d", len(a.Communities), MaxCommunities)
	}
	for i := range a.Communities {
		c := &a.Communities[i]
		if c.Members < 0 {
			return fmt.Errorf("community %d: negative member count", i)
		}
		if math.IsNaN(c.Selectivity) || c.Selectivity < 0 || c.Selectivity > 1 {
			return fmt.Errorf("community %d: selectivity %v outside [0,1]", i, c.Selectivity)
		}
		if len(c.Patterns) == 0 {
			return fmt.Errorf("community %d: no covering patterns", i)
		}
		if len(c.Patterns) > MaxPatterns {
			return fmt.Errorf("community %d: %d patterns exceeds cap %d", i, len(c.Patterns), MaxPatterns)
		}
		for j, s := range c.Patterns {
			if len(s) > MaxPatternLen {
				return fmt.Errorf("community %d: pattern %d longer than %d bytes", i, j, MaxPatternLen)
			}
			p, err := pattern.Parse(s)
			if err != nil {
				return fmt.Errorf("community %d: pattern %d: %w", i, j, err)
			}
			if canonicalize {
				c.Patterns[j] = p.Canonicalize().String()
			}
		}
	}
	return nil
}

// EncodePublication serializes a publication, stamping the version of
// the form its document is in.
func EncodePublication(p Publication) ([]byte, error) {
	p.Proto = PackedVersion
	if p.XML != "" {
		p.Proto = ProtocolVersion
	}
	if err := validatePublication(&p); err != nil {
		return nil, fmt.Errorf("wire: encode publication: %w", err)
	}
	b := make([]byte, 0, 18+len(p.From)+len(p.Addr)+len(p.Origin)+len(p.Trace)+len(p.XML)+len(p.Doc))
	b = append(b, byte(p.Proto), byte(p.TTL))
	b = binary.BigEndian.AppendUint64(b, p.Seq)
	for _, s := range [...]string{p.From, p.Addr, p.Origin, p.Trace} {
		b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
		b = append(b, s...)
	}
	return append(append(b, p.XML...), p.Doc...), nil
}

// DecodePublication parses and validates a publication. The document
// payload is bounded but not parsed here; the broker's unpacker or XML
// parser is the authority on its content. Only Doc shares data's memory.
func DecodePublication(data []byte) (Publication, error) {
	if len(data) < 10 {
		return Publication{}, fmt.Errorf("wire: decode publication: truncated (%d bytes)", len(data))
	}
	p := Publication{Proto: int(data[0]), TTL: int(data[1]), Seq: binary.BigEndian.Uint64(data[2:])}
	rest, ok := data[10:], true
	p.From, rest, ok = cutField(rest, ok)
	p.Addr, rest, ok = cutField(rest, ok)
	p.Origin, rest, ok = cutField(rest, ok)
	p.Trace, rest, ok = cutField(rest, ok)
	if !ok {
		return Publication{}, fmt.Errorf("wire: decode publication: truncated (%d bytes)", len(data))
	}
	if p.Proto == PackedVersion {
		p.Doc = rest
	} else {
		p.XML = string(rest)
	}
	if err := validatePublication(&p); err != nil {
		return Publication{}, fmt.Errorf("wire: decode publication: %w", err)
	}
	return p, nil
}

// cutField reads one length-prefixed field off b; ok chains, so a run
// of cuts is checked once at the end.
func cutField(b []byte, ok bool) (string, []byte, bool) {
	if !ok || len(b) < 2 || len(b)-2 < int(binary.BigEndian.Uint16(b)) {
		return "", nil, false
	}
	n := 2 + int(binary.BigEndian.Uint16(b))
	return string(b[2:n]), b[n:], true
}

func validatePublication(p *Publication) error {
	if p.Proto != ProtocolVersion && p.Proto != PackedVersion {
		return fmt.Errorf("protocol version %d, want %d or %d", p.Proto, ProtocolVersion, PackedVersion)
	}
	if p.XML != "" && len(p.Doc) != 0 {
		return fmt.Errorf("document both packed and as text")
	}
	if err := validateID(p.From, "from"); err != nil {
		return err
	}
	if err := validateID(p.Origin, "origin"); err != nil {
		return err
	}
	if len(p.Addr) > MaxOriginLen {
		return fmt.Errorf("addr longer than %d bytes", MaxOriginLen)
	}
	if p.TTL < 0 || p.TTL > MaxTTL {
		return fmt.Errorf("ttl %d outside [0,%d]", p.TTL, MaxTTL)
	}
	if len(p.XML)+len(p.Doc) == 0 {
		return fmt.Errorf("empty document")
	}
	if len(p.XML)+len(p.Doc) > MaxXMLLen {
		return fmt.Errorf("document longer than %d bytes", MaxXMLLen)
	}
	if len(p.Trace) > MaxTraceLen {
		return fmt.Errorf("trace id longer than %d bytes", MaxTraceLen)
	}
	return nil
}

// EncodeInfo serializes an info snapshot.
func EncodeInfo(i Info) ([]byte, error) {
	i.Proto = ProtocolVersion
	return json.Marshal(i)
}

// DecodeInfo parses an info snapshot (id is all the dialing side needs;
// the rest is diagnostic and accepted as-is).
func DecodeInfo(data []byte) (Info, error) {
	var i Info
	if err := json.Unmarshal(data, &i); err != nil {
		return Info{}, fmt.Errorf("wire: decode info: %w", err)
	}
	if i.Proto != ProtocolVersion {
		return Info{}, fmt.Errorf("wire: decode info: protocol version %d, want %d", i.Proto, ProtocolVersion)
	}
	if err := validateID(i.ID, "id"); err != nil {
		return Info{}, fmt.Errorf("wire: decode info: %w", err)
	}
	return i, nil
}

func validateID(id, field string) error {
	if id == "" {
		return fmt.Errorf("empty %s id", field)
	}
	if len(id) > MaxOriginLen {
		return fmt.Errorf("%s id longer than %d bytes", field, MaxOriginLen)
	}
	return nil
}
