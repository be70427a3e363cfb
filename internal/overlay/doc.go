// Package overlay federates broker engines into a routed multi-broker
// topology — the network layer of the paper's scalable content-based
// routing. Brokers never exchange raw subscription tables: each node
// advertises the containment antichain of its subscriptions, the few
// patterns that stand for all of them, and forwards a publication over
// a link only when the document matches some aggregate reachable
// through it.
//
//	         adverts ⟲                 adverts ⟲
//	┌───┐  ───────────►  ┌───┐  ───────────►  ┌───┐
//	│ A │                │ B │                │ C │   sub /x/y
//	└───┘  ◄───────────  └───┘  ◄───────────  └───┘
//	  │      publications flow the other way     ▲
//	  └── <x><y/></x> ── forwarded ── forwarded ─┘
//	      <zzz/>      ── dropped at A (no matching aggregate via B)
//
// Aggregation (advert.go). The kept patterns are subscriptions whose
// match sets unite to the population's, so a peer forwards exactly what
// it would on the full table: on exact-mode brokers ~60 patterns stand
// for 500 subscriptions. The advert is built from the engine's live
// patterns alone, whatever communities its clustering put them in, so
// no SEL evaluation runs on the advert path and a re-bucket owes no
// advert. The cover is edited by the churn since the last advert, so
// BenchmarkAdvertBuild reads 1.1 ms at 8192 subscriptions against 32 ms
// from scratch.
//
// Gossip. Adverts carry (origin, version, aggregates). A node accepts a
// version new for its origin, records the arrival link as the next hop
// toward that origin and re-gossips to its other links, so publications
// flow down the reverse edges of each version's broadcast tree. Churn
// re-advertises past the AdvertPolicy; an origin with no subscriptions
// advertises a tombstone, closing the routes toward it.
//
// Forwarding. A publication carries (origin, seq, TTL); a seen-set
// suppresses duplicates on cyclic topologies. The document is matched
// once against one matching.Forest of every origin's aggregates, and the
// next hop of each matched origin names the links it goes out on. A link
// is one stream per direction (stream.go; the frames and their versions
// are package wire's). A broker acks a publication only after its own
// injection and downstream forwards have returned, so when POST /publish
// answers at the first broker every broker the document reached holds
// its deliveries; a document travels as its xmltree.Pack bytes, which
// each hop loads once for its engine and its forest, and never unpacks.
//
// Trust and delivery model. Peer messages are validated (bounded,
// parseable) but not authenticated: any reachable sender could advertise
// under another node's origin and divert its traffic, so deploy peers on
// an isolated network or behind an authenticating proxy. Sends are
// synchronous and best-effort: an unreachable peer costs its timeout on
// the goroutine that advertises or forwards, and a failed send is
// counted, not retried — the next advert version resyncs routing state.
package overlay
