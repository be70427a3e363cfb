package overlay

import (
	"fmt"

	"treesim/internal/overlay/wire"
)

// Transport delivers wire messages to one peer node. Sends are
// synchronous: a nil return means the peer accepted the message.
type Transport interface {
	SendAdvert(wire.AdvertBatch) error
	SendPublish(wire.Publication) error
}

// Inproc is a Transport delivering to another Node in the same process.
// Messages pass through the wire codec — encoded and re-decoded — so
// in-process topologies (tests, cmd/treesim-net) exercise exactly the
// payload bytes the frames between daemons carry, including
// canonicalization and validation.
type Inproc struct {
	Peer *Node
}

// SendAdvert implements Transport.
func (t Inproc) SendAdvert(b wire.AdvertBatch) error {
	data, err := wire.EncodeAdvertBatch(b)
	if err != nil {
		return fmt.Errorf("overlay: inproc advert: %w", err)
	}
	dec, err := wire.DecodeAdvertBatch(data)
	if err != nil {
		return fmt.Errorf("overlay: inproc advert: %w", err)
	}
	return t.Peer.HandleAdvert(dec)
}

// SendPublish implements Transport.
func (t Inproc) SendPublish(p wire.Publication) error {
	data, err := wire.EncodePublication(p)
	if err != nil {
		return fmt.Errorf("overlay: inproc publish: %w", err)
	}
	dec, err := wire.DecodePublication(data)
	if err != nil {
		return fmt.Errorf("overlay: inproc publish: %w", err)
	}
	return t.Peer.HandlePublish(dec)
}

// Connect links two nodes bidirectionally with in-process transports,
// exchanging full routing state both ways. Both links are registered
// before either sync, so neither side rejects the other's state batch
// as coming from an unknown peer.
func Connect(a, b *Node) error {
	return ConnectTransports(a, b, Inproc{Peer: b}, Inproc{Peer: a})
}

// ConnectTransports is Connect with caller-supplied transports for each
// direction (a→b via ab, b→a via ba) — the hook for fault-injecting
// wrappers in chaos tests and for mixed-transport topologies.
func ConnectTransports(a, b *Node, ab, ba Transport) error {
	if err := a.addPeerLink(b.ID(), ab); err != nil {
		return err
	}
	if err := b.addPeerLink(a.ID(), ba); err != nil {
		return err
	}
	if err := a.syncPeer(b.ID()); err != nil {
		return err
	}
	return b.syncPeer(a.ID())
}
