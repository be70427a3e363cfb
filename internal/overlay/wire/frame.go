package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// A peer stream carries frames: kind (1 byte) | id (4) | payload length
// (4) | payload, integers big-endian. A request frame is answered by
// exactly one KindAck frame carrying its id, so many requests can be in
// flight on one stream.
const (
	KindPublish byte = 1 // payload: EncodePublication bytes
	KindAdvert  byte = 2 // payload: EncodeAdvertBatch bytes
	KindAck     byte = 3 // payload: a Status byte, then a diagnostic message

	// FrameHeaderLen is the size of kind, id and length.
	FrameHeaderLen = 9
	// MaxAckLen bounds an ack payload.
	MaxAckLen = 1 + 512
)

// Status is the receiver's verdict on one request frame.
type Status byte

const (
	StatusOK     Status = iota // handled: for a publication, injected and forwarded on
	StatusBusy                 // shed under ingest backpressure; the receiver is healthy
	StatusClosed               // the receiver is shutting down
	StatusBad                  // rejected: undecodable, unknown sender, unparseable document
)

// AppendFrame appends one frame to dst.
func AppendFrame(dst []byte, kind byte, id uint32, payload []byte) []byte {
	dst = append(dst, kind)
	dst = binary.BigEndian.AppendUint32(dst, id)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// ReadFrame reads one frame. A payload over max is not read: the error
// leaves the stream unusable, which is what a peer that sends one gets.
func ReadFrame(r io.Reader, max int64) (kind byte, id uint32, payload []byte, err error) {
	var h [FrameHeaderLen]byte
	if _, err = io.ReadFull(r, h[:]); err != nil {
		return 0, 0, nil, err
	}
	kind, id = h[0], binary.BigEndian.Uint32(h[1:])
	size := binary.BigEndian.Uint32(h[5:])
	if int64(size) > max {
		return kind, id, nil, fmt.Errorf("wire: frame of %d bytes exceeds %d", size, max)
	}
	payload = make([]byte, size)
	_, err = io.ReadFull(r, payload)
	return kind, id, payload, err
}

// EncodeAck builds an ack payload; msg is cut to fit MaxAckLen.
func EncodeAck(st Status, msg string) []byte {
	if len(msg) > MaxAckLen-1 {
		msg = msg[:MaxAckLen-1]
	}
	return append([]byte{byte(st)}, msg...)
}

// DecodeAck parses an ack payload.
func DecodeAck(payload []byte) (Status, string, error) {
	if len(payload) == 0 || len(payload) > MaxAckLen || Status(payload[0]) > StatusBad {
		return 0, "", fmt.Errorf("wire: decode ack: malformed (%d bytes)", len(payload))
	}
	return Status(payload[0]), string(payload[1:]), nil
}
