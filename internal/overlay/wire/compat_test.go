package wire

import (
	"bytes"
	"encoding/binary"
	"os"
	"reflect"
	"strings"
	"testing"
)

// The publication payload is a binary layout peers of different builds
// must agree on byte for byte; these tests pin it against frames kept
// under testdata/, in both directions: publish.frame is version 1 (XML
// text, what brokers sent before the document travelled packed, still
// decoded), publish.v2.frame is version 2 (what they send).

var goldenPublication = Publication{
	Proto: ProtocolVersion, From: "node-b", Addr: "http://127.0.0.1:8691",
	Origin: "node-a", Seq: 0x0102030405060708, TTL: 15,
	XML: "<media><CD title=\"K. 551\">Mozart &amp; sons</CD></media>", Trace: "0123456789abcdef",
}

// goldenPacked is goldenPublication carrying xmltree.Pack's bytes for
// media(CD(title)) instead of text.
var goldenPacked = func() Publication {
	p := goldenPublication
	p.Proto, p.XML = PackedVersion, ""
	p.Doc = []byte("\x03\x03\x05media\x02CD\x05title\x00\x01\x01\x01\x02\x00")
	return p
}()

// TestPublicationGoldenFrame: each committed publish frame decodes to
// the value it was made from, and encoding that value reproduces the
// frame — header, payload layout and the document, unescaped.
func TestPublicationGoldenFrame(t *testing.T) {
	for file, want := range map[string]Publication{"testdata/publish.frame": goldenPublication, "testdata/publish.v2.frame": goldenPacked} {
		golden, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		wantID := uint32(41 + want.Proto)
		kind, id, payload, err := ReadFrame(bytes.NewReader(golden), MaxXMLLen)
		if err != nil || kind != KindPublish || id != wantID || len(payload) != len(golden)-FrameHeaderLen {
			t.Fatalf("%s: kind %d id %d payload %d of %d bytes, err %v", file, kind, id, len(payload), len(golden), err)
		}
		dec, err := DecodePublication(payload)
		if err != nil {
			t.Fatalf("%s rejected: %v", file, err)
		}
		if !reflect.DeepEqual(dec, want) {
			t.Fatalf("%s decoded to\n%+v, want\n%+v", file, dec, want)
		}
		if len(dec.Doc) > 0 && &dec.Doc[0] != &payload[len(payload)-len(dec.Doc)] {
			t.Errorf("%s: the decoded document is a copy of the payload's tail, not the tail", file)
		}
		enc, err := EncodePublication(want)
		if err != nil {
			t.Fatal(err)
		}
		if frame := AppendFrame(nil, KindPublish, wantID, enc); !bytes.Equal(frame, golden) {
			t.Fatalf("encoding drifted from %s:\n%q\n%q", file, frame, golden)
		}
		if !bytes.HasSuffix(golden, append([]byte(want.XML), want.Doc...)) {
			t.Fatalf("%s: the document does not ride the frame verbatim", file)
		}
	}
}

// TestPublicationEncodeOmitsEmptyTrace: an untraced publication spends
// nothing on the trace but its zero length prefix, and decodes back to
// an empty Trace.
func TestPublicationEncodeOmitsEmptyTrace(t *testing.T) {
	p := goldenPublication
	traced, err := EncodePublication(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Trace = ""
	enc, err := EncodePublication(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != len(traced)-len(goldenPublication.Trace) {
		t.Fatalf("untraced frame is %d bytes, traced %d: the empty trace costs payload", len(enc), len(traced))
	}
	if dec, err := DecodePublication(enc); err != nil || dec.Trace != "" {
		t.Fatalf("untraced frame decoded with trace %q, err %v", dec.Trace, err)
	}
}

// rawPublication lays a publication out without the codec's validation,
// to craft frames no encoder would produce.
func rawPublication(p Publication) []byte {
	b := []byte{byte(p.Proto), byte(p.TTL)}
	b = binary.BigEndian.AppendUint64(b, p.Seq)
	for _, s := range []string{p.From, p.Addr, p.Origin, p.Trace} {
		b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
		b = append(b, s...)
	}
	return append(append(b, p.XML...), p.Doc...)
}

// TestPublicationTraceRoundTripAndBounds: traced frames round-trip,
// oversized trace IDs are rejected on both paths.
func TestPublicationTraceRoundTripAndBounds(t *testing.T) {
	p := Publication{From: "a", Origin: "b", Seq: 3, TTL: 2, XML: "<x/>", Trace: "00ff00ff00ff00ff"}
	enc, err := EncodePublication(p)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodePublication(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Trace != p.Trace {
		t.Fatalf("trace %q round-tripped to %q", p.Trace, dec.Trace)
	}
	huge := p
	huge.Proto = ProtocolVersion
	huge.Trace = strings.Repeat("x", MaxTraceLen+1)
	if _, err := EncodePublication(huge); err == nil {
		t.Error("encode accepted oversized trace")
	}
	if _, err := DecodePublication(rawPublication(huge)); err == nil {
		t.Error("decode accepted oversized trace")
	}
}

// TestDecodePublicationRejects: every cap validatePublication enforces
// holds on the decode path, as do the layout's own limits.
func TestDecodePublicationRejects(t *testing.T) {
	valid := Publication{Proto: ProtocolVersion, From: "a", Addr: "http://h:1", Origin: "b", Seq: 9, TTL: 3, XML: "<x/>", Trace: "t"}
	packed := valid
	packed.Proto, packed.XML, packed.Doc = PackedVersion, "", []byte{1, 1, 1, 'x', 0, 0}
	for _, p := range []Publication{valid, packed} {
		if _, err := DecodePublication(rawPublication(p)); err != nil {
			t.Fatalf("valid raw version-%d frame rejected: %v", p.Proto, err)
		}
	}
	long := strings.Repeat("x", MaxOriginLen+1)
	for name, mutate := range map[string]func(*Publication){
		"version 0":    func(p *Publication) { p.Proto = 0 },
		"version 3":    func(p *Publication) { p.Proto = PackedVersion + 1 },
		"json frame":   func(p *Publication) { p.Proto = '{' },
		"empty packed": func(p *Publication) { p.Proto, p.XML = PackedVersion, "" },
		"huge packed":  func(p *Publication) { p.Proto, p.XML, p.Doc = PackedVersion, "", make([]byte, MaxXMLLen+1) },
		"empty from":   func(p *Publication) { p.From = "" },
		"long from":    func(p *Publication) { p.From = long },
		"long addr":    func(p *Publication) { p.Addr = long },
		"no origin":    func(p *Publication) { p.Origin = "" },
		"long origin":  func(p *Publication) { p.Origin = long },
		"huge ttl":     func(p *Publication) { p.TTL = MaxTTL + 1 },
		"long trace":   func(p *Publication) { p.Trace = strings.Repeat("x", MaxTraceLen+1) },
		"empty doc":    func(p *Publication) { p.XML = "" },
		"huge doc":     func(p *Publication) { p.XML = strings.Repeat("x", MaxXMLLen+1) },
	} {
		p := valid
		mutate(&p)
		if _, err := DecodePublication(rawPublication(p)); err == nil {
			t.Errorf("%s: decode accepted the frame", name)
		}
	}
	raw := rawPublication(valid)
	for n := 0; n < len(raw)-len(valid.XML); n++ {
		if _, err := DecodePublication(raw[:n]); err == nil {
			t.Errorf("decode accepted the frame cut to %d of %d bytes", n, len(raw))
		}
	}
	if _, err := DecodePublication([]byte(`{"proto":1,"from":"a","origin":"b","seq":7,"ttl":3,"xml":"<doc/>"}`)); err == nil {
		t.Error("decode accepted the JSON frame of the old protocol")
	}
}

// TestReadFrameBounds: a frame over the reader's cap is refused before
// its payload is read, a short one is an unexpected EOF.
func TestReadFrameBounds(t *testing.T) {
	frame := AppendFrame(nil, KindAdvert, 7, []byte("0123456789"))
	if kind, id, payload, err := ReadFrame(bytes.NewReader(frame), 10); err != nil || kind != KindAdvert || id != 7 || string(payload) != "0123456789" {
		t.Fatalf("frame at the cap: kind %d id %d %q, err %v", kind, id, payload, err)
	}
	r := bytes.NewReader(frame)
	if _, _, _, err := ReadFrame(r, 9); err == nil || r.Len() != 10 {
		t.Fatalf("frame over the cap: err %v with %d payload bytes unread, want an error and 10", err, r.Len())
	}
	for n := 0; n < len(frame); n++ {
		if _, _, _, err := ReadFrame(bytes.NewReader(frame[:n]), 10); err == nil {
			t.Fatalf("frame cut to %d bytes accepted", n)
		}
	}
}

// TestAckRoundTrip: every status survives the ack payload, the message
// is cut to the cap, and junk is rejected.
func TestAckRoundTrip(t *testing.T) {
	for st := StatusOK; st <= StatusBad; st++ {
		got, msg, err := DecodeAck(EncodeAck(st, "why"))
		if err != nil || got != st || msg != "why" {
			t.Errorf("status %d round-tripped to %d %q, err %v", st, got, msg, err)
		}
	}
	if p := EncodeAck(StatusBad, strings.Repeat("m", 4*MaxAckLen)); len(p) != MaxAckLen {
		t.Errorf("oversized message encoded to %d bytes, cap is %d", len(p), MaxAckLen)
	}
	for _, junk := range [][]byte{nil, {byte(StatusBad) + 1}, make([]byte, MaxAckLen+1)} {
		if _, _, err := DecodeAck(junk); err == nil {
			t.Errorf("DecodeAck accepted %d junk bytes", len(junk))
		}
	}
}
