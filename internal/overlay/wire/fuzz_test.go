package wire

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeAdvert drives the advert codec with arbitrary bytes — peer
// brokers feed it straight from the network, so it must never panic,
// and anything it accepts must survive an encode/decode round trip
// unchanged (decode canonicalizes, so decode∘encode must be the
// identity on decoded batches).
func FuzzDecodeAdvert(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{"proto":1,"from":"a","adverts":[]}`,
		`{"proto":1,"from":"a","adverts":[{"origin":"b","version":1,"communities":[]}]}`,
		`{"proto":1,"from":"a","addr":"http://127.0.0.1:1","adverts":[{"origin":"b","version":18446744073709551615,"hops":3,"communities":[{"patterns":["/media/CD[title]","//Mozart"],"members":7,"selectivity":0.25}]}]}`,
		`{"proto":1,"from":"a","adverts":[{"origin":"b","version":2,"communities":[{"patterns":["/a[c][b]"],"members":1,"selectivity":1}]}]}`,
		`{"proto":1,"from":"a","adverts":[{"origin":"b","version":2,"communities":[{"patterns":["/."],"members":0,"selectivity":0}]}]}`,
		`{"proto":1,"from":"a","adverts":[{"origin":"b","version":1,"communities":[{"patterns":["/a["],"members":1,"selectivity":0}]}]}`,
		`{"proto":2,"from":"a","adverts":[]}`,
		`{"proto":1,"from":"","adverts":[]}`,
		`{"proto":1,"from":"a","adverts":[{"origin":"b","version":1e2}]}`,
		`{"proto":1,"from":"a","unknown":true,"adverts":[{"origin":"b","version":1,"communities":[{"patterns":["//*"],"members":2,"selectivity":0.5}]}]}`,
		`[1,2,3]`,
		`{"proto":1,"from":"a","adverts":[{"origin":"b","version":1,"communities":[{"patterns":["/a\u0000b"],"members":1,"selectivity":0}]}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeAdvertBatch(data)
		if err != nil {
			return
		}
		enc, err := EncodeAdvertBatch(b)
		if err != nil {
			t.Fatalf("decoded batch does not re-encode: %v (%+v)", err, b)
		}
		b2, err := DecodeAdvertBatch(enc)
		if err != nil {
			t.Fatalf("encoded batch does not re-decode: %v (%s)", err, enc)
		}
		if !reflect.DeepEqual(b, b2) {
			t.Fatalf("decode→encode→decode changed the batch:\n%+v\n%+v", b, b2)
		}
		enc2, err := EncodeAdvertBatch(b2)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if string(enc) != string(enc2) {
			t.Fatalf("encode is not byte-stable on decoded batches:\n%s\n%s", enc, enc2)
		}
	})
}

// FuzzDecodePublication drives the publication codec with arbitrary
// bytes, as a peer stream does. It must never panic; whatever it
// accepts satisfies every cap validatePublication enforces and carries
// its document in the one form its version byte names; and the layout
// is canonical, so an accepted payload of either version is byte for
// byte its own encoding and decode∘encode is the identity on decoded
// values.
func FuzzDecodePublication(f *testing.F) {
	valid := Publication{Proto: ProtocolVersion, From: "a", Addr: "http://h:1", Origin: "b", Seq: 9, TTL: 3, XML: "<x/>", Trace: "t"}
	f.Add(rawPublication(valid))
	if golden, err := os.ReadFile("testdata/publish.frame"); err == nil {
		f.Add(golden[FrameHeaderLen:])
	}
	long := strings.Repeat("x", MaxOriginLen+1)
	for _, mutate := range []func(*Publication){
		func(p *Publication) { p.Proto = 2 },
		func(p *Publication) { p.TTL = MaxTTL + 1 },
		func(p *Publication) { p.From = long },
		func(p *Publication) { p.Addr = long },
		func(p *Publication) { p.Origin = "" },
		func(p *Publication) { p.Trace = strings.Repeat("x", MaxTraceLen+1) },
		func(p *Publication) { p.XML = "" },
		func(p *Publication) { p.Addr, p.Trace = "", "" },
		func(p *Publication) { p.XML = "\xff\x00<" },
	} {
		p := valid
		mutate(&p)
		f.Add(rawPublication(p))
	}
	f.Add(rawPublication(valid)[:19])
	f.Add([]byte(`{"proto":1,"from":"a","origin":"b","seq":7,"ttl":3,"xml":"<doc/>"}`))
	f.Add([]byte{})
	if golden, err := os.ReadFile("testdata/publish.v2.frame"); err == nil {
		f.Add(golden[FrameHeaderLen:])
		f.Add(golden[FrameHeaderLen : len(golden)-3]) // the codec does not look inside the document
	}
	for _, proto := range []int{0, PackedVersion + 1} {
		p := valid
		p.Proto = proto
		f.Add(rawPublication(p))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePublication(data)
		if err != nil {
			return
		}
		if p.TTL < 0 || p.TTL > MaxTTL ||
			p.From == "" || len(p.From) > MaxOriginLen || p.Origin == "" || len(p.Origin) > MaxOriginLen ||
			len(p.Addr) > MaxOriginLen || len(p.Trace) > MaxTraceLen || len(p.XML)+len(p.Doc) > MaxXMLLen {
			t.Fatalf("decode accepted a publication over a cap: %+v", p)
		}
		if text, packed := p.Proto == ProtocolVersion && p.XML != "" && p.Doc == nil, p.Proto == PackedVersion && p.XML == "" && len(p.Doc) > 0; !text && !packed {
			t.Fatalf("decode accepted version %d with %d bytes of text and %d packed", p.Proto, len(p.XML), len(p.Doc))
		}
		enc, err := EncodePublication(p)
		if err != nil {
			t.Fatalf("decoded publication does not re-encode: %v (%+v)", err, p)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("an accepted payload is not its own encoding:\n%q\n%q", data, enc)
		}
		p2, err := DecodePublication(enc)
		if err != nil || !reflect.DeepEqual(p, p2) {
			t.Fatalf("decode→encode→decode changed the publication (%v):\n%+v\n%+v", err, p, p2)
		}
	})
}
