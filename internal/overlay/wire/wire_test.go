package wire

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// jsonMarshalUnchecked serializes without the codec's validation, to
// craft invalid-on-the-wire batches.
func jsonMarshalUnchecked(b AdvertBatch) ([]byte, error) { return json.Marshal(b) }

func validBatch() AdvertBatch {
	return AdvertBatch{
		From: "node-a",
		Addr: "http://127.0.0.1:8690",
		Adverts: []Advert{
			{
				Origin:  "node-a",
				Version: 3,
				Communities: []Community{
					{Patterns: []string{"/media/CD[title]", "//Mozart"}, Members: 7},
				},
			},
			{Origin: "node-b", Version: 1, Hops: 2}, // tombstone
		},
	}
}

func TestAdvertBatchRoundTrip(t *testing.T) {
	enc, err := EncodeAdvertBatch(validBatch())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := DecodeAdvertBatch(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Proto != ProtocolVersion || dec.From != "node-a" || len(dec.Adverts) != 2 {
		t.Fatalf("bad decode: %+v", dec)
	}
	enc2, err := EncodeAdvertBatch(dec)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	dec2, err := DecodeAdvertBatch(enc2)
	if err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	if !reflect.DeepEqual(dec, dec2) {
		t.Fatalf("round trip changed batch:\n%+v\n%+v", dec, dec2)
	}
}

func TestDecodeCanonicalizesPatterns(t *testing.T) {
	// Predicate order is semantically irrelevant; decode must normalize
	// it so equal aggregates compare equal on the receiving side. (The
	// selectivity digest older brokers send is ignored.)
	a := `{"proto":1,"from":"n","adverts":[{"origin":"n","version":1,
		"communities":[{"patterns":["/a[c][b]"],"members":1,"selectivity":0}]}]}`
	b := strings.Replace(a, "[c][b]", "[b][c]", 1)
	da, err := DecodeAdvertBatch([]byte(a))
	if err != nil {
		t.Fatalf("decode a: %v", err)
	}
	db, err := DecodeAdvertBatch([]byte(b))
	if err != nil {
		t.Fatalf("decode b: %v", err)
	}
	pa := da.Adverts[0].Communities[0].Patterns[0]
	pb := db.Adverts[0].Communities[0].Patterns[0]
	if pa != pb {
		t.Fatalf("canonicalization disagrees: %q vs %q", pa, pb)
	}
}

func TestDecodeAdvertBatchRejects(t *testing.T) {
	cases := map[string]func(*AdvertBatch){
		"empty from":       func(b *AdvertBatch) { b.From = "" },
		"long origin":      func(b *AdvertBatch) { b.Adverts[0].Origin = strings.Repeat("x", MaxOriginLen+1) },
		"negative members": func(b *AdvertBatch) { b.Adverts[0].Communities[0].Members = -1 },
		"bad pattern":      func(b *AdvertBatch) { b.Adverts[0].Communities[0].Patterns[0] = "/a[" },
		"patternless aggr": func(b *AdvertBatch) { b.Adverts[0].Communities[0].Patterns = nil },
		"negative hops":    func(b *AdvertBatch) { b.Adverts[0].Hops = -1 },
		"excessive hops":   func(b *AdvertBatch) { b.Adverts[0].Hops = MaxTTL + 1 },
	}
	for name, mutate := range cases {
		b := validBatch()
		mutate(&b)
		b.Proto = ProtocolVersion
		data, err := jsonMarshalUnchecked(b)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		if _, err := DecodeAdvertBatch(data); err == nil {
			t.Errorf("%s: decode accepted invalid batch", name)
		}
	}
	if _, err := DecodeAdvertBatch([]byte(`{"proto":2,"from":"n"}`)); err == nil {
		t.Error("decode accepted wrong protocol version")
	}
	if _, err := DecodeAdvertBatch([]byte("not json")); err == nil {
		t.Error("decode accepted non-JSON")
	}
}

func TestPublicationRoundTrip(t *testing.T) {
	p := Publication{From: "a", Origin: "b", Seq: 42, TTL: 7, XML: "<doc><x/></doc>"}
	enc, err := EncodePublication(p)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := DecodePublication(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	p.Proto = ProtocolVersion
	if !reflect.DeepEqual(p, dec) {
		t.Fatalf("round trip changed publication: %+v vs %+v", p, dec)
	}
	for name, bad := range map[string]Publication{
		"empty doc":    {From: "a", Origin: "b", TTL: 1},
		"negative ttl": {From: "a", Origin: "b", TTL: -1, XML: "<x/>"},
		"huge ttl":     {From: "a", Origin: "b", TTL: MaxTTL + 1, XML: "<x/>"},
		"no origin":    {From: "a", TTL: 1, XML: "<x/>"},
	} {
		if _, err := EncodePublication(bad); err == nil {
			t.Errorf("%s: encode accepted invalid publication", name)
		}
	}
}

func TestInfoRoundTrip(t *testing.T) {
	i := Info{ID: "n1", Peers: []string{"n2"}, ForwardsSent: 9}
	enc, err := EncodeInfo(i)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := DecodeInfo(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.ID != "n1" || dec.ForwardsSent != 9 {
		t.Fatalf("bad decode: %+v", dec)
	}
	if _, err := DecodeInfo([]byte(`{"proto":1,"id":""}`)); err == nil {
		t.Error("decode accepted empty id")
	}
}
