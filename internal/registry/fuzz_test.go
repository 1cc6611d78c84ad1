package registry

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"dlte/internal/geo"
	"dlte/internal/wire"
)

// frame encodes any layout the walk declares, as the client and
// server do, for seeds and round-trip checks.
func frame(walk func(c *wire.Codec)) []byte {
	c := wire.GetEncoder()
	defer wire.PutEncoder(c)
	walk(c)
	if err := c.Err(); err != nil {
		panic(err)
	}
	return bytes.Clone(c.Bytes())
}

func encodeRequest(q request) []byte { return frame(q.walk) }

func encodeChunk(ch chunk) []byte { return frame(ch.walk) }

// FuzzDecode feeds arbitrary bytes to both registry frame decoders.
// Registry frames arrive from other administrative domains (any AP on
// the Internet can dial the global registry), so the decoders must
// reject malformed input cleanly: no panics, no oversized allocations
// from forged counts, and every accepted frame must re-encode to the
// exact bytes that were decoded (the codec admits no two readings of
// one frame).
//
// Run the seeds with `go test`; explore with
// `go test -fuzz=FuzzDecode ./internal/registry`.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})                                                            // empty
	f.Add([]byte{opJoin})                                                      // join with no record
	f.Add([]byte{0x7B})                                                        // '{' — a protocol-v1 JSON request
	f.Add([]byte{opRev, 0xFF})                                                 // trailing junk
	f.Add([]byte{respKeys, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0xFF, 0xFF, 0xFF, 0xFF}) // forged huge count
	f.Add(encodeRequest(request{op: opJoin, ap: APRecord{ID: "ap1", X2Addr: "ap1:36422", Band: "b", Mode: "fair-share"}}))
	f.Add(encodeRequest(request{op: opLeave, id: "ap1"}))
	f.Add(encodeRequest(request{op: opList}))
	f.Add(encodeRequest(request{op: opRegion, band: "b", rect: geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))}))
	f.Add(encodeRequest(request{op: opPublishKey, key: KeyRecord{IMSI: "001010000000001", K: "00", OPc: "00"}}))
	f.Add(encodeRequest(request{op: opFetchKey, imsi: "001010000000001"}))
	f.Add(encodeRequest(request{op: opKeys}))
	f.Add(encodeRequest(request{op: opDeltas, fromRev: 7}))
	f.Add(encodeRequest(request{op: opSubscribe}))
	f.Add(encodeChunk(chunk{kind: respErr, errCode: errCodeGap, errMsg: ErrDeltaGap.Error()}))
	f.Add(encodeChunk(chunk{kind: respAck, rev: 42}))
	f.Add(encodeChunk(chunk{kind: respRecords, rev: 9, more: true, records: []APRecord{{ID: "a"}, {ID: "b"}}}))
	f.Add(encodeChunk(chunk{kind: respKeys, rev: 9, keys: []KeyRecord{{IMSI: "i", K: "k", OPc: "o"}}}))
	f.Add(encodeChunk(chunk{kind: respDeltas, rev: 3, deltas: []Delta{
		{Kind: DeltaJoin, Rev: 1, AP: APRecord{ID: "a"}},
		{Kind: DeltaLeave, Rev: 2, ID: "a"},
		{Kind: DeltaKey, Rev: 3, Key: KeyRecord{IMSI: "i"}},
	}}))
	f.Add(encodeChunk(chunk{kind: respSnapshot, rev: 12}))

	f.Fuzz(func(t *testing.T, b []byte) {
		if req, err := decodeRequest(b); err == nil {
			// Accepted requests re-encode to exactly the input frame.
			round := encodeRequest(req)
			// geo.NewRect normalizes min/max, so opRegion frames with a
			// "backwards" rectangle legitimately re-encode differently;
			// everything else must round-trip byte for byte.
			normalized := req.op == opRegion &&
				(req.rect.Min.X != req.rect.Max.X || req.rect.Min.Y != req.rect.Max.Y)
			if !bytes.Equal(round, b) && !normalized {
				t.Fatalf("request round trip mismatch:\n got %x\nwant %x", round, b)
			}
		}
		if ch, err := decodeChunk(b); err == nil {
			if len(ch.records) > maxRecordsPerFrame || len(ch.keys) > maxKeysPerFrame || len(ch.deltas) > maxDeltasPerFrame {
				t.Fatalf("decoded chunk exceeds frame caps: %d/%d/%d", len(ch.records), len(ch.keys), len(ch.deltas))
			}
			if round := encodeChunk(ch); !bytes.Equal(round, b) {
				t.Fatalf("chunk round trip mismatch:\n got %x\nwant %x", round, b)
			}
		}
	})
}

// clampAP bounds string fields to what String8 can carry (the store
// also rejects longer IDs, so real records never exceed this).
func clampAP(r APRecord) APRecord {
	c := func(s string) string {
		if len(s) > 255 {
			return s[:255]
		}
		return s
	}
	r.ID, r.X2Addr, r.Band, r.Mode = c(r.ID), c(r.X2Addr), c(r.Band), c(r.Mode)
	return r
}

func clampKey(k KeyRecord) KeyRecord {
	c := func(s string) string {
		if len(s) > 255 {
			return s[:255]
		}
		return s
	}
	return KeyRecord{IMSI: c(k.IMSI), K: c(k.K), OPc: c(k.OPc)}
}

// roundTrip encodes in with its walk and decodes the bytes into out
// with the same walk, strictly.
func roundTrip(in, out interface{ walk(*wire.Codec) }) error {
	c := wire.Decoder(frame(in.walk))
	out.walk(&c)
	return c.Err()
}

// TestAPCodecRoundTripProperty checks that the APRecord walk decodes
// what it encodes, for arbitrary records.
func TestAPCodecRoundTripProperty(t *testing.T) {
	f := func(r APRecord) bool {
		r = clampAP(r)
		var got APRecord
		return roundTrip(&r, &got) == nil && got == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestKeyCodecRoundTripProperty does the same for key records.
func TestKeyCodecRoundTripProperty(t *testing.T) {
	f := func(k KeyRecord) bool {
		k = clampKey(k)
		var got KeyRecord
		return roundTrip(&k, &got) == nil && got == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestDeltaCodecRoundTripProperty covers all three delta kinds,
// including that only the fields the kind implies survive the wire.
func TestDeltaCodecRoundTripProperty(t *testing.T) {
	f := func(kindSel uint8, rev uint64, ap APRecord, id string, key KeyRecord) bool {
		d := Delta{Kind: kindSel%3 + 1, Rev: rev}
		switch d.Kind {
		case DeltaJoin:
			d.AP = clampAP(ap)
		case DeltaLeave:
			if len(id) > 255 {
				id = id[:255]
			}
			d.ID = id
		case DeltaKey:
			d.Key = clampKey(key)
		}
		var got Delta
		return roundTrip(&d, &got) == nil && reflect.DeepEqual(got, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestDecodeRequestRejects pins the failure modes the fuzzer explores:
// protocol-v1 JSON, unknown ops, truncation, and trailing bytes.
func TestDecodeRequestRejects(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"v1 JSON":     []byte(`{"op":"join"}`),
		"unknown op":  {200},
		"truncated":   {opLeave, 5, 'a'},
		"trailing":    {opRev, 0},
		"region trim": {opRegion, 0, 1, 2, 3},
	}
	for name, b := range cases {
		if _, err := decodeRequest(b); err == nil {
			t.Errorf("%s: decodeRequest accepted %x", name, b)
		}
	}
	if _, err := decodeChunk([]byte{respKeys, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Error("decodeChunk accepted a forged 4-billion-key count")
	}
	if _, err := decodeChunk(append(encodeChunk(chunk{kind: respAck, rev: 1}), 0)); err == nil {
		t.Error("decodeChunk accepted trailing bytes")
	}
}
