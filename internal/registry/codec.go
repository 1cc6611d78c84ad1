package registry

import (
	"fmt"

	"dlte/internal/geo"
	"dlte/internal/wire"
)

// ProtocolVersion identifies the registry wire protocol. Version 1 was
// JSON-over-frames; version 2 (this codec) is wire.Codec binary
// with chunked bulk responses and the revision-delta subscription. The
// version is implicit in the op space — a v1 JSON request starts with
// '{' (0x7B), which v2 rejects as an unknown op and closes the
// connection, so mixed deployments fail fast instead of misparsing.
const ProtocolVersion = 2

// Request ops (first byte of every request frame).
const (
	opJoin       uint8 = 1
	opLeave      uint8 = 2
	opList       uint8 = 3
	opRegion     uint8 = 4
	opPublishKey uint8 = 5
	opFetchKey   uint8 = 6
	opKeys       uint8 = 7
	opRev        uint8 = 8  // lightweight revision probe
	opDeltas     uint8 = 9  // pull deltas since a revision
	opSubscribe  uint8 = 10 // switch the connection to the push feed
)

// Response kinds (first byte of every response frame).
const (
	respErr      uint8 = 0 // U8 code, String16 message
	respAck      uint8 = 1 // U64 revision
	respRecords  uint8 = 2 // U64 rev, U8 more, U16 count, records
	respKeys     uint8 = 3 // U64 rev, U8 more, U32 count, keys
	respRev      uint8 = 4 // U64 revision
	respDeltas   uint8 = 5 // U64 rev, U8 more, U16 count, deltas
	respSnapshot uint8 = 6 // U64 rev; records+keys chunks follow on the feed
)

// Error codes carried by respErr so clients recover typed sentinels.
const (
	errCodeGeneric  uint8 = 0
	errCodeNotFound uint8 = 1
	errCodeGap      uint8 = 2
)

// Chunk caps: bulk responses split into frames well under
// wire.MaxFrameSize (a 100k-key dump is ~9 MB — far past one frame).
// Decoders reject counts above these bounds before allocating.
const (
	maxRecordsPerFrame = 2048
	maxKeysPerFrame    = 4096
	maxDeltasPerFrame  = 1024
)

// The walks below are the one declaration of every registry layout;
// encoding and decoding both run them.

func (r *APRecord) walk(c *wire.Codec) {
	c.String8(&r.ID)
	c.String8(&r.X2Addr)
	c.F64(&r.X)
	c.F64(&r.Y)
	c.String8(&r.Band)
	c.F64(&r.EIRPdBm)
	c.F64(&r.HeightM)
	c.String8(&r.Mode)
}

func (k *KeyRecord) walk(c *wire.Codec) {
	c.String8(&k.IMSI)
	c.String8(&k.K)
	c.String8(&k.OPc)
}

func (d *Delta) walk(c *wire.Codec) {
	c.U8(&d.Kind)
	c.U64(&d.Rev)
	switch d.Kind {
	case DeltaJoin:
		d.AP.walk(c)
	case DeltaLeave:
		c.String8(&d.ID)
	case DeltaKey:
		d.Key.walk(c)
	default:
		c.Fail(fmt.Errorf("registry: unknown delta kind %d", d.Kind))
	}
}

// request is one request frame: the op, then exactly the fields it
// implies.
type request struct {
	op      uint8
	ap      APRecord // join
	id      string   // leave
	band    string   // list, region
	rect    geo.Rect // region
	key     KeyRecord
	imsi    string // fetchKey
	fromRev uint64 // deltas, subscribe
}

func (q *request) walk(c *wire.Codec) {
	c.U8(&q.op)
	switch q.op {
	case opJoin:
		q.ap.walk(c)
	case opLeave:
		c.String8(&q.id)
	case opList:
		c.String8(&q.band)
	case opRegion:
		c.String8(&q.band)
		c.F64(&q.rect.Min.X)
		c.F64(&q.rect.Min.Y)
		c.F64(&q.rect.Max.X)
		c.F64(&q.rect.Max.Y)
	case opPublishKey:
		q.key.walk(c)
	case opFetchKey:
		c.String8(&q.imsi)
	case opKeys, opRev:
	case opDeltas, opSubscribe:
		c.U64(&q.fromRev)
	default:
		c.Fail(fmt.Errorf("registry: unknown op %d", q.op))
	}
}

func decodeRequest(b []byte) (request, error) {
	var q request
	c := wire.Decoder(b)
	q.walk(&c)
	if q.op == opRegion { // the corners may arrive in either order
		q.rect = geo.NewRect(q.rect.Min, q.rect.Max)
	}
	return q, c.Err()
}

// chunk is one response frame. Bulk responses span several chunks;
// more marks continuations of the same reply.
type chunk struct {
	kind    uint8
	rev     uint64
	more    bool
	errCode uint8
	errMsg  string
	records []APRecord
	keys    []KeyRecord
	deltas  []Delta
}

func (ch *chunk) walk(c *wire.Codec) {
	c.U8(&ch.kind)
	switch ch.kind {
	case respErr:
		c.U8(&ch.errCode)
		c.String16(&ch.errMsg)
	case respAck, respRev, respSnapshot:
		c.U64(&ch.rev)
	case respRecords:
		c.U64(&ch.rev)
		c.Bool(&ch.more)
		wire.Len(c, &ch.records, 2, maxRecordsPerFrame)
		for i := range ch.records {
			ch.records[i].walk(c)
		}
	case respKeys:
		c.U64(&ch.rev)
		c.Bool(&ch.more)
		wire.Len(c, &ch.keys, 4, maxKeysPerFrame)
		for i := range ch.keys {
			ch.keys[i].walk(c)
		}
	case respDeltas:
		c.U64(&ch.rev)
		c.Bool(&ch.more)
		wire.Len(c, &ch.deltas, 2, maxDeltasPerFrame)
		for i := range ch.deltas {
			ch.deltas[i].walk(c)
		}
	default:
		c.Fail(fmt.Errorf("registry: unknown response kind %d", ch.kind))
	}
}

func decodeChunk(b []byte) (chunk, error) {
	var ch chunk
	c := wire.Decoder(b)
	ch.walk(&c)
	return ch, c.Err()
}

// terminal reports whether this chunk completes a reply (no
// continuation frames follow it within the same request/response
// exchange).
func (ch chunk) terminal() bool {
	switch ch.kind {
	case respRecords, respKeys, respDeltas:
		return !ch.more
	}
	return true
}
