package registry

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"dlte/internal/geo"
	"dlte/internal/wire"
)

// Client talks to a registry server over one stream connection.
// Methods are safe for concurrent use (requests serialize).
type Client struct {
	mu sync.Mutex
	fc *wire.FrameConn
	c  net.Conn

	bytesTx atomic.Uint64
	bytesRx atomic.Uint64
}

// Dial connects a client using the given dial function and address.
func Dial(dial func(addr string) (net.Conn, error), addr string) (*Client, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("registry: dial %s: %w", addr, err)
	}
	return &Client{fc: wire.NewFrameConn(c), c: c}, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.c.Close() }

// Traffic reports total bytes sent and received on the wire (payload
// plus frame headers) since the client connected.
func (c *Client) Traffic() (tx, rx uint64) {
	return c.bytesTx.Load(), c.bytesRx.Load()
}

// send encodes and ships one request frame, accounting the bytes.
// Caller holds c.mu.
func (c *Client) send(q request) error {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	q.walk(e)
	if err := e.Err(); err != nil {
		return err
	}
	if err := c.fc.Send(e.Bytes()); err != nil {
		return fmt.Errorf("registry: send: %w", err)
	}
	c.bytesTx.Add(uint64(e.Len()) + 4)
	return nil
}

func chunkError(ch chunk) error {
	switch ch.errCode {
	case errCodeNotFound:
		return ErrNotFound
	case errCodeGap:
		return ErrDeltaGap
	}
	return fmt.Errorf("registry: %s", ch.errMsg)
}

// result accumulates a (possibly chunked) reply.
type result struct {
	rev     uint64
	records []APRecord
	keys    []KeyRecord
	deltas  []Delta
}

// exchange sends the request, then reads reply frames until the
// terminal chunk and decodes them into res. Caller holds c.mu.
//
// A bulk reply carries no total count, so exchange holds its frames
// until the terminal chunk, reading each one's item count through
// chunk.head. The result then grows once, to at least the exact total
// (a KeysAppend dst with room already has it), and every frame decodes
// straight into place, so each item is copied once and the result is
// sized once however many frames carry it. Holding the frames costs
// nothing: the server fills every non-terminal chunk, and a full chunk
// of even the smallest encodable item is over the pooled frame class,
// so it is exact-fit memory whose strings FrameSharingDecoder aliases
// — the decoded items keep it alive anyway. A pooled terminal frame is
// decoded last, into one string copy, and goes back to the pool.
func (c *Client) exchange(q request, res result) (result, error) {
	if err := c.send(q); err != nil {
		return res, err
	}
	var held [8][]byte
	frames := held[:0]
	var nRecords, nKeys, nDeltas int
	for {
		b, err := c.fc.RecvOwned()
		if err != nil {
			putFrames(frames)
			return res, fmt.Errorf("registry: recv: %w", err)
		}
		c.bytesRx.Add(uint64(len(b)) + 4)
		var h chunk
		d := wire.Decoder(b)
		// Every item takes at least one octet, so a count past the
		// frame's length cannot decode; capping it there keeps a
		// forged count from sizing more than the bytes received.
		n := min(h.head(&d), len(b))
		switch h.kind {
		case respRecords:
			nRecords += n
		case respKeys:
			nKeys += n
		case respDeltas:
			nDeltas += n
		}
		if h.terminal() {
			frames = append(frames, b)
			break
		}
		// A pooled non-terminal frame (a peer that chunks small) is
		// copied out rather than held, so holding a reply costs about
		// its wire bytes whatever its chunking.
		frames = append(frames, wire.DetachFrame(b))
	}
	res.records = slices.Grow(res.records, nRecords)
	res.keys = slices.Grow(res.keys, nKeys)
	res.deltas = slices.Grow(res.deltas, nDeltas)
	for i, b := range frames {
		ch := chunk{
			records: res.records[len(res.records):],
			keys:    res.keys[len(res.keys):],
			deltas:  res.deltas[len(res.deltas):],
		}
		d := wire.FrameSharingDecoder(b)
		ch.walk(&d)
		derr := d.Err()
		wire.PutFrame(b)
		if derr != nil {
			putFrames(frames[i+1:])
			return res, fmt.Errorf("registry: bad response: %w", derr)
		}
		if ch.kind == respErr {
			return res, chunkError(ch)
		}
		res.rev = ch.rev
		// The items landed in the spare capacity, which holds at
		// least what this frame and the rest still carry.
		res.records = res.records[:len(res.records)+len(ch.records)]
		res.keys = res.keys[:len(res.keys)+len(ch.keys)]
		res.deltas = res.deltas[:len(res.deltas)+len(ch.deltas)]
	}
	return res, nil
}

// putFrames releases received frames that will not be decoded.
func putFrames(frames [][]byte) {
	for _, b := range frames {
		wire.PutFrame(b)
	}
}

// Join registers the AP record.
func (c *Client) Join(r APRecord) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.exchange(request{op: opJoin, ap: r}, result{})
	return err
}

// Leave removes the AP record.
func (c *Client) Leave(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.exchange(request{op: opLeave, id: id}, result{})
	return err
}

// List fetches all records in a band ("" = all).
func (c *Client) List(band string) ([]APRecord, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, err := c.exchange(request{op: opList, band: band}, result{})
	return res.records, err
}

// InRegion fetches records within the rectangle.
func (c *Client) InRegion(band string, rect geo.Rect) ([]APRecord, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, err := c.exchange(request{op: opRegion, band: band, rect: rect}, result{})
	return res.records, err
}

// PublishKey publishes an open-SIM key.
func (c *Client) PublishKey(k KeyRecord) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.exchange(request{op: opPublishKey, key: k}, result{})
	return err
}

// FetchKey retrieves one published key.
func (c *Client) FetchKey(imsi string) (KeyRecord, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, err := c.exchange(request{op: opFetchKey, imsi: imsi}, result{})
	if err != nil {
		return KeyRecord{}, err
	}
	if len(res.keys) == 0 {
		return KeyRecord{}, ErrNotFound
	}
	return res.keys[0], nil
}

// Keys retrieves all published keys.
func (c *Client) Keys() ([]KeyRecord, error) { return c.KeysAppend(nil) }

// KeysAppend appends all published keys to dst and returns the extended
// slice. The keys decode straight into dst's spare capacity, so a
// poller that passes the previous pull back as dst[:0] reuses one
// slice across pulls.
func (c *Client) KeysAppend(dst []KeyRecord) ([]KeyRecord, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, err := c.exchange(request{op: opKeys}, result{keys: dst})
	return res.keys, err
}

// Revision reads the server's revision counter — one tiny frame each
// way, 0 allocs/op at steady state — so AccessPoint.syncMirror knows
// which revision its mirror must reach without fetching the AP list.
func (c *Client) Revision() (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.send(request{op: opRev}); err != nil {
		return 0, err
	}
	b, err := c.fc.RecvOwned()
	if err != nil {
		return 0, fmt.Errorf("registry: recv: %w", err)
	}
	c.bytesRx.Add(uint64(len(b)) + 4)
	ch, derr := decodeChunk(b) // a respRev chunk decodes without allocating
	wire.PutFrame(b)
	switch {
	case derr != nil:
		return 0, fmt.Errorf("registry: bad response: %w", derr)
	case ch.kind == respRev:
		return ch.rev, nil
	case ch.kind == respErr:
		return 0, chunkError(ch)
	}
	return 0, fmt.Errorf("registry: unexpected response kind %d", ch.kind)
}

// DeltasSince pulls all deltas after fromRev. ErrDeltaGap means fromRev
// has aged out of the server's log and the caller must resync via
// List/Keys (or a Mirror, whose feed handles the fallback itself).
func (c *Client) DeltasSince(fromRev uint64) ([]Delta, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, err := c.exchange(request{op: opDeltas, fromRev: fromRev}, result{})
	return res.deltas, res.rev, err
}
