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
// terminal chunk, decoding into res's spare capacity. Caller holds c.mu.
func (c *Client) exchange(q request, res result) (result, error) {
	if err := c.send(q); err != nil {
		return res, err
	}
	for {
		b, err := c.fc.RecvOwned()
		if err != nil {
			return res, fmt.Errorf("registry: recv: %w", err)
		}
		c.bytesRx.Add(uint64(len(b)) + 4)
		// Lists decode straight into the result's spare capacity
		// (wire.Len reuses it), so each item is copied once however
		// many frames carry it. Their strings share one copy of a
		// pooled frame (as decodeChunk's do), which goes back to the
		// pool below; a frame over the pooled class is that copy.
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
			return res, fmt.Errorf("registry: bad response: %w", derr)
		}
		if ch.kind == respErr {
			return res, chunkError(ch)
		}
		res.rev = ch.rev
		res.records = gather(res.records, ch.records, ch.more, maxRecordsPerFrame)
		res.keys = gather(res.keys, ch.keys, ch.more, maxKeysPerFrame)
		res.deltas = gather(res.deltas, ch.deltas, ch.more, maxDeltasPerFrame)
		if ch.terminal() {
			return res, nil
		}
	}
}

// gather adds got, a chunk's items decoded against acc's spare
// capacity, to acc: in place when they landed there (they did exactly
// when they fit), adopted when acc is empty, appended otherwise.
// While more chunks follow it reserves at least a frame's worth of
// room, doubling acc, so every later chunk decodes in place and a reply
// of f frames sizes its result about log2(f) times.
func gather[T any](acc, got []T, more bool, frame int) []T {
	switch {
	case cap(acc)-len(acc) >= len(got):
		acc = acc[:len(acc)+len(got)]
	case len(acc) == 0:
		acc = got
	default:
		acc = append(acc, got...)
	}
	if more && len(got) > 0 && cap(acc)-len(acc) < frame {
		acc = slices.Grow(acc, max(len(acc), frame))
	}
	return acc
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
