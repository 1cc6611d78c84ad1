package registry

import (
	"encoding/binary"
	"fmt"
	"net"
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

// send ships the writer's frame and accounts the bytes. Caller holds
// c.mu and releases w.
func (c *Client) send(w *wire.Writer) error {
	if err := w.Err(); err != nil {
		return err
	}
	if err := c.fc.Send(w.Bytes()); err != nil {
		return fmt.Errorf("registry: send: %w", err)
	}
	c.bytesTx.Add(uint64(w.Len()) + 4)
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

// exchange sends the request in w (and releases it), then reads reply
// frames until the terminal chunk. Caller holds c.mu.
func (c *Client) exchange(w *wire.Writer) (result, error) {
	err := c.send(w)
	wire.PutWriter(w)
	if err != nil {
		return result{}, err
	}
	var res result
	for {
		b, err := c.fc.RecvOwned()
		if err != nil {
			return res, fmt.Errorf("registry: recv: %w", err)
		}
		c.bytesRx.Add(uint64(len(b)) + 4)
		ch, derr := decodeChunk(b)
		wire.PutFrame(b)
		if derr != nil {
			return res, fmt.Errorf("registry: bad response: %w", derr)
		}
		if ch.kind == respErr {
			return res, chunkError(ch)
		}
		res.rev = ch.rev
		res.records = append(res.records, ch.records...)
		res.keys = append(res.keys, ch.keys...)
		res.deltas = append(res.deltas, ch.deltas...)
		if ch.terminal() {
			return res, nil
		}
	}
}

// Join registers the AP record.
func (c *Client) Join(r APRecord) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := wire.GetWriter()
	w.U8(opJoin)
	encodeAP(w, r)
	_, err := c.exchange(w)
	return err
}

// Leave removes the AP record.
func (c *Client) Leave(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := wire.GetWriter()
	w.U8(opLeave)
	w.String8(id)
	_, err := c.exchange(w)
	return err
}

// List fetches all records in a band ("" = all).
func (c *Client) List(band string) ([]APRecord, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := wire.GetWriter()
	w.U8(opList)
	w.String8(band)
	res, err := c.exchange(w)
	return res.records, err
}

// InRegion fetches records within the rectangle.
func (c *Client) InRegion(band string, rect geo.Rect) ([]APRecord, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := wire.GetWriter()
	w.U8(opRegion)
	w.String8(band)
	w.F64(rect.Min.X)
	w.F64(rect.Min.Y)
	w.F64(rect.Max.X)
	w.F64(rect.Max.Y)
	res, err := c.exchange(w)
	return res.records, err
}

// PublishKey publishes an open-SIM key.
func (c *Client) PublishKey(k KeyRecord) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := wire.GetWriter()
	w.U8(opPublishKey)
	encodeKey(w, k)
	_, err := c.exchange(w)
	return err
}

// FetchKey retrieves one published key.
func (c *Client) FetchKey(imsi string) (KeyRecord, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := wire.GetWriter()
	w.U8(opFetchKey)
	w.String8(imsi)
	res, err := c.exchange(w)
	if err != nil {
		return KeyRecord{}, err
	}
	if len(res.keys) == 0 {
		return KeyRecord{}, ErrNotFound
	}
	return res.keys[0], nil
}

// Keys retrieves all published keys.
func (c *Client) Keys() ([]KeyRecord, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := wire.GetWriter()
	w.U8(opKeys)
	res, err := c.exchange(w)
	return res.keys, err
}

// Revision reads the server's revision counter — one tiny frame each
// way, 0 allocs/op at steady state — so AccessPoint.syncMirror knows
// which revision its mirror must reach without fetching the AP list.
func (c *Client) Revision() (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := wire.GetWriter()
	w.U8(opRev)
	err := c.send(w)
	wire.PutWriter(w)
	if err != nil {
		return 0, err
	}
	b, err := c.fc.RecvOwned()
	if err != nil {
		return 0, fmt.Errorf("registry: recv: %w", err)
	}
	c.bytesRx.Add(uint64(len(b)) + 4)
	// Decode in place: the reply is one kind byte and the counter.
	if len(b) == 9 && b[0] == respRev {
		rev := binary.BigEndian.Uint64(b[1:])
		wire.PutFrame(b)
		return rev, nil
	}
	ch, derr := decodeChunk(b)
	wire.PutFrame(b)
	if derr != nil {
		return 0, fmt.Errorf("registry: bad response: %w", derr)
	}
	if ch.kind == respErr {
		return 0, chunkError(ch)
	}
	return 0, fmt.Errorf("registry: unexpected response kind %d", ch.kind)
}

// DeltasSince pulls all deltas after fromRev. ErrDeltaGap means fromRev
// has aged out of the server's log and the caller must resync via
// List/Keys (or a Subscription, which handles the fallback itself).
func (c *Client) DeltasSince(fromRev uint64) ([]Delta, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := wire.GetWriter()
	w.U8(opDeltas)
	w.U64(fromRev)
	res, err := c.exchange(w)
	return res.deltas, res.rev, err
}

// Subscription is the client side of the revision-delta push feed: one
// opSubscribe request, then the server streams snapshot and delta
// frames. Mirror wraps it with state; use a Subscription directly only
// to meter or relay the raw feed.
type Subscription struct {
	c  net.Conn
	fc *wire.FrameConn

	bytesTx atomic.Uint64
	bytesRx atomic.Uint64
}

// Subscribe opens a subscription whose feed starts after fromRev.
// Subscribing from 0 on a populated server yields a full snapshot
// first; subscribing from a recent revision yields only the deltas.
func Subscribe(dial func(addr string) (net.Conn, error), addr string, fromRev uint64) (*Subscription, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("registry: dial %s: %w", addr, err)
	}
	s := &Subscription{c: c, fc: wire.NewFrameConn(c)}
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.U8(opSubscribe)
	w.U64(fromRev)
	if err := s.fc.Send(w.Bytes()); err != nil {
		c.Close()
		return nil, fmt.Errorf("registry: subscribe: %w", err)
	}
	s.bytesTx.Add(uint64(w.Len()) + 4)
	return s, nil
}

// next blocks for the next feed frame.
func (s *Subscription) next() (chunk, error) {
	b, err := s.fc.RecvOwned()
	if err != nil {
		return chunk{}, err
	}
	s.bytesRx.Add(uint64(len(b)) + 4)
	ch, derr := decodeChunk(b)
	wire.PutFrame(b)
	return ch, derr
}

// Conn exposes the underlying connection (clock discovery).
func (s *Subscription) Conn() net.Conn { return s.c }

// Traffic reports total bytes sent and received on the wire.
func (s *Subscription) Traffic() (tx, rx uint64) {
	return s.bytesTx.Load(), s.bytesRx.Load()
}

// Close tears down the feed.
func (s *Subscription) Close() error { return s.c.Close() }
