package registry

import (
	"net"
	"time"

	"dlte/internal/simnet"
	"dlte/internal/wire"
)

// defaultPushTimeout bounds one push to a subscriber, its catch-up
// included. The store pushes under its mutation lock, so this is also
// the longest a subscriber that stops reading can hold up the
// registry's writers before it is dropped.
const defaultPushTimeout = 2 * time.Second

// Server exposes a Store over the framed binary protocol.
type Server struct {
	store       *Store
	pushTimeout time.Duration
}

// NewServer wraps a store.
func NewServer(store *Store) *Server {
	return &Server{store: store, pushTimeout: defaultPushTimeout}
}

// Serve installs the server as l's accept handler and returns. Every
// connection is served by its own delivery handler (serverConn), so
// the server costs no goroutine and never parks.
func (s *Server) Serve(l *simnet.Listener) {
	l.OnAccept(func(c *simnet.Conn) { c.OnDeliverHandler(s.newConn(c)) })
}

// ServeConn serves one blocking connection — a real TCP conn — until
// it closes, feeding the same engine one frame at a time. It returns
// when the connection ends.
func (s *Server) ServeConn(c net.Conn) {
	sc := s.newConn(c)
	for {
		b, err := sc.fc.RecvOwned()
		if err != nil {
			break
		}
		err = sc.serve(b)
		wire.PutFrame(b)
		if err != nil {
			break
		}
	}
	sc.HandleStreamClose()
}

// serverConn is one client connection's engine: it answers each
// request inline, and on opSubscribe turns the connection into a push
// feed. Over simnet it is the conn's simnet.StreamHandler and every
// call runs on the network's delivery thread; ServeConn drives it
// from the connection's reader.
type serverConn struct {
	s      *Server
	c      net.Conn
	fc     *wire.FrameConn
	asm    wire.FrameAssembler
	cancel func() // the store subscription, once the conn is a feed
	dead   bool

	// Per-connection buffers, reused so steady-state requests allocate
	// nothing.
	region []APRecord
	deltas []Delta
}

func (s *Server) newConn(c net.Conn) *serverConn {
	return &serverConn{s: s, c: c, fc: wire.NewFrameConn(c)}
}

// HandleDeliver implements simnet.StreamHandler: reassemble the chunk
// and serve every request it completes. A broken frame or connection
// drops the client.
func (sc *serverConn) HandleDeliver(data []byte) {
	if sc.dead {
		return
	}
	if sc.asm.Feed(data, sc.serve) != nil {
		sc.HandleStreamClose()
	}
}

// HandleStreamClose implements simnet.StreamHandler: the client hung up
// (or broke), which also ends its subscription.
func (sc *serverConn) HandleStreamClose() {
	sc.asm.Reset()
	sc.dead = true
	if sc.cancel != nil {
		sc.cancel()
		sc.cancel = nil
	}
	sc.c.Close()
}

// serve answers one request frame. The returned error reports a broken
// connection, not a request failure (those travel to the client as
// respErr).
func (sc *serverConn) serve(b []byte) error {
	if sc.cancel != nil {
		return nil // a feed: the subscriber sends nothing more
	}
	req, err := decodeRequest(b)
	if err != nil {
		// Unknown op or malformed frame: the peer is broken (or
		// speaking protocol v1 JSON) — fail fast.
		sendErr(sc.fc, errCodeGeneric, "bad request")
		return err
	}
	if req.op == opSubscribe {
		return sc.subscribe(req.fromRev)
	}
	return sc.handle(req)
}

// handle serves one request, writing the response frame(s).
func (sc *serverConn) handle(req request) error {
	store, fc := sc.s.store, sc.fc
	switch req.op {
	case opJoin:
		if err := store.Join(req.ap); err != nil {
			return sendErr(fc, errCodeGeneric, err.Error())
		}
		return sendU64(fc, respAck, store.Revision())
	case opLeave:
		if err := store.Leave(req.id); err != nil {
			return sendErr(fc, errCodeGeneric, err.Error())
		}
		return sendU64(fc, respAck, store.Revision())
	case opList:
		return sendRecords(fc, store.Revision(), store.List(req.band))
	case opRegion:
		sc.region = store.InRegionAppend(req.band, req.rect, sc.region[:0])
		return sendRecords(fc, store.Revision(), sc.region)
	case opPublishKey:
		if err := store.PublishKey(req.key); err != nil {
			return sendErr(fc, errCodeGeneric, err.Error())
		}
		return sendU64(fc, respAck, store.Revision())
	case opFetchKey:
		k, ok := store.FetchKey(req.imsi)
		if !ok {
			return sendErr(fc, errCodeNotFound, ErrNotFound.Error())
		}
		return sendKeys(fc, store.Revision(), []KeyRecord{k})
	case opKeys:
		return sendKeys(fc, store.Revision(), store.Keys())
	case opRev:
		return sendU64(fc, respRev, store.Revision())
	case opDeltas:
		ds, ok := store.DeltasSince(req.fromRev, sc.deltas[:0])
		sc.deltas = ds
		if !ok {
			return sendErr(fc, errCodeGap, ErrDeltaGap.Error())
		}
		return sendDeltas(fc, store.Revision(), ds)
	}
	return sendErr(fc, errCodeGeneric, "unknown op")
}

// subscribe turns the connection into a one-way push feed. The store
// pushes each frame from inside the mutation that causes it: a
// catch-up first — a full snapshot (respSnapshot, then records and keys
// chunks) if the client's revision has aged out of the delta log,
// else one batch of the deltas since — then one frame per live delta.
// The subscriber sends nothing more; its hang-up (HandleStreamClose)
// cancels the subscription.
//
// Each push carries a write deadline of pushTimeout (simnet writes never
// block and ignore it; a TCP subscriber that stops reading fails its
// push instead of holding the store lock). A failed push closes the
// connection: the store has dropped the subscriber, and the client sees
// its feed end rather than go silent.
func (sc *serverConn) subscribe(fromRev uint64) error {
	c, fc := sc.c, sc.fc
	clk, timeout := simnet.ClockOf(c), sc.s.pushTimeout
	cancel, err := sc.s.store.Subscribe(fromRev, func(f Feed) error {
		c.SetWriteDeadline(clk.Now().Add(timeout))
		var err error
		if f.Snapshot {
			err = sendSnapshot(fc, f.Rev, f.Records, f.Keys)
		} else {
			err = sendDeltas(fc, f.Rev, f.Deltas)
		}
		if err != nil {
			c.Close()
		}
		return err
	})
	if err != nil {
		return err
	}
	sc.cancel = cancel
	return nil
}

// --- frame senders -----------------------------------------------------

// send encodes and ships one response frame. A frame that fails to
// encode goes out as a respErr naming the failure instead.
func send(fc *wire.FrameConn, ch *chunk) error {
	c := wire.GetEncoder()
	defer wire.PutEncoder(c)
	ch.walk(c)
	if err := c.Err(); err != nil {
		c.Reset()
		(&chunk{kind: respErr, errCode: errCodeGeneric, errMsg: err.Error()}).walk(c)
	}
	return fc.Send(c.Bytes())
}

func sendErr(fc *wire.FrameConn, code uint8, msg string) error {
	return send(fc, &chunk{kind: respErr, errCode: code, errMsg: msg})
}

func sendU64(fc *wire.FrameConn, kind uint8, rev uint64) error {
	return send(fc, &chunk{kind: kind, rev: rev})
}

// sendChunked ships items as one or more frames (always at least one,
// so an empty result still carries the revision) of up to max items
// each; frame builds the chunk for one slice of them.
func sendChunked[T any](fc *wire.FrameConn, items []T, max int, frame func(part []T, more bool) chunk) error {
	for {
		n := min(len(items), max)
		ch := frame(items[:n], len(items) > n)
		if err := send(fc, &ch); err != nil {
			return err
		}
		items = items[n:]
		if len(items) == 0 {
			return nil
		}
	}
}

func sendRecords(fc *wire.FrameConn, rev uint64, recs []APRecord) error {
	return sendChunked(fc, recs, maxRecordsPerFrame, func(part []APRecord, more bool) chunk {
		return chunk{kind: respRecords, rev: rev, more: more, records: part}
	})
}

func sendKeys(fc *wire.FrameConn, rev uint64, keys []KeyRecord) error {
	return sendChunked(fc, keys, maxKeysPerFrame, func(part []KeyRecord, more bool) chunk {
		return chunk{kind: respKeys, rev: rev, more: more, keys: part}
	})
}

func sendDeltas(fc *wire.FrameConn, rev uint64, ds []Delta) error {
	return sendChunked(fc, ds, maxDeltasPerFrame, func(part []Delta, more bool) chunk {
		return chunk{kind: respDeltas, rev: rev, more: more, deltas: part}
	})
}

func sendSnapshot(fc *wire.FrameConn, rev uint64, recs []APRecord, keys []KeyRecord) error {
	if err := sendU64(fc, respSnapshot, rev); err != nil {
		return err
	}
	if err := sendRecords(fc, rev, recs); err != nil {
		return err
	}
	return sendKeys(fc, rev, keys)
}
