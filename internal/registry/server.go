package registry

import (
	"net"
	"time"

	"dlte/internal/simnet"
	"dlte/internal/wire"
)

// Listener abstracts net.Listener / simnet.Listener.
type Listener interface {
	Accept() (net.Conn, error)
	Close() error
}

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

// Store returns the underlying store (for in-process seeding).
func (s *Server) Store() *Store { return s.store }

// Serve accepts clients until the listener closes. Run in a goroutine.
func (s *Server) Serve(l Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		simnet.ClockOf(c).Go(func() { s.serveConn(c) })
	}
}

// connState carries per-connection scratch so steady-state request
// handling stays allocation-free.
type connState struct {
	region []APRecord
	deltas []Delta
}

func (s *Server) serveConn(c net.Conn) {
	defer c.Close()
	fc := wire.NewFrameConn(c)
	var cs connState
	for {
		b, err := fc.RecvOwned()
		if err != nil {
			return
		}
		req, derr := decodeRequest(b)
		wire.PutFrame(b)
		if derr != nil {
			// Unknown op or malformed frame: the peer is broken (or
			// speaking protocol v1 JSON) — fail fast.
			sendErr(fc, errCodeGeneric, "bad request")
			return
		}
		if req.op == opSubscribe {
			s.serveSubscription(c, fc, req.fromRev)
			return
		}
		if err := s.handle(fc, req, &cs); err != nil {
			return
		}
	}
}

// handle serves one request, writing the response frame(s) to fc. The
// returned error reports a broken connection, not a request failure
// (those travel to the client as respErr).
func (s *Server) handle(fc *wire.FrameConn, req request, cs *connState) error {
	switch req.op {
	case opJoin:
		if err := s.store.Join(req.ap); err != nil {
			return sendErr(fc, errCodeGeneric, err.Error())
		}
		return sendU64(fc, respAck, s.store.Revision())
	case opLeave:
		if err := s.store.Leave(req.id); err != nil {
			return sendErr(fc, errCodeGeneric, err.Error())
		}
		return sendU64(fc, respAck, s.store.Revision())
	case opList:
		return sendRecords(fc, s.store.Revision(), s.store.List(req.band))
	case opRegion:
		cs.region = s.store.InRegionAppend(req.band, req.rect, cs.region[:0])
		return sendRecords(fc, s.store.Revision(), cs.region)
	case opPublishKey:
		if err := s.store.PublishKey(req.key); err != nil {
			return sendErr(fc, errCodeGeneric, err.Error())
		}
		return sendU64(fc, respAck, s.store.Revision())
	case opFetchKey:
		k, ok := s.store.FetchKey(req.imsi)
		if !ok {
			return sendErr(fc, errCodeNotFound, ErrNotFound.Error())
		}
		return sendKeyFrame(fc, s.store.Revision(), k)
	case opKeys:
		return sendKeys(fc, s.store.Revision(), s.store.Keys())
	case opRev:
		return sendU64(fc, respRev, s.store.Revision())
	case opDeltas:
		ds, ok := s.store.DeltasSince(req.fromRev, cs.deltas[:0])
		cs.deltas = ds
		if !ok {
			return sendErr(fc, errCodeGap, ErrDeltaGap.Error())
		}
		return sendDeltas(fc, s.store.Revision(), ds)
	}
	return sendErr(fc, errCodeGeneric, "unknown op")
}

// serveSubscription turns the connection into a one-way push feed. The
// store pushes each frame from inside the mutation that causes it: a
// catch-up first — a full snapshot (respSnapshot, then records and keys
// chunks) if the client's revision has aged out of the delta log,
// else one batch of the deltas since — then one frame per live delta.
// The subscriber sends nothing more; reading on only notices its
// hang-up, which ends the subscription.
//
// Each push carries a write deadline of pushTimeout (simnet writes never
// block and ignore it; a TCP subscriber that stops reading fails its
// push instead of holding the store lock). A failed push closes the
// connection: the store has dropped the subscriber, and the client sees
// its feed end rather than go silent.
func (s *Server) serveSubscription(c net.Conn, fc *wire.FrameConn, fromRev uint64) {
	clk := simnet.ClockOf(c)
	cancel, err := s.store.Subscribe(fromRev, func(f Feed) error {
		c.SetWriteDeadline(clk.Now().Add(s.pushTimeout))
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
		return
	}
	defer cancel()
	for {
		b, err := fc.RecvOwned()
		if err != nil {
			return
		}
		wire.PutFrame(b)
	}
}

// --- frame senders -----------------------------------------------------

func sendErr(fc *wire.FrameConn, code uint8, msg string) error {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.U8(respErr)
	w.U8(code)
	w.String16(msg)
	return fc.Send(w.Bytes())
}

func sendU64(fc *wire.FrameConn, kind uint8, rev uint64) error {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.U8(kind)
	w.U64(rev)
	return fc.Send(w.Bytes())
}

// sendRecords ships recs as one or more respRecords frames (always at
// least one, so an empty result still carries the revision).
func sendRecords(fc *wire.FrameConn, rev uint64, recs []APRecord) error {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	for {
		n := len(recs)
		if n > maxRecordsPerFrame {
			n = maxRecordsPerFrame
		}
		w.Reset()
		w.U8(respRecords)
		w.U64(rev)
		w.Bool(len(recs) > n)
		w.U16(uint16(n))
		for _, r := range recs[:n] {
			encodeAP(w, r)
		}
		if err := w.Err(); err != nil {
			return sendErr(fc, errCodeGeneric, err.Error())
		}
		if err := fc.Send(w.Bytes()); err != nil {
			return err
		}
		recs = recs[n:]
		if len(recs) == 0 {
			return nil
		}
	}
}

func sendKeys(fc *wire.FrameConn, rev uint64, keys []KeyRecord) error {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	for {
		n := len(keys)
		if n > maxKeysPerFrame {
			n = maxKeysPerFrame
		}
		w.Reset()
		w.U8(respKeys)
		w.U64(rev)
		w.Bool(len(keys) > n)
		w.U32(uint32(n))
		for _, k := range keys[:n] {
			encodeKey(w, k)
		}
		if err := w.Err(); err != nil {
			return sendErr(fc, errCodeGeneric, err.Error())
		}
		if err := fc.Send(w.Bytes()); err != nil {
			return err
		}
		keys = keys[n:]
		if len(keys) == 0 {
			return nil
		}
	}
}

// sendKeyFrame ships a single key (fetchKey response).
func sendKeyFrame(fc *wire.FrameConn, rev uint64, k KeyRecord) error {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.U8(respKeys)
	w.U64(rev)
	w.Bool(false)
	w.U32(1)
	encodeKey(w, k)
	if err := w.Err(); err != nil {
		return sendErr(fc, errCodeGeneric, err.Error())
	}
	return fc.Send(w.Bytes())
}

func sendDeltas(fc *wire.FrameConn, rev uint64, ds []Delta) error {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	for {
		n := len(ds)
		if n > maxDeltasPerFrame {
			n = maxDeltasPerFrame
		}
		w.Reset()
		w.U8(respDeltas)
		w.U64(rev)
		w.Bool(len(ds) > n)
		w.U16(uint16(n))
		for _, d := range ds[:n] {
			encodeDelta(w, d)
		}
		if err := w.Err(); err != nil {
			return sendErr(fc, errCodeGeneric, err.Error())
		}
		if err := fc.Send(w.Bytes()); err != nil {
			return err
		}
		ds = ds[n:]
		if len(ds) == 0 {
			return nil
		}
	}
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
