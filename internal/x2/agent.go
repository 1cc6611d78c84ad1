package x2

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"dlte/internal/simnet"
	"dlte/internal/wire"
)

// Handler receives inbound X2 messages from a connected peer. Handlers
// run inline on the network's dispatcher at the message's delivery
// instant (the simnet.Conn.OnDeliver contract: no clock waits); reply
// via Agent.Send. msg is decoded in place (Inbox): it, its strings and
// its byte fields are valid only for the call, so a handler clones
// whatever it keeps after returning.
type Handler func(peerID string, msg Message)

// ErrNoPeer reports a send to an unconnected peer.
var ErrNoPeer = errors.New("x2: no such peer")

var errClosed = errors.New("x2: agent closed")

// Agent maintains X2 associations with neighboring APs over the
// Internet backhaul: the dial/hello handshake, message dispatch, and
// coordination-traffic accounting (bytes in both directions, used to
// size X2 against backhaul constraints — experiment E7).
type Agent struct {
	id     string
	hello  PeerHello
	handle Handler

	mu     sync.Mutex
	peers  map[string]*peerConn
	closed bool

	// bmu serializes Broadcast so the peer snapshot scratch is reused
	// across calls instead of allocated per call.
	bmu      sync.Mutex
	bscratch []*peerConn

	bytesTx atomic.Uint64
	bytesRx atomic.Uint64
	msgsTx  atomic.Uint64
	msgsRx  atomic.Uint64
}

type peerConn struct {
	id   string
	fc   *wire.FrameConn
	raw  net.Conn
	mode Mode
}

// NewAgent creates an agent for AP id. hello is sent on every new
// association (its APID is forced to id). handler receives all
// non-handshake messages.
func NewAgent(id string, hello PeerHello, handler Handler) *Agent {
	hello.APID = id
	return &Agent{id: id, hello: hello, handle: handler, peers: make(map[string]*peerConn)}
}

// ID reports the agent's AP identity.
func (a *Agent) ID() string { return a.id }

// Serve accepts inbound associations on l and returns at once: each
// arriving conn's first frame must be a PeerHello, answered inline with
// the PeerHelloAck; later frames go to the handler.
func (a *Agent) Serve(l *simnet.Listener) {
	l.OnAccept(func(c *simnet.Conn) { a.receive(c, nil) })
}

// handshake answers an inbound association's first frame, which must
// be a PeerHello, and registers the peer.
func (a *Agent) handshake(c *simnet.Conn, frame []byte) (*peerConn, error) {
	a.bytesRx.Add(uint64(len(frame) + 4))
	msg, err := Decode(frame)
	if err != nil {
		return nil, err
	}
	hello, ok := msg.(*PeerHello)
	if !ok {
		return nil, fmt.Errorf("x2: unexpected %s in handshake", msg.Type())
	}
	ackBytes, err := Marshal(&PeerHelloAck{APID: a.id, Mode: a.hello.Mode})
	if err != nil {
		return nil, err
	}
	fc := wire.NewFrameConn(c)
	if err := fc.Send(ackBytes); err != nil {
		return nil, err
	}
	a.bytesTx.Add(uint64(len(ackBytes) + 4))
	pc := &peerConn{id: hello.APID, fc: fc, raw: c, mode: hello.Mode}
	if !a.register(pc) {
		return nil, errClosed
	}
	return pc, nil
}

// Connect dials a peer's X2 endpoint and performs the hello exchange.
// dial is the host's dial function (simnet Host.Dial: the association
// receives through its delivery handler); addr is "host:port".
func (a *Agent) Connect(dial func(addr string) (net.Conn, error), addr string) (string, error) {
	raw, err := dial(addr)
	if err != nil {
		return "", fmt.Errorf("x2: connect %s: %w", addr, err)
	}
	c, ok := raw.(*simnet.Conn)
	if !ok {
		raw.Close()
		return "", fmt.Errorf("x2: connect %s: %T is not a simnet conn", addr, raw)
	}
	fc := wire.NewFrameConn(c)
	helloBytes, err := Marshal(&a.hello)
	if err != nil {
		c.Close()
		return "", err
	}
	if err := fc.Send(helloBytes); err != nil {
		c.Close()
		return "", fmt.Errorf("x2: hello: %w", err)
	}
	a.bytesTx.Add(uint64(len(helloBytes) + 4))
	b, err := fc.Recv()
	if err != nil {
		c.Close()
		return "", fmt.Errorf("x2: hello ack: %w", err)
	}
	a.bytesRx.Add(uint64(len(b) + 4))
	msg, err := Decode(b)
	if err != nil {
		c.Close()
		return "", err
	}
	ack, ok := msg.(*PeerHelloAck)
	if !ok {
		c.Close()
		return "", fmt.Errorf("x2: unexpected %s in handshake", msg.Type())
	}
	pc := &peerConn{id: ack.APID, fc: fc, raw: c, mode: ack.Mode}
	if !a.register(pc) {
		c.Close()
		return "", errClosed
	}
	a.receive(c, pc)
	return ack.APID, nil
}

// receive installs c's delivery handler: per-association frame
// reassembly and scratch messages, each frame dispatched to inbound
// for pc. On the accept side pc is nil until the first frame, the
// handshake, registers it.
func (a *Agent) receive(c *simnet.Conn, pc *peerConn) {
	asm := &wire.FrameAssembler{}
	in := &Inbox{}
	c.OnDeliver(func(data []byte) {
		if asm.Feed(data, func(frame []byte) error {
			if pc == nil {
				var err error
				pc, err = a.handshake(c, frame)
				return err
			}
			a.inbound(pc, in, frame)
			return nil
		}) != nil {
			// A broken frame or handshake drops the association.
			asm.Reset()
			if pc != nil {
				a.dropPeer(pc)
			}
			c.Close()
		}
	}, func() {
		asm.Reset()
		if pc != nil {
			a.dropPeer(pc)
		} else {
			c.Close() // the peer left before its hello
		}
	})
}

// dropPeer removes the association if pc is still current for its ID.
func (a *Agent) dropPeer(pc *peerConn) {
	a.mu.Lock()
	if cur, ok := a.peers[pc.id]; ok && cur == pc {
		delete(a.peers, pc.id)
	}
	a.mu.Unlock()
}

// inbound accounts and dispatches one received message frame, decoded
// into the association's Inbox: the message views frame, which is only
// valid for the duration of the call, so nothing is copied here and
// the handler clones what it keeps.
func (a *Agent) inbound(pc *peerConn, in *Inbox, frame []byte) {
	a.bytesRx.Add(uint64(len(frame) + 4))
	a.msgsRx.Add(1)
	msg, err := in.Decode(frame)
	if err != nil {
		return // tolerate unknown extensions from newer peers
	}
	if a.handle != nil {
		a.handle(pc.id, msg)
	}
}

func (a *Agent) register(pc *peerConn) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return false
	}
	if old, ok := a.peers[pc.id]; ok {
		old.raw.Close()
	}
	a.peers[pc.id] = pc
	return true
}

// sendFrame ships an encoded message frame to one peer and accounts
// the traffic. FrameConn.Send copies into the stream, so the buffer can
// be pooled by the caller.
func (a *Agent) sendFrame(pc *peerConn, b []byte) error {
	if err := pc.fc.Send(b); err != nil {
		return err
	}
	a.bytesTx.Add(uint64(len(b) + 4))
	a.msgsTx.Add(1)
	return nil
}

// Send delivers a message to the named peer. The encode path uses a
// pooled encoder: 0 allocs/op at steady state.
func (a *Agent) Send(peerID string, m Message) error {
	a.mu.Lock()
	pc, ok := a.peers[peerID]
	a.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoPeer, peerID)
	}
	c := wire.GetEncoder()
	defer wire.PutEncoder(c)
	Encode(c, m)
	if err := c.Err(); err != nil {
		return err
	}
	return a.sendFrame(pc, c.Bytes())
}

// Broadcast sends a message to every connected peer, returning the
// first error (all peers are still attempted). The message is encoded
// once into a pooled encoder and the peer set snapshots into a reused
// scratch slice, so steady-state broadcasts allocate nothing.
func (a *Agent) Broadcast(m Message) error {
	c := wire.GetEncoder()
	defer wire.PutEncoder(c)
	Encode(c, m)
	if err := c.Err(); err != nil {
		return err
	}
	a.bmu.Lock()
	defer a.bmu.Unlock()
	a.mu.Lock()
	a.bscratch = a.bscratch[:0]
	for _, pc := range a.peers {
		a.bscratch = append(a.bscratch, pc)
	}
	a.mu.Unlock()
	var first error
	for i, pc := range a.bscratch {
		if err := a.sendFrame(pc, c.Bytes()); err != nil && first == nil {
			first = err
		}
		a.bscratch[i] = nil // don't pin dropped peers until the next call
	}
	return first
}

// Peers lists the IDs of connected peers.
func (a *Agent) Peers() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.peers))
	for id := range a.peers {
		out = append(out, id)
	}
	return out
}

// PeerCount reports how many peers are connected. Unlike Peers it
// builds no slice, so a WaitUntil predicate can call it at every check.
func (a *Agent) PeerCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.peers)
}

// PeerMode reports the mode a peer declared at handshake.
func (a *Agent) PeerMode(peerID string) (Mode, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	pc, ok := a.peers[peerID]
	if !ok {
		return ModeSelfish, false
	}
	return pc.mode, true
}

// Traffic reports cumulative coordination traffic: bytes and messages
// sent and received (including handshakes and framing overhead).
func (a *Agent) Traffic() (txBytes, rxBytes, txMsgs, rxMsgs uint64) {
	return a.bytesTx.Load(), a.bytesRx.Load(), a.msgsTx.Load(), a.msgsRx.Load()
}

// Close drops all peer associations.
func (a *Agent) Close() {
	a.mu.Lock()
	a.closed = true
	peers := make([]*peerConn, 0, len(a.peers))
	for _, pc := range a.peers {
		peers = append(peers, pc)
	}
	a.peers = make(map[string]*peerConn)
	a.mu.Unlock()
	for _, pc := range peers {
		pc.raw.Close()
	}
}
