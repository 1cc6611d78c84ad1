package transport

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"dlte/internal/simnet"
)

// PacketConn is the datagram surface MST runs over: a simnet.PacketConn
// or a ue.BearerConn, receiving only through SetHandler (data valid
// only for the call). A session's timers are continuations on its
// socket's simnet.Network (see networkOf), so MST does not run over
// real UDP.
type PacketConn interface {
	WriteTo(b []byte, addr net.Addr) (int, error)
	SetHandler(h func(data []byte, from net.Addr))
	Close() error
}

// Session errors.
var (
	ErrClosed  = errors.New("transport: session closed")
	ErrReset   = errors.New("transport: session reset by peer")
	ErrTimeout = errors.New("transport: timeout")
)

// rto is the retransmission timeout for unacked data.
const rto = 60 * time.Millisecond

// maxWindow bounds unacknowledged packets in flight.
const maxWindow = 64

// session is the shared reliable engine used by both ends: sequenced
// sends with cumulative acks and RTO retransmission, in-order
// delivery, and a swappable (path-migratable) socket/peer.
type session struct {
	// clk is the socket's virtual clock: RTO ages and, on the client,
	// the mailboxes Dial, Send and Recv wait on.
	clk *simnet.VirtualClock

	mu     sync.Mutex
	pc     PacketConn
	peer   net.Addr
	cid    uint64
	closed bool
	reset  bool

	// Send state. A send past the window either parks on window (the
	// client's, one token per freed window) or, where window is nil
	// (the server's, whose sends run inside handlers), queues in
	// backlog until an ack frees space.
	nextSeq  uint64
	inflight map[uint64]*inflightPkt
	window   *simnet.Mailbox[struct{}]
	backlog  [][]byte

	// Receive state.
	expected uint64
	pending  map[uint64][]byte

	// Stats.
	sent, retransmits, delivered uint64
}

type inflightPkt struct {
	payload []byte
	lastTx  time.Time
}

// networkOf returns the simnet network pc lives on, or an error naming
// the socket type when it has none.
func networkOf(pc PacketConn) (*simnet.Network, error) {
	if s, ok := pc.(interface{ Network() *simnet.Network }); ok {
		return s.Network(), nil
	}
	return nil, fmt.Errorf("transport: %T does not run on a simnet network", pc)
}

func newSession(clk *simnet.VirtualClock, pc PacketConn, peer net.Addr, cid uint64, window *simnet.Mailbox[struct{}]) *session {
	return &session{
		clk:      clk,
		pc:       pc,
		peer:     peer,
		cid:      cid,
		inflight: make(map[uint64]*inflightPkt),
		window:   window,
		pending:  make(map[uint64][]byte),
	}
}

// send transmits one payload reliably. Past the window it parks until
// an ack frees space (the client), or queues the payload for the ack
// that frees it to transmit (the server, which must never park).
func (s *session) send(payload []byte) error {
	s.mu.Lock()
	waited := false
	for s.window != nil && !s.closed && !s.reset && len(s.inflight) >= maxWindow {
		s.mu.Unlock()
		s.window.Wait() // a freed-window token, or ErrClosed once the session ends
		s.mu.Lock()
		waited = true
	}
	if waited {
		s.window.Put(struct{}{}) // another sender may wait on the same freed space
	}
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.reset {
		s.mu.Unlock()
		return ErrReset
	}
	data := make([]byte, len(payload))
	copy(data, payload)
	if len(s.backlog) > 0 || len(s.inflight) >= maxWindow {
		s.backlog = append(s.backlog, data)
		s.mu.Unlock()
		return nil
	}
	seq := s.enqueueLocked(data)
	pc, peer := s.pc, s.peer
	s.mu.Unlock()

	return s.writePacket(pc, peer, Packet{Type: PktData, CID: s.cid, Seq: seq})
}

// enqueueLocked puts data in flight under the next sequence number.
func (s *session) enqueueLocked(data []byte) uint64 {
	seq := s.nextSeq
	s.nextSeq++
	s.inflight[seq] = &inflightPkt{payload: data, lastTx: s.clk.Now()}
	s.sent++
	return seq
}

// opened runs after an ack freed window space: it wakes a client sender
// parked in send, or transmits the server's queued payloads in order
// as far as the window now allows.
func (s *session) opened() {
	if s.window != nil {
		s.window.Put(struct{}{})
		return
	}
	s.mu.Lock()
	if s.closed || s.reset {
		s.mu.Unlock()
		return
	}
	var seqs []uint64
	for len(s.backlog) > 0 && len(s.inflight) < maxWindow {
		seqs = append(seqs, s.enqueueLocked(s.backlog[0]))
		s.backlog[0] = nil
		s.backlog = s.backlog[1:]
	}
	pc, peer := s.pc, s.peer
	s.mu.Unlock()
	for _, seq := range seqs {
		s.writePacket(pc, peer, Packet{Type: PktData, CID: s.cid, Seq: seq})
	}
}

func (s *session) writePacket(pc PacketConn, peer net.Addr, p Packet) error {
	if p.Type == PktData {
		s.mu.Lock()
		if pkt, ok := s.inflight[p.Seq]; ok {
			p.Payload = pkt.payload
		}
		p.Ack = s.expected
		s.mu.Unlock()
	}
	b, err := EncodePacket(p)
	if err != nil {
		return err
	}
	_, err = pc.WriteTo(b, peer)
	return err
}

// ingestData absorbs an inbound DATA packet: it applies the
// piggybacked ack and advances the in-order receive state, but wakes
// nobody and sends nothing. The caller puts the returned cumulative ack
// on the wire first and only then hands the payloads on and calls
// opened — so whatever this packet sets off (the app's reply to a
// payload, a sender freed by the ack) is written strictly after our
// ack. Keeping that wire order fixed is what makes same-seed runs
// byte-identical: an app that replies before the ack is written races
// it for the link's serialization slot.
func (s *session) ingestData(p Packet) (ack uint64, deliver [][]byte, freed bool) {
	s.mu.Lock()
	freed = s.applyAckLocked(p.Ack)
	if p.Seq >= s.expected {
		if _, dup := s.pending[p.Seq]; !dup {
			data := make([]byte, len(p.Payload))
			copy(data, p.Payload)
			s.pending[p.Seq] = data
		}
	}
	for {
		d, ok := s.pending[s.expected]
		if !ok {
			break
		}
		delete(s.pending, s.expected)
		s.expected++
		deliver = append(deliver, d)
	}
	ack = s.expected
	s.delivered += uint64(len(deliver))
	s.mu.Unlock()
	return ack, deliver, freed
}

// handleAck processes a cumulative acknowledgment.
func (s *session) handleAck(ack uint64) {
	s.mu.Lock()
	freed := s.applyAckLocked(ack)
	s.mu.Unlock()
	if freed {
		s.opened()
	}
}

// applyAckLocked discards acked inflight packets and reports whether
// window space was freed. The caller decides when to wake a sender.
func (s *session) applyAckLocked(ack uint64) bool {
	freed := false
	for seq := range s.inflight {
		if seq < ack {
			delete(s.inflight, seq)
			freed = true
		}
	}
	return freed
}

// retransmitTick resends any packet older than the RTO.
func (s *session) retransmitTick() {
	s.mu.Lock()
	if s.closed || s.reset {
		s.mu.Unlock()
		return
	}
	now := s.clk.Now()
	var stale []uint64
	for seq, pkt := range s.inflight {
		if now.Sub(pkt.lastTx) >= rto {
			pkt.lastTx = now
			stale = append(stale, seq)
		}
	}
	s.retransmits += uint64(len(stale))
	pc, peer := s.pc, s.peer
	s.mu.Unlock()

	// Resend in sequence order: inflight is a map, and letting Go's
	// randomized iteration order pick the wire order would make
	// same-seed runs diverge (link serialization and cumulative-ack
	// progression both depend on arrival order).
	sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
	for _, seq := range stale {
		s.writePacket(pc, peer, Packet{Type: PktData, CID: s.cid, Seq: seq})
	}
}

// migrate swaps the session onto a new socket/peer (client side) or
// re-binds the peer address (server side, on CID match).
func (s *session) migrate(pc PacketConn, peer net.Addr) {
	s.mu.Lock()
	if pc != nil {
		s.pc = pc
	}
	if peer != nil {
		s.peer = peer
	}
	s.mu.Unlock()
}

// peerAddr reports the current peer binding.
func (s *session) peerAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peer
}

// end marks the session reset by the peer (reset) or closed by either
// end, and reports whether this call ended a live session. Parked senders
// wake with the outcome; the backlog is dropped.
func (s *session) end(reset bool) bool {
	s.mu.Lock()
	live := !s.closed && !s.reset
	if reset && live {
		s.reset = true
	} else if !reset {
		s.closed = true
	}
	s.backlog = nil
	s.mu.Unlock()
	if live && s.window != nil {
		s.window.Close()
	}
	return live
}

// SessionStats reports transfer counters.
type SessionStats struct {
	Sent, Retransmits, Delivered uint64
}

func (s *session) stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionStats{Sent: s.sent, Retransmits: s.retransmits, Delivered: s.delivered}
}
