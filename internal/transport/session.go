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

// PacketConn is the datagram surface MST runs over: a simnet.PacketConn,
// a ue.BearerConn, or any socket whose simnet.ClockOf is a
// *simnet.VirtualClock, receiving only through SetHandler (data valid
// only for the call). A session waits only through clock-owned
// mailboxes, which exist only on virtual clocks, so MST does not run
// over real UDP.
type PacketConn interface {
	WriteTo(b []byte, addr net.Addr) (int, error)
	SetHandler(h func(data []byte, from net.Addr))
	Close() error
}

// Session errors.
var (
	ErrClosed      = errors.New("transport: session closed")
	ErrReset       = errors.New("transport: session reset by peer")
	ErrTimeout     = errors.New("transport: timeout")
	ErrNotAccepted = errors.New("transport: handshake incomplete")
)

// rto is the retransmission timeout for unacked data.
const rto = 60 * time.Millisecond

// maxWindow bounds unacknowledged packets in flight.
const maxWindow = 64

// session is the shared reliable engine used by both ends: sequenced
// sends with cumulative acks and RTO retransmission, in-order
// delivery, and a swappable (path-migratable) socket/peer.
type session struct {
	// clk governs all session timing (RTO, handshake retries, recv
	// timeouts), and every session wait is a mailbox receive on it. It
	// is the socket's clock (virtualClock).
	clk *simnet.VirtualClock

	mu     sync.Mutex
	pc     PacketConn
	peer   net.Addr
	cid    uint64
	closed bool
	reset  bool

	// Send state.
	nextSeq  uint64
	sendBase uint64 // lowest unacked
	inflight map[uint64]*inflightPkt
	window   *simnet.Mailbox[struct{}] // one token: window space was freed

	// Receive state.
	expected uint64
	pending  map[uint64][]byte
	incoming *simnet.Mailbox[[]byte]

	// Stats.
	sent, retransmits, delivered uint64
}

type inflightPkt struct {
	payload []byte
	lastTx  time.Time
}

// virtualClock returns the virtual clock pc runs on, or an error naming
// the socket type when it runs on any other.
func virtualClock(pc PacketConn) (*simnet.VirtualClock, error) {
	if vc, ok := simnet.ClockOf(pc).(*simnet.VirtualClock); ok {
		return vc, nil
	}
	return nil, fmt.Errorf("transport: %T does not run on a simnet virtual clock", pc)
}

// isClosed reports whether done, a mailbox nobody fills, has been
// closed. It never parks, so dispatch handlers may call it.
func isClosed(done *simnet.Mailbox[struct{}]) bool {
	_, err := done.Recv(0)
	return errors.Is(err, simnet.ErrClosed)
}

func newSession(clk *simnet.VirtualClock, pc PacketConn, peer net.Addr, cid uint64) *session {
	return &session{
		clk:      clk,
		pc:       pc,
		peer:     peer,
		cid:      cid,
		inflight: make(map[uint64]*inflightPkt),
		window:   simnet.NewMailbox[struct{}](clk, 1),
		pending:  make(map[uint64][]byte),
		incoming: simnet.NewMailbox[[]byte](clk, 1024),
	}
}

// CID reports the session's connection ID.
func (s *session) CID() uint64 { return s.cid }

// send transmits one payload reliably.
func (s *session) send(payload []byte) error {
	s.mu.Lock()
	waited := false
	for !s.closed && !s.reset && len(s.inflight) >= maxWindow {
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
	seq := s.nextSeq
	s.nextSeq++
	data := make([]byte, len(payload))
	copy(data, payload)
	s.inflight[seq] = &inflightPkt{payload: data, lastTx: s.clk.Now()}
	s.sent++
	pc, peer := s.pc, s.peer
	s.mu.Unlock()

	return s.writePacket(pc, peer, Packet{Type: PktData, CID: s.cid, Seq: seq})
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

// recv delivers the next in-order payload.
func (s *session) recv(timeout time.Duration) ([]byte, error) {
	b, err := s.incoming.Recv(timeout)
	switch {
	case err == nil:
		return b, nil
	case errors.Is(err, simnet.ErrDeadline):
		return nil, ErrTimeout
	}
	s.mu.Lock()
	reset := s.reset
	s.mu.Unlock()
	if reset {
		return nil, ErrReset
	}
	return nil, ErrClosed
}

// ingestData absorbs an inbound DATA packet: it applies the
// piggybacked ack and advances the in-order receive state, but wakes
// nobody. The caller puts the returned cumulative ack on the wire
// first and only then calls finishData — so any goroutine this packet
// unblocks (the app reading a payload, a sender freed by the ack)
// enqueues its response strictly after our ack. Keeping that wire
// order fixed is what makes same-seed runs byte-identical: waking the
// app before acking lets its reply race the ack for the link's
// serialization slot.
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

// finishData completes ingestData: payloads reach the receiver and
// window-blocked senders wake, after the ack is already on the wire.
// A full or closed mailbox drops the payload, like a full socket buffer.
func (s *session) finishData(deliver [][]byte, freed bool) {
	for _, d := range deliver {
		s.incoming.Put(d)
	}
	if freed {
		s.window.Put(struct{}{})
	}
}

// handleAck processes a cumulative acknowledgment.
func (s *session) handleAck(ack uint64) {
	s.mu.Lock()
	freed := s.applyAckLocked(ack)
	s.mu.Unlock()
	if freed {
		s.window.Put(struct{}{})
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
	if ack > s.sendBase {
		s.sendBase = ack
	}
	return freed
}

// retransmitTick resends any packet older than the RTO. Returns the
// number retransmitted.
func (s *session) retransmitTick() int {
	s.mu.Lock()
	if s.closed || s.reset {
		s.mu.Unlock()
		return 0
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
	return len(stale)
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

// markReset flags the session as reset by the peer and wakes everyone.
func (s *session) markReset() {
	s.mu.Lock()
	if s.reset || s.closed {
		s.mu.Unlock()
		return
	}
	s.reset = true
	s.mu.Unlock()
	s.incoming.Close()
	s.window.Close()
}

// closeSession ends the session locally.
func (s *session) closeSession() {
	s.mu.Lock()
	if s.closed || s.reset {
		s.closed = true
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.incoming.Close()
	s.window.Close()
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
