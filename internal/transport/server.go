package transport

import (
	"cmp"
	"crypto/rand"
	"encoding/hex"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"dlte/internal/simnet"
)

// ServerConfig shapes an MST server.
type ServerConfig struct {
	// Mode selects migratory (MST) or legacy (TCP-like) semantics.
	Mode Mode
	// Handler receives each in-order client payload, which it may keep.
	// It runs inline on the network's delivery thread, right after the
	// ACK covering the payload is on the wire, so it must not park: a
	// ServerSession.Send never waits (past the window it queues).
	Handler func(ss *ServerSession, payload []byte)
}

// Server accepts MST sessions on one packet socket. It runs entirely in
// handlers: inbound packets on the socket's delivery handler, the
// retransmit pass on a continuation.
type Server struct {
	pc    PacketConn
	cfg   ServerConfig
	clk   *simnet.VirtualClock
	timer *simnet.Continuation // the retransmit pass, every rto/2

	mu       sync.Mutex
	sessions map[uint64]*ServerSession
	tokens   map[string]bool // valid resume tokens
	cookies  map[uint64]uint64
	closed   bool
	pass     []*ServerSession // reused by every retransmit pass

	resumes atomic.Uint64
	fresh   atomic.Uint64
	resets  atomic.Uint64
}

// ServerSession is the server's end of one session.
type ServerSession struct {
	*session
	boundTo string // legacy: the locked source address
}

// Send transmits a payload to the client (reliable). It never parks:
// past the window the payload queues, and the ack that frees space
// transmits it.
func (ss *ServerSession) Send(payload []byte) error { return ss.send(payload) }

// Stats reports transfer counters.
func (ss *ServerSession) Stats() SessionStats { return ss.stats() }

// NewServer starts a server on pc. It panics unless pc lives on a
// simnet network.
func NewServer(pc PacketConn, cfg ServerConfig) *Server {
	n, err := networkOf(pc)
	if err != nil {
		panic(err)
	}
	s := &Server{
		pc:       pc,
		cfg:      cfg,
		clk:      n.Clock().(*simnet.VirtualClock),
		sessions: make(map[uint64]*ServerSession),
		tokens:   make(map[string]bool),
		cookies:  make(map[uint64]uint64),
	}
	s.timer = n.NewContinuation(s.retransmit)
	pc.SetHandler(s.ingress)
	s.timer.After(rto/2, 0)
	return s
}

// ingress is the server's dispatch handler: one decoded packet per
// delivery. data is the dispatcher's buffer, valid only for this call —
// every consumer copies what it keeps (ingestData copies payloads,
// token lookups re-encode).
func (s *Server) ingress(data []byte, from net.Addr) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return
	}
	p, err := DecodePacket(data)
	if err != nil {
		return
	}
	s.handle(p, from)
}

// ServerStats reports server-level counters.
type ServerStats struct {
	// FreshHandshakes and Resumes count session establishments by
	// kind; Resets counts RESETs sent (legacy address violations and
	// unknown CIDs).
	FreshHandshakes, Resumes, Resets uint64
	// ActiveSessions is the current session count.
	ActiveSessions int
}

// Stats snapshots server counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	return ServerStats{
		FreshHandshakes: s.fresh.Load(),
		Resumes:         s.resumes.Load(),
		Resets:          s.resets.Load(),
		ActiveSessions:  n,
	}
}

func (s *Server) handle(p Packet, from net.Addr) {
	switch p.Type {
	case PktHello:
		s.handleHello(p, from)
	case PktConfirm:
		s.handleConfirm(p, from)
	case PktData:
		s.handleData(p, from)
	case PktAck:
		if ss := s.lookup(p.CID); ss != nil {
			ss.handleAck(p.Ack)
		}
	case PktClose:
		s.mu.Lock()
		ss := s.sessions[p.CID]
		delete(s.sessions, p.CID)
		s.mu.Unlock()
		if ss != nil {
			ss.end(false)
			s.writeTo(Packet{Type: PktClose, CID: p.CID}, from)
		}
	}
}

func (s *Server) lookup(cid uint64) *ServerSession {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[cid]
}

func (s *Server) handleHello(p Packet, from net.Addr) {
	s.mu.Lock()
	if _, ok := s.sessions[p.CID]; ok {
		// Duplicate HELLO: re-ACK with a fresh token.
		s.mu.Unlock()
		s.writeTo(Packet{Type: PktAccept, CID: p.CID, Token: s.issueToken()}, from)
		return
	}
	s.mu.Unlock()

	if s.cfg.Mode == Legacy {
		// TCP-like: an extra round trip before acceptance. Duplicate
		// HELLOs (handshake retransmissions) must re-send the same
		// cookie, or a slow path's in-flight CONFIRM would be
		// invalidated.
		s.mu.Lock()
		cookie, ok := s.cookies[p.CID]
		if !ok {
			cookie = randomU64()
			s.cookies[p.CID] = cookie
		}
		s.mu.Unlock()
		s.writeTo(Packet{Type: PktChallenge, CID: p.CID, Seq: cookie}, from)
		return
	}

	// Migratory: resume tokens skip straight to an active session; a
	// fresh HELLO is accepted after this single flight (1 RTT).
	resumed := false
	if len(p.Token) > 0 {
		key := hex.EncodeToString(p.Token)
		s.mu.Lock()
		if s.tokens[key] {
			delete(s.tokens, key) // single use
			resumed = true
		}
		s.mu.Unlock()
	}
	s.accept(p.CID, from, resumed)
}

func (s *Server) handleConfirm(p Packet, from net.Addr) {
	s.mu.Lock()
	if _, established := s.sessions[p.CID]; established {
		// A duplicate CONFIRM from handshake retransmissions: the
		// session is already up; re-ACK rather than reset it.
		s.mu.Unlock()
		s.writeTo(Packet{Type: PktAccept, CID: p.CID, Token: s.issueToken()}, from)
		return
	}
	cookie, ok := s.cookies[p.CID]
	if ok && cookie == p.Seq {
		delete(s.cookies, p.CID)
		s.mu.Unlock()
		s.accept(p.CID, from, false)
		return
	}
	s.mu.Unlock()
	s.resets.Add(1)
	s.writeTo(Packet{Type: PktReset, CID: p.CID}, from)
}

func (s *Server) accept(cid uint64, from net.Addr, resumed bool) {
	ss := &ServerSession{
		session: newSession(s.clk, s.pc, from, cid, nil),
		boundTo: from.String(),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if _, dup := s.sessions[cid]; dup {
		s.mu.Unlock()
		s.writeTo(Packet{Type: PktAccept, CID: cid, Token: s.issueToken()}, from)
		return
	}
	s.sessions[cid] = ss
	s.mu.Unlock()

	if resumed {
		s.resumes.Add(1)
	} else {
		s.fresh.Add(1)
	}
	s.writeTo(Packet{Type: PktAccept, CID: cid, Token: s.issueToken()}, from)
}

func (s *Server) handleData(p Packet, from net.Addr) {
	ss := s.lookup(p.CID)
	if ss == nil {
		s.resets.Add(1)
		s.writeTo(Packet{Type: PktReset, CID: p.CID}, from)
		return
	}
	if s.cfg.Mode == Legacy && from.String() != ss.boundTo {
		// The TCP failure mode: a packet from a new address does not
		// belong to this connection.
		s.resets.Add(1)
		s.writeTo(Packet{Type: PktReset, CID: p.CID}, from)
		return
	}
	if s.cfg.Mode == Migratory && from.String() != ss.peerAddr().String() {
		// Path migration: re-bind the session to the client's new
		// address.
		ss.migrate(nil, from)
	}
	// Ack first, deliver second: see session.ingestData.
	ack, deliver, freed := ss.ingestData(p)
	s.writeTo(Packet{Type: PktAck, CID: p.CID, Ack: ack}, ss.peerAddr())
	if freed {
		ss.opened()
	}
	if s.cfg.Handler != nil {
		for _, d := range deliver {
			s.cfg.Handler(ss, d)
		}
	}
}

func (s *Server) writeTo(p Packet, to net.Addr) {
	b, err := EncodePacket(p)
	if err != nil {
		return
	}
	s.pc.WriteTo(b, to)
}

func (s *Server) issueToken() []byte {
	tok := make([]byte, 16)
	rand.Read(tok)
	s.mu.Lock()
	s.tokens[hex.EncodeToString(tok)] = true
	s.mu.Unlock()
	return tok
}

// retransmit is the server's continuation: every rto/2, a retransmit
// pass over the sessions in CID order, not map order — retransmission
// wire order must not depend on Go's randomized map iteration.
func (s *Server) retransmit(uint64) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	pass := s.pass[:0]
	for _, ss := range s.sessions {
		pass = append(pass, ss)
	}
	s.pass = pass
	s.mu.Unlock()
	slices.SortFunc(pass, func(a, b *ServerSession) int { return cmp.Compare(a.cid, b.cid) })
	for i, ss := range pass {
		ss.retransmitTick()
		pass[i] = nil
	}
	s.timer.After(rto/2, 0)
}

// Close stops the server and all sessions.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	sessions := s.sessions
	s.sessions = make(map[uint64]*ServerSession)
	s.mu.Unlock()
	s.timer.Stop()
	for _, ss := range sessions {
		ss.end(false) // puts nothing on the wire, so map order is fine
	}
	s.pc.Close()
}

func randomU64() uint64 {
	var b [8]byte
	rand.Read(b[:])
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}
