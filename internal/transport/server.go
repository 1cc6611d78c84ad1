package transport

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dlte/internal/simnet"
)

// ServerConfig shapes an MST server.
type ServerConfig struct {
	// Mode selects migratory (MST) or legacy (TCP-like) semantics.
	Mode Mode
	// Handler runs once per accepted session, on its own goroutine.
	Handler func(*ServerSession)
}

// Server accepts MST sessions on one packet socket.
type Server struct {
	pc  PacketConn
	cfg ServerConfig
	clk *simnet.VirtualClock

	mu       sync.Mutex
	sessions map[uint64]*ServerSession
	tokens   map[string]bool // valid resume tokens
	cookies  map[uint64]uint64
	closed   bool
	done     *simnet.Mailbox[struct{}] // never filled; closed by Close

	resumes atomic.Uint64
	fresh   atomic.Uint64
	resets  atomic.Uint64
}

// ServerSession is the server's end of one session.
type ServerSession struct {
	*session
	srv     *Server
	boundTo string // legacy: the locked source address
	resumed bool
}

// Send transmits a payload to the client (reliable).
func (ss *ServerSession) Send(payload []byte) error { return ss.send(payload) }

// Recv delivers the next in-order client payload.
func (ss *ServerSession) Recv(timeout time.Duration) ([]byte, error) { return ss.recv(timeout) }

// Stats reports transfer counters.
func (ss *ServerSession) Stats() SessionStats { return ss.stats() }

// Resumed reports whether this session was 0-RTT resumed.
func (ss *ServerSession) Resumed() bool { return ss.resumed }

// NewServer starts a server on pc. It panics unless pc runs on a
// simnet.VirtualClock.
func NewServer(pc PacketConn, cfg ServerConfig) *Server {
	clk, err := virtualClock(pc)
	if err != nil {
		panic(err)
	}
	s := &Server{
		pc:       pc,
		cfg:      cfg,
		clk:      clk,
		sessions: make(map[uint64]*ServerSession),
		tokens:   make(map[string]bool),
		cookies:  make(map[uint64]uint64),
		done:     simnet.NewMailbox[struct{}](clk, 1),
	}
	pc.SetHandler(s.ingress)
	s.clk.Go(s.retransmitLoop)
	return s
}

// ingress is the server's dispatch handler: one decoded packet per
// delivery. data is the dispatcher's buffer, valid only for this call —
// every consumer copies what it keeps (ingestData copies payloads,
// token lookups re-encode).
func (s *Server) ingress(data []byte, from net.Addr) {
	if isClosed(s.done) {
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
			ss.closeSession()
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
		session: newSession(s.clk, s.pc, from, cid),
		srv:     s,
		boundTo: from.String(),
		resumed: resumed,
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
	if s.cfg.Handler != nil {
		s.clk.Go(func() { s.cfg.Handler(ss) })
	}
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
	ss.finishData(deliver, freed)
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

// retransmitLoop runs a retransmit pass over every session every rto/2
// until Close.
func (s *Server) retransmitLoop() {
	for {
		if _, err := s.done.Recv(rto / 2); !errors.Is(err, simnet.ErrDeadline) {
			return
		}
		s.mu.Lock()
		sessions := make([]*ServerSession, 0, len(s.sessions))
		for _, ss := range s.sessions {
			sessions = append(sessions, ss)
		}
		s.mu.Unlock()
		// CID order, not map order: retransmission wire order must not
		// depend on Go's randomized map iteration.
		sort.Slice(sessions, func(i, j int) bool { return sessions[i].cid < sessions[j].cid })
		for _, ss := range sessions {
			ss.retransmitTick()
		}
	}
}

// Close stops the server and all sessions.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	sessions := make([]*ServerSession, 0, len(s.sessions))
	for _, ss := range s.sessions {
		sessions = append(sessions, ss)
	}
	s.sessions = make(map[uint64]*ServerSession)
	s.mu.Unlock()
	s.done.Close()
	for _, ss := range sessions {
		ss.closeSession()
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
