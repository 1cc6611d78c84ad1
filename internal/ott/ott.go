// Package ott implements the over-the-top services the dLTE paper
// delegates user-level capabilities to (§4.2): since a dLTE AP
// provides nothing but an Internet connection, identity, messaging,
// voice, and continuity all live at the endpoints and in services like
// these. The package provides an echo/RTT server (the measurement
// workhorse), a token-based identity provider (the OAuth/FIDO2
// stand-in), and a rendezvous relay (the WhatsApp-style message/voice
// stand-in used by the Papua deployment experiment, E8).
//
// The two network servers are run-to-completion dispatch handlers
// (simnet.PacketConn.SetHandler, DESIGN.md §14): each datagram is
// served inline at its delivery instant on the network's delivery
// thread. A server owns no goroutine, polls no deadline and schedules
// nothing on the clock, so an idle world holding one stays idle, and a
// steady-state echo allocates nothing. Close just closes the socket.
package ott

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dlte/internal/simnet"
)

// EchoServer reflects every datagram back to its sender. Experiments
// use it to measure end-to-end RTT through whichever data path the
// architecture under test provides.
type EchoServer struct {
	pc    *simnet.PacketConn
	count atomic.Int64
}

// NewEchoServer starts an echo server on host:port.
func NewEchoServer(host *simnet.Host, port int) (*EchoServer, error) {
	pc, err := host.ListenPacket(port)
	if err != nil {
		return nil, fmt.Errorf("ott: echo: %w", err)
	}
	s := &EchoServer{pc: pc}
	pc.SetHandler(s.echo)
	return s, nil
}

// echo is the socket's dispatch handler: the reply leaves at the very
// instant the request is delivered. data is the dispatcher's buffer;
// WriteTo copies it before returning.
func (s *EchoServer) echo(data []byte, from net.Addr) {
	s.count.Add(1)
	s.pc.WriteTo(data, from)
}

// Count reports total datagrams echoed.
func (s *EchoServer) Count() int64 { return s.count.Load() }

// Close stops the server.
func (s *EchoServer) Close() { s.pc.Close() }

// --- Identity provider --------------------------------------------------

// IdentityProvider issues and verifies bearer tokens: the OTT identity
// layer (OAuth / FIDO2 stand-in) that replaces network-level identity
// in dLTE. Tokens are HMAC-signed and survive IP address changes —
// which is precisely why endpoint mobility works without the network's
// help.
type IdentityProvider struct {
	secret []byte
	mu     sync.Mutex
	users  map[string]string // user → password
}

// NewIdentityProvider creates a provider with the given signing secret.
func NewIdentityProvider(secret []byte) *IdentityProvider {
	return &IdentityProvider{secret: secret, users: make(map[string]string)}
}

// Register adds a user credential.
func (p *IdentityProvider) Register(user, password string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.users[user] = password
}

// Identity errors.
var (
	ErrBadCredentials = errors.New("ott: bad credentials")
	ErrBadToken       = errors.New("ott: invalid token")
	ErrTokenExpired   = errors.New("ott: token expired")
)

// Login verifies credentials and issues a token valid for ttl from
// now.
func (p *IdentityProvider) Login(user, password string, now time.Time, ttl time.Duration) (string, error) {
	p.mu.Lock()
	stored, ok := p.users[user]
	p.mu.Unlock()
	if !ok || stored != password {
		return "", ErrBadCredentials
	}
	exp := now.Add(ttl).Unix()
	payload := fmt.Sprintf("%s|%d", user, exp)
	return payload + "|" + p.sign(payload), nil
}

// Verify validates a token and returns the user it names. Tokens are
// independent of the client's current IP address.
func (p *IdentityProvider) Verify(token string, now time.Time) (string, error) {
	parts := strings.Split(token, "|")
	if len(parts) != 3 {
		return "", ErrBadToken
	}
	payload := parts[0] + "|" + parts[1]
	if !hmac.Equal([]byte(p.sign(payload)), []byte(parts[2])) {
		return "", ErrBadToken
	}
	var exp int64
	if _, err := fmt.Sscanf(parts[1], "%d", &exp); err != nil {
		return "", ErrBadToken
	}
	if now.Unix() > exp {
		return "", ErrTokenExpired
	}
	return parts[0], nil
}

func (p *IdentityProvider) sign(payload string) string {
	mac := hmac.New(sha256.New, p.secret)
	mac.Write([]byte(payload))
	return hex.EncodeToString(mac.Sum(nil)[:12])
}

// --- Rendezvous relay ----------------------------------------------------

// Relay is a datagram rendezvous service: clients register a mailbox
// name from whatever address they currently hold, and the relay
// forwards messages between mailboxes to each owner's latest address.
// This is the messaging/voice OTT model (§5: "voice and messaging
// provided via OTT services") — and its tolerance of address changes
// is what the mobility experiment (E4) exercises.
//
// Wire format (datagrams):
//
//	'R' nameLen name            — register/refresh mailbox at sender addr
//	'S' nameLen name payload    — send payload to mailbox name
//	'D' nameLen name payload    — delivery to a registered client
type Relay struct {
	pc *simnet.PacketConn

	mu        sync.Mutex
	boxes     map[string]net.Addr
	delivered map[string]int // mailbox → count
}

// NewRelay starts a relay on host:port.
func NewRelay(host *simnet.Host, port int) (*Relay, error) {
	pc, err := host.ListenPacket(port)
	if err != nil {
		return nil, fmt.Errorf("ott: relay: %w", err)
	}
	r := &Relay{pc: pc, boxes: make(map[string]net.Addr), delivered: make(map[string]int)}
	pc.SetHandler(r.handle)
	return r, nil
}

// handle is the socket's dispatch handler. frame is the dispatcher's
// buffer, valid only for the call: a forwarded message is rebuilt as a
// 'D' frame in a pooled payload whose ownership passes to the network.
func (r *Relay) handle(frame []byte, from net.Addr) {
	if len(frame) < 2 || len(frame) < 2+int(frame[1]) {
		return
	}
	name := string(frame[2 : 2+int(frame[1])])
	switch frame[0] {
	case 'R':
		r.mu.Lock()
		r.boxes[name] = from
		r.mu.Unlock()
	case 'S':
		r.mu.Lock()
		dst, ok := r.boxes[name]
		if ok {
			r.delivered[name]++
		}
		r.mu.Unlock()
		if !ok {
			return
		}
		out := simnet.GetPayload(len(frame))
		copy(out, frame)
		out[0] = 'D'
		r.pc.WriteOwnedTo(out, dst)
	}
}

// Delivered reports messages delivered to the named mailbox.
func (r *Relay) Delivered(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.delivered[name]
}

// Registered reports the mailbox's current address, if any.
func (r *Relay) Registered(name string) (net.Addr, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.boxes[name]
	return a, ok
}

// Close stops the relay.
func (r *Relay) Close() { r.pc.Close() }

// RegisterFrame builds a relay registration datagram.
func RegisterFrame(mailbox string) []byte {
	out := make([]byte, 0, 2+len(mailbox))
	out = append(out, 'R', byte(len(mailbox)))
	return append(out, mailbox...)
}

// SendFrame builds a relay send datagram.
func SendFrame(mailbox string, payload []byte) []byte {
	out := make([]byte, 0, 2+len(mailbox)+len(payload))
	out = append(out, 'S', byte(len(mailbox)))
	out = append(out, mailbox...)
	return append(out, payload...)
}

// ParseDelivery extracts mailbox and payload from a 'D' frame.
func ParseDelivery(b []byte) (mailbox string, payload []byte, err error) {
	if len(b) < 2 || b[0] != 'D' {
		return "", nil, errors.New("ott: not a delivery frame")
	}
	nameLen := int(b[1])
	if len(b) < 2+nameLen {
		return "", nil, errors.New("ott: truncated delivery frame")
	}
	return string(b[2 : 2+nameLen]), b[2+nameLen:], nil
}

// SeqPayload builds a sequenced probe payload, and ParseSeq reads it
// back; experiments use these to count losses during mobility events.
func SeqPayload(seq uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], seq)
	return b[:]
}

// ParseSeq decodes a sequenced probe payload.
func ParseSeq(b []byte) (uint64, error) {
	if len(b) < 8 {
		return 0, errors.New("ott: short seq payload")
	}
	return binary.BigEndian.Uint64(b), nil
}
