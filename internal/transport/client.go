package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dlte/internal/simnet"
)

// Client is the client end of an MST session.
type Client struct {
	*session
	mode Mode

	mu       sync.Mutex
	token    []byte                    // resume token from the last ACCEPT
	accepted *simnet.Mailbox[struct{}] // a token per ACCEPT (depth 1)
	done     *simnet.Mailbox[struct{}] // never filled; closed by Close
	doneOnce sync.Once
	curPC    PacketConn
	serverAt net.Addr
}

// DialConfig shapes a client dial.
type DialConfig struct {
	// Mode must match the server's.
	Mode Mode
	// ResumeToken, when set in Migratory mode, enables 0-RTT resume:
	// Dial returns immediately and data flows in the first flight.
	ResumeToken []byte
	// Timeout bounds the handshake.
	Timeout time.Duration
}

// Dial opens a session to server over pc, which must run on a
// simnet.VirtualClock.
func Dial(pc PacketConn, server net.Addr, cfg DialConfig) (*Client, error) {
	clk, err := virtualClock(pc)
	if err != nil {
		return nil, err
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 3 * time.Second
	}
	cid := randomU64()
	c := &Client{
		session:  newSession(clk, pc, server, cid),
		mode:     cfg.Mode,
		accepted: simnet.NewMailbox[struct{}](clk, 1),
		done:     simnet.NewMailbox[struct{}](clk, 1),
		curPC:    pc,
		serverAt: server,
	}
	// Migrate moves the handler to each new socket.
	pc.SetHandler(c.ingress)
	c.clk.Go(c.retransmitLoop)

	hello := Packet{Type: PktHello, CID: cid, Token: cfg.ResumeToken}
	if err := c.writeCtl(hello); err != nil {
		c.Close()
		return nil, err
	}

	if cfg.Mode == Migratory && len(cfg.ResumeToken) > 0 {
		// 0-RTT: the session is usable immediately; the ACCEPT (and
		// fresh token) arrives asynchronously.
		c.clk.Go(func() { c.awaitAcceptRetry(hello, cfg.Timeout) })
		return c, nil
	}
	if err := c.awaitAcceptRetry(hello, cfg.Timeout); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// awaitAcceptRetry retransmits the HELLO until ACCEPT or timeout.
func (c *Client) awaitAcceptRetry(hello Packet, timeout time.Duration) error {
	deadline := c.clk.Now().Add(timeout)
	for {
		_, err := c.accepted.Recv(rto)
		switch {
		case err == nil:
			return nil
		case !errors.Is(err, simnet.ErrDeadline):
			return ErrClosed // Close closed accepted
		case c.clk.Now().After(deadline):
			return fmt.Errorf("%w: handshake", ErrTimeout)
		}
		c.writeCtl(hello)
	}
}

// Token returns the latest resume token (nil before first ACCEPT).
func (c *Client) Token() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.token == nil {
		return nil
	}
	out := make([]byte, len(c.token))
	copy(out, c.token)
	return out
}

// Send transmits a payload reliably.
func (c *Client) Send(payload []byte) error { return c.send(payload) }

// Recv delivers the next in-order server payload.
func (c *Client) Recv(timeout time.Duration) ([]byte, error) { return c.recv(timeout) }

// Stats reports transfer counters.
func (c *Client) Stats() SessionStats { return c.stats() }

// Migrate moves the session onto a new packet socket (a new IP
// address after an AP change). In Migratory mode the session simply
// continues: in-flight data retransmits via the new path and the
// server re-binds on the first arriving packet. In Legacy mode the
// server will RESET the connection — the TCP behaviour.
func (c *Client) Migrate(newPC PacketConn) {
	// The control-plane socket (c.curPC, used by writeCtl) and the
	// data-plane socket (session.pc, used by send/retransmit) must
	// re-bind atomically: a concurrent Send that observed the old
	// session socket while writeCtl already used the new one would
	// split the session across paths mid-handover. Hold c.mu across
	// both swaps — the session never calls back into Client, so the
	// c.mu → session.mu order cannot deadlock.
	c.mu.Lock()
	if isClosed(c.done) {
		// Don't take over a socket nobody will ever close.
		c.mu.Unlock()
		newPC.Close()
		return
	}
	old := c.curPC
	c.curPC = newPC
	server := c.serverAt
	c.session.migrate(newPC, server)
	c.mu.Unlock()

	// A simnet socket replays datagrams that landed before this install
	// to the handler in order.
	newPC.SetHandler(c.ingress)
	if old != nil {
		// Drops the old socket's in-flight deliveries: a stale path
		// feeds the session nothing.
		old.Close()
	}
	// Nudge the new path immediately so the server re-binds without
	// waiting for the next data or RTO.
	c.retransmitTick()
}

func (c *Client) writeCtl(p Packet) error {
	c.mu.Lock()
	pc, server := c.curPC, c.serverAt
	c.mu.Unlock()
	b, err := EncodePacket(p)
	if err != nil {
		return err
	}
	_, err = pc.WriteTo(b, server)
	return err
}

// ingress is the client's dispatch handler, installed per socket (Dial
// and Migrate). data is the dispatcher's buffer, valid only for this
// call; the packet's consumers copy what they keep.
func (c *Client) ingress(data []byte, _ net.Addr) {
	if isClosed(c.done) {
		return
	}
	p, err := DecodePacket(data)
	if err != nil || p.CID != c.cid {
		return
	}
	c.handlePkt(p)
}

// handlePkt runs the client protocol machine on one inbound packet.
func (c *Client) handlePkt(p Packet) {
	switch p.Type {
	case PktChallenge:
		c.writeCtl(Packet{Type: PktConfirm, CID: c.cid, Seq: p.Seq})
	case PktAccept:
		c.mu.Lock()
		c.token = append([]byte{}, p.Token...)
		c.mu.Unlock()
		c.accepted.Put(struct{}{}) // a duplicate ACCEPT finds it full
	case PktData:
		// Ack first, deliver second: see ingestData.
		ack, deliver, freed := c.ingestData(p)
		c.writeCtl(Packet{Type: PktAck, CID: c.cid, Ack: ack})
		c.finishData(deliver, freed)
	case PktAck:
		c.handleAck(p.Ack)
	case PktReset:
		c.markReset()
	case PktClose:
		c.closeSession()
	}
}

// retransmitLoop runs a retransmit pass every rto/2 until Close.
func (c *Client) retransmitLoop() {
	for {
		if _, err := c.done.Recv(rto / 2); !errors.Is(err, simnet.ErrDeadline) {
			return
		}
		c.retransmitTick()
	}
}

// Close ends the session and releases the socket.
func (c *Client) Close() {
	c.doneOnce.Do(func() {
		c.writeCtl(Packet{Type: PktClose, CID: c.cid})
		c.done.Close()
		c.accepted.Close()
		c.closeSession()
		c.mu.Lock()
		pc := c.curPC
		c.mu.Unlock()
		if pc != nil {
			pc.Close()
		}
	})
}
