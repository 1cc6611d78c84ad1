package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dlte/internal/simnet"
)

// Client is the client end of an MST session. Its protocol machine runs
// in handlers: inbound packets on the socket's delivery handler, the
// retransmit pass and the HELLO retries on one continuation. Only a
// goroutine calling Dial, Send or Recv ever waits.
type Client struct {
	*session
	timer    *simnet.Continuation      // retransmit passes and HELLO retries
	accepted *simnet.Mailbox[struct{}] // a token per ACCEPT (depth 1)
	incoming *simnet.Mailbox[[]byte]   // in-order server payloads for Recv

	mu       sync.Mutex
	done     bool   // Close has run
	token    []byte // resume token from the last ACCEPT; nil before the first
	hello    Packet
	helloEnd time.Time // HELLO retries stop after this instant
	curPC    PacketConn
	serverAt net.Addr
}

// Continuation event kinds on a client's timer.
const (
	timerRetransmit uint64 = iota // every rto/2 from Dial
	timerHello                    // every rto until ACCEPT or the handshake deadline
)

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

// Dial opens a session to server over pc, which must live on a simnet
// network.
func Dial(pc PacketConn, server net.Addr, cfg DialConfig) (*Client, error) {
	n, err := networkOf(pc)
	if err != nil {
		return nil, err
	}
	clk := n.Clock().(*simnet.VirtualClock)
	if cfg.Timeout == 0 {
		cfg.Timeout = 3 * time.Second
	}
	cid := randomU64()
	c := &Client{
		session:  newSession(clk, pc, server, cid, simnet.NewMailbox[struct{}](clk, 1)),
		accepted: simnet.NewMailbox[struct{}](clk, 1),
		incoming: simnet.NewMailbox[[]byte](clk, 1024),
		hello:    Packet{Type: PktHello, CID: cid, Token: cfg.ResumeToken},
		helloEnd: clk.Now().Add(cfg.Timeout),
		curPC:    pc,
		serverAt: server,
	}
	c.timer = n.NewContinuation(c.fire)
	// Migrate moves the handler to each new socket.
	pc.SetHandler(c.ingress)
	c.timer.After(rto/2, timerRetransmit)

	if err := c.writeCtl(c.hello); err != nil {
		c.Close()
		return nil, err
	}
	c.timer.After(rto, timerHello)

	if cfg.Mode == Migratory && len(cfg.ResumeToken) > 0 {
		// 0-RTT: the session is usable immediately; the ACCEPT (and
		// fresh token) arrives asynchronously.
		return c, nil
	}
	if _, err := c.accepted.Recv(cfg.Timeout); err != nil {
		c.Close()
		if errors.Is(err, simnet.ErrDeadline) {
			return nil, fmt.Errorf("%w: handshake", ErrTimeout)
		}
		return nil, ErrClosed // Close closed accepted
	}
	return c, nil
}

// fire is the client's continuation: a retransmit pass every rto/2,
// and a HELLO retry every rto until ACCEPT or the handshake deadline.
func (c *Client) fire(kind uint64) {
	if kind == timerRetransmit {
		c.retransmitTick()
		c.timer.After(rto/2, timerRetransmit)
		return
	}
	c.mu.Lock()
	stop := c.done || c.token != nil || c.clk.Now().After(c.helloEnd)
	c.mu.Unlock()
	if !stop {
		c.writeCtl(c.hello)
		c.timer.After(rto, timerHello)
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

// Send transmits a payload reliably, waiting while the window is full.
func (c *Client) Send(payload []byte) error { return c.send(payload) }

// Recv delivers the next in-order server payload.
func (c *Client) Recv(timeout time.Duration) ([]byte, error) {
	b, err := c.incoming.Recv(timeout)
	switch {
	case err == nil:
		return b, nil
	case errors.Is(err, simnet.ErrDeadline):
		return nil, ErrTimeout
	}
	c.session.mu.Lock()
	reset := c.reset
	c.session.mu.Unlock()
	if reset {
		return nil, ErrReset
	}
	return nil, ErrClosed
}

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
	if c.done {
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
	c.mu.Lock()
	done := c.done
	c.mu.Unlock()
	if done {
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
		// Ack first, deliver second: see ingestData. A full mailbox
		// drops the payload, like a full socket buffer.
		ack, deliver, freed := c.ingestData(p)
		c.writeCtl(Packet{Type: PktAck, CID: c.cid, Ack: ack})
		for _, d := range deliver {
			c.incoming.Put(d)
		}
		if freed {
			c.opened()
		}
	case PktAck:
		c.handleAck(p.Ack)
	case PktReset:
		c.finish(true)
	case PktClose:
		c.finish(false)
	}
}

// finish ends the session (session.end) and releases a parked Recv.
func (c *Client) finish(reset bool) {
	if c.end(reset) {
		c.incoming.Close()
	}
}

// Close ends the session and releases the socket.
func (c *Client) Close() {
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		return
	}
	c.done = true
	c.mu.Unlock()
	c.writeCtl(Packet{Type: PktClose, CID: c.cid})
	c.timer.Stop()
	c.accepted.Close()
	c.finish(false)
	c.mu.Lock()
	pc := c.curPC
	c.mu.Unlock()
	if pc != nil {
		pc.Close()
	}
}
