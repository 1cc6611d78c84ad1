package ue

import (
	"net"
	"sync"
	"time"

	"dlte/internal/simnet"
	"dlte/internal/wire"
)

// BearerConn adapts an attached Device's default bearer to the
// net.PacketConn-style surface the mobility transport (internal/
// transport) runs over. Datagrams written here ride the air interface
// and the architecture's data path (GTP tunnel or direct breakout) to
// their Internet destination; downlink packets reach a handler
// (SetHandler) or wait for ReadFrom.
//
// A single BearerConn stays valid across re-attaches of the underlying
// Device — which is exactly how experiment E4 models an application
// whose socket survives while the network underneath changes.
type BearerConn struct {
	dev *Device

	mu       sync.Mutex
	deadline time.Time
	closed   bool
	// lastAddr/lastRemote memoize the destination's rendered form so a
	// steady stream to one peer doesn't re-Sprint it per packet.
	lastAddr   net.Addr
	lastRemote string
}

// Bearer returns a packet surface over the device's default bearer.
func (d *Device) Bearer() *BearerConn { return &BearerConn{dev: d} }

// Clock returns the clock governing the device's network.
func (b *BearerConn) Clock() simnet.Clock { return b.dev.host.Clock() }

// Network returns the device's network, on whose dispatcher a
// transport session over the bearer schedules its timers.
func (b *BearerConn) Network() *simnet.Network { return b.dev.host.Network() }

// WriteTo sends payload to addr via the bearer.
func (b *BearerConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return 0, ErrNotAttached
	}
	if addr != b.lastAddr {
		b.lastAddr, b.lastRemote = addr, addr.String()
	}
	remote := b.lastRemote
	b.mu.Unlock()
	if err := b.dev.Send(remote, p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// SetHandler makes this bearer the device's downlink consumer: every
// downlink user packet runs h inline on the network's dispatcher, at
// its delivery instant, across re-attaches. data is valid only for the
// call, and the simnet.PacketConn.SetHandler contract applies to h.
// Packets queued before the call stay queued for ReadFrom.
func (b *BearerConn) SetHandler(h func(data []byte, from net.Addr)) {
	d := b.dev
	d.mu.Lock()
	d.down, d.onDown = b, h
	d.mu.Unlock()
}

// ReadFrom delivers the next downlink packet. It honors the read
// deadline; with none set it waits up to a long default.
func (b *BearerConn) ReadFrom(p []byte) (int, net.Addr, error) {
	b.mu.Lock()
	dl := b.deadline
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return 0, nil, ErrNotAttached
	}
	timeout := time.Hour
	if !dl.IsZero() {
		timeout = b.dev.host.Clock().Until(dl)
		if timeout <= 0 {
			return 0, nil, ErrTimeout
		}
	}
	pkt, err := b.dev.recvPacket(timeout)
	if err != nil {
		return 0, nil, err
	}
	n := copy(p, pkt.data)
	wire.PutFrame(pkt.data)
	return n, pkt.addr, nil
}

// SetReadDeadline bounds future ReadFrom calls.
func (b *BearerConn) SetReadDeadline(t time.Time) error {
	b.mu.Lock()
	b.deadline = t
	b.mu.Unlock()
	return nil
}

// Close marks the bearer surface closed (the Device itself is managed
// separately — a migrating client closes sockets, not its radio). If
// this bearer's handler consumes the downlink, packets queue for
// ReadFrom again.
func (b *BearerConn) Close() error {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	d := b.dev
	d.mu.Lock()
	if d.down == b {
		d.down, d.onDown = nil, nil
	}
	d.mu.Unlock()
	return nil
}
