// Package gtp implements the GPRS Tunneling Protocol user plane
// (GTP-U, TS 29.281 subset) that carries subscriber IP packets between
// the eNodeB and the gateway. In a telecom EPC every user packet rides
// one of these tunnels to a distant P-GW (paper Fig. 1, left); in dLTE
// the tunnel terminates a few centimeters away in the AP's local stub
// and the packet exits directly to the Internet (Fig. 1, right). The
// experiments measure exactly that difference, so the tunnel layer is
// real: encode/decode, TEID demux, and per-tunnel forwarding.
//
// The send and demux paths are the user-plane fast path: tunnels
// mutate at attach/handover rate while packets arrive at line rate, so
// the TEID table is copy-on-write behind an atomic pointer (readers
// never lock) and per-packet scratch comes from the shared simnet
// payload pool (buffers released when their packet leaves the stack,
// never garbage). See DESIGN.md §7.
//
// The endpoint receives only through its socket's delivery handler:
// the demux runs inline on the network's dispatcher for each packet,
// and the endpoint owns no goroutine.
package gtp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"dlte/internal/metrics"
	"dlte/internal/simnet"
)

// Port is the registered GTP-U UDP port.
const Port = 2152

// Errors returned by the GTP layer.
var (
	ErrTruncated   = errors.New("gtp: truncated packet")
	ErrBadVersion  = errors.New("gtp: unsupported version")
	ErrUnknownTEID = errors.New("gtp: unknown TEID")
	ErrClosed      = errors.New("gtp: endpoint closed")
)

// messageTypeGPDU is the G-PDU (encapsulated user data) message type.
const messageTypeGPDU = 0xFF

// headerLen is the mandatory GTP-U header length.
const headerLen = 8

// Header is the mandatory part of a GTP-U header.
type Header struct {
	// TEID is the receiver-allocated tunnel endpoint identifier.
	TEID uint32
	// MessageType distinguishes G-PDUs from path management.
	MessageType uint8
}

// putHeader writes the mandatory header into b[:headerLen].
func putHeader(b []byte, teid uint32, payloadLen int) {
	b[0] = 0x30 // version 1, protocol type GTP
	b[1] = messageTypeGPDU
	binary.BigEndian.PutUint16(b[2:4], uint16(payloadLen))
	binary.BigEndian.PutUint32(b[4:8], teid)
}

// Encode prepends a GTP-U header to payload in a freshly allocated
// slice. The fast path uses GetBuffer/SendBuffer instead; Encode
// remains for tests and one-shot callers.
func Encode(teid uint32, payload []byte) []byte {
	out := make([]byte, headerLen+len(payload))
	putHeader(out, teid, len(payload))
	copy(out[headerLen:], payload)
	return out
}

// Decode parses a GTP-U packet, returning the header and the payload
// (a subslice of b).
func Decode(b []byte) (Header, []byte, error) {
	if len(b) < headerLen {
		return Header{}, nil, ErrTruncated
	}
	if b[0]>>5 != 1 {
		return Header{}, nil, fmt.Errorf("%w: %d", ErrBadVersion, b[0]>>5)
	}
	if b[0] != 0x30 {
		// E/S/PN flag bits extend the header by 4 bytes; this stack
		// neither sends nor parses the optional fields, and silently
		// treating them as payload would corrupt the tunnel. PT=0
		// (GTP') is likewise unsupported.
		return Header{}, nil, fmt.Errorf("%w: flags %#02x", ErrBadVersion, b[0])
	}
	h := Header{
		MessageType: b[1],
		TEID:        binary.BigEndian.Uint32(b[4:8]),
	}
	plen := int(binary.BigEndian.Uint16(b[2:4]))
	if headerLen+plen > len(b) {
		return Header{}, nil, ErrTruncated
	}
	return h, b[headerLen : headerLen+plen], nil
}

// PacketConn is the datagram surface the endpoint runs over
// (simnet.PacketConn), which receives only through SetHandler.
type PacketConn interface {
	WriteTo(b []byte, addr net.Addr) (int, error)
	SetHandler(h func(data []byte, from net.Addr))
	Close() error
}

// ownedWriter is the zero-copy send surface simnet.PacketConn offers:
// the buffer's ownership transfers to the network on every path.
type ownedWriter interface {
	WriteOwnedTo(b []byte, addr net.Addr) (int, error)
}

// Handler consumes a decapsulated user packet arriving on a tunnel.
//
// The payload is a view into a pooled receive buffer: it is valid only
// for the duration of the call. A handler that needs the bytes past
// its return must copy them.
type Handler func(payload []byte, from net.Addr)

// Tunnel is one direction pair of a GTP-U bearer.
type Tunnel struct {
	// LocalTEID demultiplexes inbound packets at this endpoint.
	LocalTEID uint32
	// RemoteTEID is stamped on outbound packets.
	RemoteTEID uint32
	// Peer is the remote GTP-U endpoint address.
	Peer net.Addr
}

// tunnelState is one table entry. Entries are immutable once published
// — Bind replaces the entry rather than mutating it — so readers can
// use them without synchronization.
type tunnelState struct {
	t       Tunnel
	handler Handler
}

// tunnelPageSize is the number of TEID slots per table page. TEIDs are
// allocated sequentially, so a page fills densely before the next one
// is created.
const tunnelPageSize = 256

// tunnelPage is one fixed run of TEID slots; a nil slot is a free TEID.
type tunnelPage [tunnelPageSize]atomic.Pointer[tunnelState]

// tunnelTable is the paged TEID table: a directory of fixed pages
// indexed by TEID. A mutation (attach, bind, release — control-plane
// rate) is one atomic slot store under the endpoint mutex; only growing
// past the last page copies the directory and republishes it. The
// per-packet send and demux paths Load the directory and the slot and
// take no lock.
type tunnelTable struct {
	pages []*tunnelPage
}

// get returns the live entry for teid, or nil.
func (t *tunnelTable) get(teid uint32) *tunnelState {
	pg := teid / tunnelPageSize
	if pg >= uint32(len(t.pages)) {
		return nil
	}
	return t.pages[pg][teid%tunnelPageSize].Load()
}

// DropCounters exposes the endpoint's packet-drop observability: the
// demux paths that previously dropped silently now count. Counters are
// cheap (drops are off the steady-state path) and safe for concurrent
// use.
type DropCounters struct {
	// Malformed counts inbound packets that fail Decode or carry a
	// non-G-PDU message type.
	Malformed *metrics.Counter
	// UnknownTEID counts well-formed G-PDUs addressed to no live
	// tunnel (or to a tunnel with no inbound handler).
	UnknownTEID *metrics.Counter
}

// Endpoint is one GTP-U node: it owns a packet socket, demultiplexes
// inbound G-PDUs by TEID, and sends outbound G-PDUs per tunnel.
type Endpoint struct {
	pc PacketConn
	ow ownedWriter // non-nil when pc supports zero-copy sends

	table  atomic.Pointer[tunnelTable]
	closed atomic.Bool
	drops  DropCounters

	mu       sync.Mutex // serializes table mutations; never on the packet path
	nextTEID uint32
	live     atomic.Int64 // tunnels in the table
}

// NewEndpoint wraps pc and installs the demux as its delivery handler,
// which it may be: demux never blocks on the clock and only views the
// packet for the duration of the call.
func NewEndpoint(pc PacketConn) *Endpoint {
	e := &Endpoint{
		pc:       pc,
		nextTEID: 1,
		drops: DropCounters{
			Malformed:   &metrics.Counter{},
			UnknownTEID: &metrics.Counter{},
		},
	}
	e.ow, _ = pc.(ownedWriter)
	e.table.Store(&tunnelTable{})
	pc.SetHandler(e.demux)
	return e
}

// Drops exposes the endpoint's drop counters.
func (e *Endpoint) Drops() DropCounters { return e.drops }

// slot returns teid's table slot, growing the page directory to cover
// it. Callers hold e.mu.
func (e *Endpoint) slot(teid uint32) *atomic.Pointer[tunnelState] {
	t := e.table.Load()
	pg := int(teid / tunnelPageSize)
	if pg >= len(t.pages) {
		pages := make([]*tunnelPage, pg+1)
		copy(pages, t.pages)
		for i := len(t.pages); i <= pg; i++ {
			pages[i] = new(tunnelPage)
		}
		t = &tunnelTable{pages: pages}
		e.table.Store(t)
	}
	return &t.pages[pg][teid%tunnelPageSize]
}

// AllocateTEID reserves a fresh local TEID with the given inbound
// handler; the remote side is bound later with Bind (mirroring how
// S1AP exchanges TEIDs in two messages).
func (e *Endpoint) AllocateTEID(h Handler) uint32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	teid := e.nextTEID
	e.nextTEID++
	e.slot(teid).Store(&tunnelState{t: Tunnel{LocalTEID: teid}, handler: h})
	e.live.Add(1)
	return teid
}

// Bind completes a tunnel: packets sent on localTEID go to peer with
// remoteTEID.
func (e *Endpoint) Bind(localTEID, remoteTEID uint32, peer net.Addr) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.table.Load().get(localTEID)
	if old == nil {
		return fmt.Errorf("%w: %d", ErrUnknownTEID, localTEID)
	}
	e.slot(localTEID).Store(&tunnelState{
		t:       Tunnel{LocalTEID: localTEID, RemoteTEID: remoteTEID, Peer: peer},
		handler: old.handler,
	})
	return nil
}

// Release tears down a tunnel.
func (e *Endpoint) Release(localTEID uint32) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.table.Load().get(localTEID) == nil {
		return
	}
	e.slot(localTEID).Store(nil)
	e.live.Add(-1)
}

// NumTunnels reports the number of live tunnels.
func (e *Endpoint) NumTunnels() int { return int(e.live.Load()) }

// GetBuffer returns a pooled buffer with GTP-U headroom reserved:
// len(buf) == headroom, append the payload behind it, then hand the
// buffer to SendBuffer, which fills the header in place. Release an
// unsent buffer with PutBuffer.
func GetBuffer() []byte { return simnet.GetPayload(headerLen) }

// PutBuffer releases a buffer from GetBuffer that will not be sent.
func PutBuffer(b []byte) { simnet.PutPayload(b) }

// Send encapsulates payload on the tunnel identified by localTEID.
// payload is copied; the caller's buffer is free on return.
func (e *Endpoint) Send(localTEID uint32, payload []byte) error {
	buf := simnet.GetPayload(headerLen + len(payload))
	copy(buf[headerLen:], payload)
	return e.SendBuffer(localTEID, buf)
}

// SendBuffer encapsulates and sends a buffer prepared via GetBuffer
// (headerLen bytes of headroom followed by the payload). Ownership of
// buf transfers to the endpoint on every path — sent, dropped, or
// errored — so the caller must not touch it after the call. This is
// the zero-copy fast path: header written into the headroom in place,
// buffer handed to the socket without an intermediate copy.
func (e *Endpoint) SendBuffer(localTEID uint32, buf []byte) error {
	if e.closed.Load() {
		simnet.PutPayload(buf)
		return ErrClosed
	}
	ts := e.table.Load().get(localTEID)
	if ts == nil || ts.t.Peer == nil {
		simnet.PutPayload(buf)
		return fmt.Errorf("%w: %d", ErrUnknownTEID, localTEID)
	}
	putHeader(buf, ts.t.RemoteTEID, len(buf)-headerLen)
	if e.ow != nil {
		_, err := e.ow.WriteOwnedTo(buf, ts.t.Peer)
		return err
	}
	_, err := e.pc.WriteTo(buf, ts.t.Peer)
	simnet.PutPayload(buf)
	return err
}

// demux routes one received G-PDU to its tunnel handler. data is the
// full packet; the handler sees a payload view into it.
func (e *Endpoint) demux(data []byte, from net.Addr) {
	h, payload, err := Decode(data)
	if err != nil || h.MessageType != messageTypeGPDU {
		e.drops.Malformed.Inc()
		return
	}
	ts := e.table.Load().get(h.TEID)
	if ts == nil || ts.handler == nil {
		e.drops.UnknownTEID.Inc()
		return
	}
	ts.handler(payload, from)
}

// Close stops the endpoint and its socket.
func (e *Endpoint) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	return e.pc.Close()
}
