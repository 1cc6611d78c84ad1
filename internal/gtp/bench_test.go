package gtp_test

import (
	"net"
	"testing"
	"time"

	"dlte/internal/gtp"
	"dlte/internal/simnet"
)

// benchPair builds two GTP endpoints on a zero-latency simnet with one
// bound tunnel in each direction. The calling goroutine drives the
// network's clock: deliveries run while it waits in await.
type benchPair struct {
	net     *simnet.Network
	a, b    *gtp.Endpoint
	aTEID   uint32                    // local TEID at a (b sends to it)
	bTEID   uint32                    // local TEID at b (a sends to it)
	arrived *simnet.Mailbox[struct{}] // one token per demuxed packet
}

func newBenchPair(tb testing.TB) *benchPair {
	tb.Helper()
	p := &benchPair{net: simnet.NewVirtualNetwork(simnet.Link{}, 1)}
	p.arrived = simnet.NewMailbox[struct{}](p.net.Clock().(*simnet.VirtualClock), 1024)
	ha := p.net.MustAddHost("enb")
	hb := p.net.MustAddHost("sgw")
	pca, err := ha.ListenPacket(gtp.Port)
	if err != nil {
		tb.Fatal(err)
	}
	pcb, err := hb.ListenPacket(gtp.Port)
	if err != nil {
		tb.Fatal(err)
	}
	p.a = gtp.NewEndpoint(pca)
	p.b = gtp.NewEndpoint(pcb)
	p.aTEID = p.a.AllocateTEID(func(payload []byte, from net.Addr) {
		p.arrived.Put(struct{}{})
	})
	p.bTEID = p.b.AllocateTEID(func(payload []byte, from net.Addr) {
		p.arrived.Put(struct{}{})
	})
	if err := p.a.Bind(p.aTEID, p.bTEID, simnet.Addr{Host: "sgw", Port: gtp.Port}); err != nil {
		tb.Fatal(err)
	}
	if err := p.b.Bind(p.bTEID, p.aTEID, simnet.Addr{Host: "enb", Port: gtp.Port}); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		p.a.Close()
		p.b.Close()
		p.net.Close()
	})
	return p
}

// await waits for the far demux handler to see one more packet.
func (p *benchPair) await(tb testing.TB) {
	if _, err := p.arrived.Recv(time.Second); err != nil {
		tb.Fatalf("packet not demuxed: %v", err)
	}
}

// sendWindowed streams n packets a→b keeping at most window in flight
// (socket buffers are finite; UDP semantics drop on overflow), then
// waits for the far demux handler to have seen all n.
func (p *benchPair) sendWindowed(b *testing.B, n, window int, send func() error) {
	inFlight := 0
	for i := 0; i < n; i++ {
		if inFlight == window {
			p.await(b)
			inFlight--
		}
		if err := send(); err != nil {
			b.Fatal(err)
		}
		inFlight++
	}
	for ; inFlight > 0; inFlight-- {
		p.await(b)
	}
}

// stubConn is a PacketConn that only records the delivery handler the
// endpoint installs, so a benchmark can call it directly: the
// endpoint's demux step (header decode, TEID table lookup, handler
// dispatch) isolated from the socket underneath.
type stubConn struct {
	deliver func(data []byte, from net.Addr)
}

var stubFrom net.Addr = simnet.Addr{Host: "peer", Port: gtp.Port}

func (s *stubConn) WriteTo(b []byte, addr net.Addr) (int, error) { return len(b), nil }

func (s *stubConn) SetHandler(h func(data []byte, from net.Addr)) { s.deliver = h }

func (s *stubConn) Close() error { return nil }

// BenchmarkDemux measures the pure receive-side demux rate: each
// iteration delivers the same 512-byte G-PDU to the endpoint's handler,
// so one iteration is exactly decode + TEID lookup + dispatch.
func BenchmarkDemux(b *testing.B) {
	payload := make([]byte, 512)
	pkt := gtp.Encode(1, payload)
	var count int
	sc := &stubConn{}
	e := gtp.NewEndpoint(sc)
	e.AllocateTEID(func(p []byte, _ net.Addr) { count++ }) // TEID 1
	b.Cleanup(func() { e.Close() })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.deliver(pkt, stubFrom)
	}
	b.StopTimer()
	if count != b.N {
		b.Fatalf("handler saw %d of %d packets", count, b.N)
	}
}

// TestSendDemuxZeroAlloc gates the fast path: steady-state tunneled
// send (pooled buffer, headroom encap, owned handoff) plus receive
// demux must not allocate. A regression here is a performance bug even
// though every packet still arrives — hence a test, not a benchmark.
func TestSendDemuxZeroAlloc(t *testing.T) {
	p := newBenchPair(t)
	payload := make([]byte, 512)
	send := func() {
		buf := gtp.GetBuffer()
		buf = append(buf, payload...)
		if err := p.a.SendBuffer(p.aTEID, buf); err != nil {
			t.Fatal(err)
		}
		p.await(t)
	}
	for i := 0; i < 64; i++ {
		send() // warm the buffer pools and the socket path
	}
	// The demux runs on the clock's delivery thread; AllocsPerRun
	// still sees it (the counter is process-wide). Averaging over many
	// runs forgives a stray runtime allocation, not a per-packet one.
	if avg := testing.AllocsPerRun(200, send); avg > 0.5 {
		t.Fatalf("send+demux allocates %.2f times per packet, want 0", avg)
	}
}

// BenchmarkEndpointSendDemux drives G-PDUs a→b as fast as the demux
// keeps up: one iteration = encap (payload copied into a pooled
// buffer) + socket + TEID demux + handler dispatch.
func BenchmarkEndpointSendDemux(b *testing.B) {
	p := newBenchPair(b)
	payload := make([]byte, 512)
	b.ReportAllocs()
	b.ResetTimer()
	p.sendWindowed(b, b.N, 64, func() error { return p.a.Send(p.aTEID, payload) })
	b.StopTimer()
}

// BenchmarkEndpointSendBufferDemux is the zero-copy variant: payload
// built in place behind reserved GTP headroom, ownership handed down
// the stack — the fast path the eNB and gateway forwarding loops use.
func BenchmarkEndpointSendBufferDemux(b *testing.B) {
	p := newBenchPair(b)
	payload := make([]byte, 512)
	b.ReportAllocs()
	b.ResetTimer()
	p.sendWindowed(b, b.N, 64, func() error {
		buf := gtp.GetBuffer()
		buf = append(buf, payload...)
		return p.a.SendBuffer(p.aTEID, buf)
	})
	b.StopTimer()
}
