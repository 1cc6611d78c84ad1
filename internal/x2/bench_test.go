package x2

import (
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"dlte/internal/leaktest"
	"dlte/internal/simnet"
	"dlte/internal/wire"
)

// discardConn is a net.Conn whose writes are counted and dropped. The
// allocation-gated benchmarks attach peers to it so they measure
// exactly the claim under test — encode once into a pooled writer,
// frame, and write per peer — without concurrent receiver goroutines
// in the measured window. (Cross-goroutine sync.Pool traffic strands
// buffers in per-P private slots whenever a blocked reader wakes on a
// different P, which shows up as scheduler-dependent alloc noise that
// has nothing to do with the send path; the end-to-end cost over a
// live mesh is reported by BenchmarkX2BroadcastSimnet.)
type discardConn struct{ n int }

func (d *discardConn) Write(p []byte) (int, error)      { d.n += len(p); return len(p), nil }
func (d *discardConn) Read(p []byte) (int, error)       { return 0, io.EOF }
func (d *discardConn) Close() error                     { return nil }
func (d *discardConn) LocalAddr() net.Addr              { return nil }
func (d *discardConn) RemoteAddr() net.Addr             { return nil }
func (d *discardConn) SetDeadline(time.Time) error      { return nil }
func (d *discardConn) SetReadDeadline(time.Time) error  { return nil }
func (d *discardConn) SetWriteDeadline(time.Time) error { return nil }

// benchAgent wires an agent to k discard-conn peers, skipping the
// hello exchange (white-box: the peer table is populated directly).
func benchAgent(tb testing.TB, k int) *Agent {
	tb.Helper()
	a := NewAgent("hub", PeerHello{BandName: "b5", Mode: ModeFairShare}, nil)
	tb.Cleanup(a.Close)
	for i := 0; i < k; i++ {
		d := &discardConn{}
		pc := &peerConn{id: fmt.Sprintf("sink%02d", i), fc: wire.NewFrameConn(d), raw: d, mode: ModeFairShare}
		if !a.register(pc) {
			tb.Fatal("register failed")
		}
	}
	if got := len(a.Peers()); got != k {
		tb.Fatalf("mesh has %d peers, want %d", got, k)
	}
	return a
}

// benchMesh wires an agent to k frame-sink peers over a zero-latency
// simnet: real connections, real handshakes, and sink goroutines
// draining frames through the pooled receive path.
func benchMesh(tb testing.TB, k int) *Agent {
	tb.Helper()
	n := simnet.NewVirtualNetwork(simnet.Link{}, 1)
	tb.Cleanup(n.Close)
	hub := n.MustAddHost("hub")
	a := NewAgent("hub", PeerHello{BandName: "b5", Mode: ModeFairShare}, nil)
	tb.Cleanup(a.Close)
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("sink%02d", i)
		h := n.MustAddHost(name)
		l, err := h.Listen(36422)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { l.Close() })
		n.Clock().Go(func() {
			c, err := l.Accept()
			if err != nil {
				return
			}
			fc := wire.NewFrameConn(c)
			if sinkHandshake(fc, name) != nil {
				c.Close()
				return
			}
			for {
				b, err := fc.RecvOwned()
				if err != nil {
					c.Close()
					return
				}
				wire.PutFrame(b)
			}
		})
		if _, err := a.Connect(hub.Dial, name+":36422"); err != nil {
			tb.Fatal(err)
		}
	}
	if got := len(a.Peers()); got != k {
		tb.Fatalf("mesh has %d peers, want %d", got, k)
	}
	return a
}

func sinkHandshake(fc *wire.FrameConn, id string) error {
	b, err := fc.Recv()
	if err != nil {
		return err
	}
	if _, err := Decode(b); err != nil {
		return err
	}
	ack, err := Marshal(&PeerHelloAck{APID: id, Mode: ModeFairShare})
	if err != nil {
		return err
	}
	return fc.Send(ack)
}

var benchLoad = LoadInformation{APID: "hub", AttachedUEs: 40, PRBUtilization: 750, DemandBps: 80_000_000}

// BenchmarkX2Broadcast measures one load report fanned out to a
// 16-peer contention domain: encode once into a pooled writer, send
// per peer from a reused peer-snapshot scratch. Allocation-gated in
// CI (cmd/benchgate) at 0 allocs/op.
func BenchmarkX2Broadcast(b *testing.B) {
	a := benchAgent(b, 16)
	m := benchLoad
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := a.Broadcast(&m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkX2Send is the unicast path: one message to one named peer.
func BenchmarkX2Send(b *testing.B) {
	a := benchAgent(b, 1)
	m := benchLoad
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := a.Send("sink00", &m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkX2BroadcastSimnet is the end-to-end variant over a live
// 16-peer simnet mesh with draining receivers: it includes transport
// copy, scheduling, and cross-goroutine pool traffic, so its allocs/op
// reflect scheduler pool churn rather than the send path (which the
// gated BenchmarkX2Broadcast pins at 0).
func BenchmarkX2BroadcastSimnet(b *testing.B) {
	a := benchMesh(b, 16)
	m := benchLoad
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := a.Broadcast(&m); err != nil {
			b.Fatal(err)
		}
	}
}

// TestX2BroadcastZeroAlloc is the hard allocation gate on the
// coordination-plane send path: after warm-up, broadcasting to a full
// mesh must not allocate — not in the encoder (pooled writer), not in
// the peer snapshot (reused scratch), not in the framing (pooled
// prefix+payload scratch released after the stream write).
func TestX2BroadcastZeroAlloc(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector; pooled paths allocate by design")
	}
	a := benchAgent(t, 16)
	m := benchLoad
	if err := a.Broadcast(&m); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(300, func() {
		if err := a.Broadcast(&m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Broadcast to 16 peers: %.2f allocs/op, want 0", allocs)
	}
}

// TestX2SendZeroAlloc gates the unicast path the same way.
func TestX2SendZeroAlloc(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector; pooled paths allocate by design")
	}
	a := benchAgent(t, 1)
	m := benchLoad
	if err := a.Send("sink00", &m); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(300, func() {
		if err := a.Send("sink00", &m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Send: %.2f allocs/op, want 0", allocs)
	}
}
