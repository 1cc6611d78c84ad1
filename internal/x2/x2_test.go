package x2

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dlte/internal/simnet"
	"dlte/internal/wire"
)

func allMessages() []Message {
	return []Message{
		&PeerHello{APID: "ap1", X: 100, Y: -50, BandName: "LTE band 5", Mode: ModeFairShare},
		&PeerHelloAck{APID: "ap2", Mode: ModeCooperative},
		&LoadInformation{APID: "ap1", AttachedUEs: 12, PRBUtilization: 7500, DemandBps: 42e6},
		&HandoverRequest{IMSI: "001010000000001", SourceAP: "ap1", RSRPdBm: -9500},
		&HandoverRequestAck{IMSI: "001010000000001", Accepted: true},
		&HandoverComplete{IMSI: "001010000000001", TargetAP: "ap2"},
		&ModeProposal{APID: "ap1", Mode: ModeCooperative},
		&ModeResponse{APID: "ap2", Mode: ModeCooperative, Accepted: true},
		&ShareUpdate{APIDs: []string{"ap1", "ap2"}, Fractions: []uint16{6000, 4000}},
		&UEContextPush{IMSI: "001010000000001", K: make([]byte, 16), OPc: make([]byte, 16)},
		&RelayRequest{APID: "ap1", NeededBps: 5e6},
		&RelayResponse{APID: "ap2", Granted: true, GrantedBps: 3e6},
		&RelayData{FlowID: 7, Payload: []byte("pkt")},
	}
}

func TestCodecsRoundTrip(t *testing.T) {
	for _, m := range allMessages() {
		b, err := Marshal(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Type(), err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Type(), err)
		}
		b2, _ := Marshal(got)
		if string(b) != string(b2) {
			t.Errorf("%s: unstable round trip", m.Type())
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{200}); !errors.Is(err, ErrUnknownMessage) {
		t.Errorf("unknown: %v", err)
	}
	if _, err := Decode([]byte{byte(TypeShareUpdate), 2, 1}); err == nil {
		t.Error("truncated ShareUpdate decoded")
	}
	// Strict like NAS, S1AP and the registry: trailing bytes and
	// boolean octets other than 0/1 are rejected.
	hello, _ := Marshal(&PeerHello{APID: "ap1"})
	if _, err := Decode(append(hello, 0)); !errors.Is(err, wire.ErrNonCanonical) {
		t.Errorf("trailing byte: %v", err)
	}
	ack, _ := Marshal(&HandoverRequestAck{IMSI: "i", Accepted: true})
	ack[len(ack)-2] = 2 // the Accepted octet
	if _, err := Decode(ack); !errors.Is(err, wire.ErrNonCanonical) {
		t.Errorf("boolean octet 2: %v", err)
	}
}

// TestShareUpdateEncodeErrors: a domain too large for the u8 count, or
// APIDs and Fractions of different lengths, fail to encode instead of
// wrapping the count or panicking.
func TestShareUpdateEncodeErrors(t *testing.T) {
	big := &ShareUpdate{APIDs: make([]string, 256), Fractions: make([]uint16, 256)}
	if _, err := Marshal(big); !errors.Is(err, wire.ErrOverflow) {
		t.Errorf("256 members: %v, want ErrOverflow", err)
	}
	for _, m := range []*ShareUpdate{
		{APIDs: []string{"ap1", "ap2"}, Fractions: []uint16{5000}},
		{APIDs: []string{"ap1"}, Fractions: []uint16{5000, 5000}},
	} {
		if _, err := Marshal(m); !errors.Is(err, ErrShareMismatch) {
			t.Errorf("%d APIDs, %d fractions: %v, want ErrShareMismatch", len(m.APIDs), len(m.Fractions), err)
		}
	}
	n := 255
	full := &ShareUpdate{APIDs: make([]string, n), Fractions: make([]uint16, n)}
	b, err := Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Decode(b); err != nil || len(got.(*ShareUpdate).APIDs) != n {
		t.Errorf("255 members: %v", err)
	}
}

func TestNames(t *testing.T) {
	for _, m := range allMessages() {
		if strings.HasPrefix(m.Type().String(), "X2(") {
			t.Errorf("missing name for type %d", m.Type())
		}
	}
	for _, mode := range []Mode{ModeSelfish, ModeFairShare, ModeCooperative} {
		if strings.HasPrefix(mode.String(), "Mode(") {
			t.Errorf("missing mode name %d", mode)
		}
	}
}

type testPeers struct {
	net *simnet.Network
	a   *Agent
	b   *Agent

	mu       sync.Mutex
	received map[string][]Message // receiver agent ID → messages
}

// record keeps a copy of each message (a handler's message views the
// frame only for the call, so a handler that keeps it copies it).
func (tp *testPeers) record(agentID string) Handler {
	return func(peerID string, msg Message) {
		msg = own(msg)
		tp.mu.Lock()
		tp.received[agentID] = append(tp.received[agentID], msg)
		tp.mu.Unlock()
	}
}

// own returns a copy of msg that owns all its fields.
func own(msg Message) Message {
	b, err := Marshal(msg)
	if err == nil {
		msg, err = Decode(b)
	}
	if err != nil {
		panic(err)
	}
	return msg
}

func (tp *testPeers) got(agentID string) []Message {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return append([]Message{}, tp.received[agentID]...)
}

// newTestPeers builds two connected agents on a virtual-time network:
// waits below advance the VirtualClock instead of spinning wall-clock
// poll loops, so the tests are deterministic and fast. The agents own
// no goroutines (they receive as delivery handlers), so only the
// test-side waits touch the clock.
func newTestPeers(t *testing.T, latency time.Duration) *testPeers {
	t.Helper()
	tp := &testPeers{received: make(map[string][]Message)}
	tp.net = simnet.NewVirtualNetwork(simnet.Link{Latency: latency}, 1)
	t.Cleanup(tp.net.Close)

	hostA := tp.net.MustAddHost("ap1")
	hostB := tp.net.MustAddHost("ap2")
	tp.a = NewAgent("ap1", PeerHello{X: 0, Y: 0, BandName: "b5", Mode: ModeFairShare}, tp.record("ap1"))
	tp.b = NewAgent("ap2", PeerHello{X: 5000, Y: 0, BandName: "b5", Mode: ModeCooperative}, tp.record("ap2"))
	t.Cleanup(func() { tp.a.Close(); tp.b.Close() })

	lb, err := hostB.Listen(36422)
	if err != nil {
		t.Fatal(err)
	}
	tp.b.Serve(lb)

	peerID, err := tp.a.Connect(hostA.Dial, "ap2:36422")
	if err != nil {
		t.Fatal(err)
	}
	if peerID != "ap2" {
		t.Fatalf("connected to %q", peerID)
	}
	return tp
}

// waitFor parks on the virtual clock until cond holds, failing after
// 3 s of virtual time: coordination messages are asynchronous.
func (tp *testPeers) waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	if !tp.net.Clock().(*simnet.VirtualClock).WaitUntil(3*time.Second, cond) {
		t.Fatal("condition not reached")
	}
}

func TestAgentHandshakeAndSend(t *testing.T) {
	tp := newTestPeers(t, time.Millisecond)
	if peers := tp.a.Peers(); len(peers) != 1 || peers[0] != "ap2" {
		t.Fatalf("a peers = %v", peers)
	}
	tp.waitFor(t, func() bool { return tp.b.PeerCount() == 1 })
	if mode, ok := tp.a.PeerMode("ap2"); !ok || mode != ModeCooperative {
		t.Errorf("a sees b mode %v ok=%v", mode, ok)
	}
	if mode, ok := tp.b.PeerMode("ap1"); !ok || mode != ModeFairShare {
		t.Errorf("b sees a mode %v ok=%v", mode, ok)
	}

	if err := tp.a.Send("ap2", &LoadInformation{APID: "ap1", AttachedUEs: 3}); err != nil {
		t.Fatal(err)
	}
	tp.waitFor(t, func() bool { return len(tp.got("ap2")) == 1 })
	li, ok := tp.got("ap2")[0].(*LoadInformation)
	if !ok || li.AttachedUEs != 3 {
		t.Fatalf("b received %+v", tp.got("ap2"))
	}

	// Reverse direction.
	if err := tp.b.Send("ap1", &ModeProposal{APID: "ap2", Mode: ModeCooperative}); err != nil {
		t.Fatal(err)
	}
	tp.waitFor(t, func() bool { return len(tp.got("ap1")) == 1 })
}

func TestAgentSendUnknownPeer(t *testing.T) {
	tp := newTestPeers(t, 0)
	if err := tp.a.Send("ghost", &LoadInformation{}); !errors.Is(err, ErrNoPeer) {
		t.Errorf("want ErrNoPeer, got %v", err)
	}
}

func TestAgentTrafficAccounting(t *testing.T) {
	tp := newTestPeers(t, 0)
	tx0, rx0, _, _ := tp.a.Traffic()
	if tx0 == 0 || rx0 == 0 {
		t.Errorf("handshake not accounted: tx=%d rx=%d", tx0, rx0)
	}
	for i := 0; i < 10; i++ {
		if err := tp.a.Send("ap2", &LoadInformation{APID: "ap1"}); err != nil {
			t.Fatal(err)
		}
	}
	tx1, _, msgsTx, _ := tp.a.Traffic()
	if tx1 <= tx0 {
		t.Error("tx bytes did not grow")
	}
	if msgsTx != 10 {
		t.Errorf("msgsTx = %d, want 10", msgsTx)
	}
	tp.waitFor(t, func() bool {
		_, rx, _, rxMsgs := tp.b.Traffic()
		return rx > 0 && rxMsgs == 10
	})
}

func TestAgentBroadcast(t *testing.T) {
	tp := newTestPeers(t, 0)
	// Add a third AP connected to a.
	hostC := tp.net.MustAddHost("ap3")
	c := NewAgent("ap3", PeerHello{Mode: ModeFairShare}, tp.record("ap3"))
	t.Cleanup(c.Close)
	lc, err := hostC.Listen(36422)
	if err != nil {
		t.Fatal(err)
	}
	c.Serve(lc)
	hostA, _ := tp.net.Host("ap1")
	if _, err := tp.a.Connect(hostA.Dial, "ap3:36422"); err != nil {
		t.Fatal(err)
	}
	if err := tp.a.Broadcast(&ShareUpdate{APIDs: []string{"ap1"}, Fractions: []uint16{10000}}); err != nil {
		t.Fatal(err)
	}
	tp.waitFor(t, func() bool { return len(tp.got("ap2")) == 1 && len(tp.got("ap3")) == 1 })
}

func TestAgentPeerDisconnect(t *testing.T) {
	tp := newTestPeers(t, 0)
	tp.waitFor(t, func() bool { return tp.b.PeerCount() == 1 })
	tp.b.Close()
	tp.waitFor(t, func() bool { return tp.a.PeerCount() == 0 })
	if err := tp.a.Send("ap2", &LoadInformation{}); !errors.Is(err, ErrNoPeer) {
		t.Errorf("send after disconnect: %v", err)
	}
}

func TestAgentRejectsGarbageHandshake(t *testing.T) {
	n := simnet.NewVirtualNetwork(simnet.Link{}, 1)
	t.Cleanup(n.Close)
	hb := n.MustAddHost("b")
	ha := n.MustAddHost("a")
	b := NewAgent("b", PeerHello{}, nil)
	t.Cleanup(b.Close)
	lb, _ := hb.Listen(36422)
	b.Serve(lb)

	c, err := ha.Dial("b:36422")
	if err != nil {
		t.Fatal(err)
	}
	var _ net.Conn = c
	c.Write([]byte{0, 0, 0, 2, 99, 99}) // framed garbage
	// One virtual tick: the agent has read and rejected the frame.
	n.Clock().Sleep(50 * time.Millisecond)
	if b.PeerCount() != 0 {
		t.Error("garbage handshake registered a peer")
	}
}

func TestHandoverExchange(t *testing.T) {
	// Drive the full cooperative handover message flow a↔b.
	tp := newTestPeers(t, time.Millisecond)
	tp.waitFor(t, func() bool { return tp.b.PeerCount() == 1 })

	if err := tp.a.Send("ap2", &UEContextPush{IMSI: "001010000000001", K: make([]byte, 16), OPc: make([]byte, 16)}); err != nil {
		t.Fatal(err)
	}
	if err := tp.a.Send("ap2", &HandoverRequest{IMSI: "001010000000001", SourceAP: "ap1", RSRPdBm: -10100}); err != nil {
		t.Fatal(err)
	}
	tp.waitFor(t, func() bool { return len(tp.got("ap2")) == 2 })
	if err := tp.b.Send("ap1", &HandoverRequestAck{IMSI: "001010000000001", Accepted: true}); err != nil {
		t.Fatal(err)
	}
	if err := tp.b.Send("ap1", &HandoverComplete{IMSI: "001010000000001", TargetAP: "ap2"}); err != nil {
		t.Fatal(err)
	}
	tp.waitFor(t, func() bool { return len(tp.got("ap1")) == 2 })
	msgs := tp.got("ap1")
	if _, ok := msgs[0].(*HandoverRequestAck); !ok {
		t.Errorf("first reply = %T", msgs[0])
	}
	if hc, ok := msgs[1].(*HandoverComplete); !ok || hc.TargetAP != "ap2" {
		t.Errorf("second reply = %+v", msgs[1])
	}
}
