package epc_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dlte/internal/auth"
	"dlte/internal/enb"
	"dlte/internal/epc"
	"dlte/internal/ott"
	"dlte/internal/simnet"
	"dlte/internal/ue"
)

// testbed wires a full network: a core (stub or remote), an eNodeB, an
// OTT echo server, and UEs.
type testbed struct {
	net  *simnet.Network
	core *epc.Core
	enb  *enb.ENodeB
	echo *ott.EchoServer
}

// newTestbed builds the topology. If stub is true the core shares the
// AP host (dLTE); otherwise it sits behind a WAN link with the given
// extra latency (telecom EPC).
func newTestbed(t *testing.T, stub bool, epcLatency time.Duration) *testbed {
	t.Helper()
	tb := &testbed{}
	tb.net = simnet.NewVirtualNetwork(simnet.Link{Latency: time.Millisecond}, 1)
	t.Cleanup(tb.net.Close)

	ap := tb.net.MustAddHost("ap")
	ottHost := tb.net.MustAddHost("ott")

	coreHost := ap
	if !stub {
		coreHost = tb.net.MustAddHost("epc")
		tb.net.SetLink("ap", "epc", simnet.Link{Latency: epcLatency})
	}

	core, err := epc.NewCore(coreHost, epc.Config{
		Name: "test-core", TAC: 7, DirectBreakout: stub, OpenHSS: stub,
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.core = core
	t.Cleanup(core.Close)
	l, err := coreHost.Listen(epc.S1APPort)
	if err != nil {
		t.Fatal(err)
	}
	core.ServeS1AP(l)

	e, err := enb.New(ap, enb.Config{ID: 1, TAC: 7, MMEAddr: coreHost.Name() + ":36412"})
	if err != nil {
		t.Fatal(err)
	}
	tb.enb = e
	t.Cleanup(e.Close)

	echo, err := ott.NewEchoServer(ottHost, 9000)
	if err != nil {
		t.Fatal(err)
	}
	tb.echo = echo
	t.Cleanup(echo.Close)
	return tb
}

func (tb *testbed) newUE(t *testing.T, imsi string) *ue.Device {
	t.Helper()
	sim, err := auth.NewSIM(auth.IMSI(imsi))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.core.Provision(sim); err != nil {
		t.Fatal(err)
	}
	ueHost := tb.net.MustAddHost("ue-" + imsi)
	// Air link: 5 ms, like a scheduled LTE radio leg.
	tb.net.SetLink(ueHost.Name(), "ap", simnet.Link{Latency: 5 * time.Millisecond})
	d, err := ue.NewDevice(ueHost, sim)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func TestStubAttachAndEcho(t *testing.T) {
	tb := newTestbed(t, true, 0)
	d := tb.newUE(t, "001010000000101")

	res, err := d.Attach(tb.enb.AirAddr(), 5*time.Second)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if res.IP == "" || res.GUTI == 0 {
		t.Fatalf("result = %+v", res)
	}
	if !res.DirectBreakout {
		t.Error("stub core did not advertise direct breakout")
	}
	if !strings.HasPrefix(res.IP, "10.45.") {
		t.Errorf("IP = %q", res.IP)
	}

	rtt, err := d.Echo("ott:9000", []byte("ping"), 200*time.Millisecond, 5*time.Second)
	if err != nil {
		t.Fatalf("echo: %v", err)
	}
	if rtt <= 0 || rtt > 3*time.Second {
		t.Errorf("rtt = %v", rtt)
	}
	if tb.core.Gateway().NumSessions() != 1 {
		t.Errorf("gateway sessions = %d", tb.core.Gateway().NumSessions())
	}
	st := tb.core.Stats()
	if st.Attaches != 1 || st.SignalingMessages == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCentralizedAttachAndEcho(t *testing.T) {
	tb := newTestbed(t, false, 20*time.Millisecond)
	d := tb.newUE(t, "001010000000102")

	res, err := d.Attach(tb.enb.AirAddr(), 10*time.Second)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if res.DirectBreakout {
		t.Error("centralized core advertised direct breakout")
	}
	// Attach crosses the WAN several times: latency must reflect it.
	if res.Duration < 60*time.Millisecond {
		t.Errorf("centralized attach took only %v; expected ≥ 3 WAN RTTs", res.Duration)
	}
	if _, err := d.Echo("ott:9000", []byte("ping"), 200*time.Millisecond, 5*time.Second); err != nil {
		t.Fatalf("echo through tunnel: %v", err)
	}
}

func TestStubFasterThanCentralized(t *testing.T) {
	stub := newTestbed(t, true, 0)
	central := newTestbed(t, false, 30*time.Millisecond)

	dStub := stub.newUE(t, "001010000000103")
	dCentral := central.newUE(t, "001010000000104")

	resStub, err := dStub.Attach(stub.enb.AirAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	resCentral, err := dCentral.Attach(central.enb.AirAddr(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resStub.Duration >= resCentral.Duration {
		t.Errorf("stub attach %v not faster than centralized %v", resStub.Duration, resCentral.Duration)
	}

	// Data-path RTT advantage (Figure 1 / E2): breakout at the AP vs
	// tunneling through the remote EPC.
	rttStub, err := dStub.Echo("ott:9000", []byte("x"), 200*time.Millisecond, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rttCentral, err := dCentral.Echo("ott:9000", []byte("x"), 200*time.Millisecond, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rttStub >= rttCentral {
		t.Errorf("stub RTT %v not lower than centralized %v", rttStub, rttCentral)
	}
}

func TestMultipleUEsConcurrentAttach(t *testing.T) {
	tb := newTestbed(t, true, 0)
	const n = 8
	devices := make([]*ue.Device, n)
	for i := 0; i < n; i++ {
		devices[i] = tb.newUE(t, fmt.Sprintf("0010100000002%02d", i))
	}
	clk := tb.net.Clock()
	errs := simnet.NewMailbox[error](clk.(*simnet.VirtualClock), n)
	for _, d := range devices {
		clk.Go(func() {
			if _, err := d.Attach(tb.enb.AirAddr(), 10*time.Second); err != nil {
				errs.Put(err)
				return
			}
			_, err := d.Echo("ott:9000", []byte("hi"), 200*time.Millisecond, 5*time.Second)
			errs.Put(err)
		})
	}
	for i := 0; i < n; i++ {
		if err, _ := errs.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := tb.core.Gateway().NumSessions(); got != n {
		t.Errorf("sessions = %d, want %d", got, n)
	}
	// Distinct IPs for all.
	seen := map[string]bool{}
	for _, d := range devices {
		ip := d.IP()
		if seen[ip] {
			t.Errorf("duplicate IP %s", ip)
		}
		seen[ip] = true
	}
}

func TestDetachReleasesSession(t *testing.T) {
	tb := newTestbed(t, true, 0)
	d := tb.newUE(t, "001010000000130")
	if _, err := d.Attach(tb.enb.AirAddr(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := d.Detach(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	clk := tb.net.Clock()
	deadline := clk.Now().Add(2 * time.Second)
	for tb.core.Gateway().NumSessions() != 0 && clk.Now().Before(deadline) {
		clk.Sleep(10 * time.Millisecond)
	}
	if got := tb.core.Gateway().NumSessions(); got != 0 {
		t.Errorf("sessions after detach = %d", got)
	}
	if st := tb.core.Stats(); st.Detaches != 1 {
		t.Errorf("detaches = %d", st.Detaches)
	}
	if err := d.Send("ott:9000", []byte("x")); !errors.Is(err, ue.ErrNotAttached) {
		t.Errorf("send after detach: %v", err)
	}
}

func TestUnknownUERejected(t *testing.T) {
	tb := newTestbed(t, true, 0)
	sim, _ := auth.NewSIM("001010000000140") // NOT provisioned
	ueHost := tb.net.MustAddHost("ue-x")
	d, _ := ue.NewDevice(ueHost, sim)
	t.Cleanup(d.Close)
	_, err := d.Attach(tb.enb.AirAddr(), 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("attach of unknown IMSI: %v", err)
	}
	if st := tb.core.Stats(); st.Rejects != 1 {
		t.Errorf("rejects = %d", st.Rejects)
	}
}

// TestRejectedAttachDropsAssociation: a failed attach must not leave
// its radio association behind. The UE closes the air conn on every
// failing exit, so the eNodeB's context goes, and the eNodeB's release
// request retires the core's half-built session — instead of both
// lingering until the device's next Attach.
func TestRejectedAttachDropsAssociation(t *testing.T) {
	tb := newTestbed(t, false, 2*time.Millisecond) // closed HSS
	sim, _ := auth.NewSIM("001010000000141")       // NOT provisioned
	d, _ := ue.NewDevice(tb.net.MustAddHost("ue-y"), sim)
	t.Cleanup(d.Close)
	if _, err := d.Attach(tb.enb.AirAddr(), 5*time.Second); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("attach of unknown IMSI: %v", err)
	}
	atReject := tb.core.Stats().SignalingMessages
	clk := tb.net.Clock()
	deadline := clk.Now().Add(2 * time.Second)
	for clk.Now().Before(deadline) &&
		(tb.enb.NumUEs() != 0 || tb.core.Stats().SignalingMessages < atReject+2) {
		clk.Sleep(time.Millisecond)
	}
	if n := tb.enb.NumUEs(); n != 0 {
		t.Errorf("eNodeB still holds %d UE context(s) after a rejected attach", n)
	}
	// UEContextReleaseRequest, then ReleaseComplete: the core's session
	// for the rejected UE is gone.
	if got := tb.core.Stats().SignalingMessages; got < atReject+2 {
		t.Errorf("core saw %d S1AP messages after the reject, want the release exchange (2)", got-atReject)
	}
	if n := tb.core.Gateway().NumSessions(); n != 0 {
		t.Errorf("gateway sessions = %d", n)
	}
}

func TestOpenCoreImportsPublishedKey(t *testing.T) {
	tb := newTestbed(t, true, 0) // stub core is open
	sim, _ := auth.NewSIM("001010000000150")
	ueHost := tb.net.MustAddHost("ue-pub")
	d, _ := ue.NewDevice(ueHost, sim)
	t.Cleanup(d.Close)

	// Not provisioned: first attach fails.
	if _, err := d.Attach(tb.enb.AirAddr(), 5*time.Second); err == nil {
		t.Fatal("unprovisioned attach succeeded")
	}
	// Import the published key (as the AP would from the registry).
	if err := tb.core.ImportPublishedKey(d.Publication()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Attach(tb.enb.AirAddr(), 5*time.Second); err != nil {
		t.Fatalf("attach after key import: %v", err)
	}
}

func TestClosedCoreRefusesPublishedKey(t *testing.T) {
	tb := newTestbed(t, false, 5*time.Millisecond) // telecom core: closed
	sim, _ := auth.NewSIM("001010000000160")
	pub := auth.KeyPublication{IMSI: sim.IMSI, K: sim.K, OPc: sim.OPc}
	if err := tb.core.ImportPublishedKey(pub); err == nil {
		t.Fatal("closed core accepted a published key")
	}
}

func TestReattachSameCore(t *testing.T) {
	tb := newTestbed(t, true, 0)
	d := tb.newUE(t, "001010000000170")
	if _, err := d.Attach(tb.enb.AirAddr(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := d.Detach(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := d.Attach(tb.enb.AirAddr(), 5*time.Second)
	if err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	if res.IP == "" {
		t.Error("no IP on re-attach")
	}
	if _, err := d.Echo("ott:9000", []byte("again"), 200*time.Millisecond, 5*time.Second); err != nil {
		t.Fatalf("echo after re-attach: %v", err)
	}
}

func TestReattachWithoutDetachSupersedes(t *testing.T) {
	// A client that lost its radio without detaching re-attaches: the
	// new attach supersedes the stale session (TS 24.301 semantics)
	// and the data path works again.
	tb := newTestbed(t, true, 0)
	d := tb.newUE(t, "001010000000180")
	if _, err := d.Attach(tb.enb.AirAddr(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// No detach — just re-attach (e.g. after a radio blackout).
	res, err := d.Attach(tb.enb.AirAddr(), 5*time.Second)
	if err != nil {
		t.Fatalf("supersede attach: %v", err)
	}
	if res.IP == "" {
		t.Error("no IP on superseding attach")
	}
	if got := tb.core.Gateway().NumSessions(); got != 1 {
		t.Errorf("sessions after supersede = %d, want 1", got)
	}
	if _, err := d.Echo("ott:9000", []byte("alive"), 200*time.Millisecond, 5*time.Second); err != nil {
		t.Fatalf("data path after supersede: %v", err)
	}
}

func TestUserPacketCodec(t *testing.T) {
	p := epc.UserPacket{Remote: "ott:9000", Payload: []byte("data")}
	b, err := epc.EncodeUserPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := epc.DecodeUserPacket(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Remote != p.Remote || string(got.Payload) != "data" {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := epc.DecodeUserPacket([]byte{5, 1}); err == nil {
		t.Error("truncated packet decoded")
	}
}
