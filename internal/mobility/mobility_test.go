package mobility

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dlte/internal/auth"
	"dlte/internal/leaktest"
	"dlte/internal/simnet"
	"dlte/internal/x2"
)

// fakeSender records copies of sent X2 messages, as the plane's sends
// come from pooled messages Sender must not keep, and can be told to
// fail (a dead peer link).
type fakeSender struct {
	sent []struct {
		peer string
		msg  x2.Message
	}
	err error
}

func (f *fakeSender) Send(peer string, msg x2.Message) error {
	if f.err != nil {
		return f.err
	}
	b, err := x2.Marshal(msg)
	if err != nil {
		return err
	}
	if msg, err = x2.Decode(b); err != nil {
		return err
	}
	f.sent = append(f.sent, struct {
		peer string
		msg  x2.Message
	}{peer, msg})
	return nil
}

// fakeCore records imports and completes. It keeps each publication
// as handed over, as the HSS does.
type fakeCore struct {
	imported  []string
	pubs      []auth.KeyPublication
	completed []string
	importErr error
}

func (f *fakeCore) ImportPublishedKey(pub auth.KeyPublication) error {
	if f.importErr != nil {
		return f.importErr
	}
	f.imported = append(f.imported, string(pub.IMSI))
	f.pubs = append(f.pubs, pub)
	return nil
}

func (f *fakeCore) CompleteHandover(imsi string) error {
	f.completed = append(f.completed, imsi)
	return nil
}

func testPub(imsi string) auth.KeyPublication {
	return auth.KeyPublication{IMSI: auth.IMSI(imsi), K: make([]byte, 16), OPc: make([]byte, 16)}
}

func newTestPlane(id string) (*Plane, *fakeSender, *fakeCore) {
	snd := &fakeSender{}
	core := &fakeCore{}
	p := NewPlane(Config{APID: id, X2: snd, Core: core})
	return p, snd, core
}

func TestPrepareHappyPath(t *testing.T) {
	p, snd, _ := newTestPlane("ap1")
	if err := p.Prepare("ap2", testPub("001010000000001"), -98.5); err != nil {
		t.Fatal(err)
	}
	if got := p.State("001010000000001"); got != StatePreparing {
		t.Fatalf("state after Prepare = %v, want PREPARING", got)
	}
	if len(snd.sent) != 2 {
		t.Fatalf("sent %d messages, want push+request", len(snd.sent))
	}
	if _, ok := snd.sent[0].msg.(*x2.UEContextPush); !ok {
		t.Errorf("first message = %T, want UEContextPush", snd.sent[0].msg)
	}
	req, ok := snd.sent[1].msg.(*x2.HandoverRequest)
	if !ok {
		t.Fatalf("second message = %T, want HandoverRequest", snd.sent[1].msg)
	}
	if req.SourceAP != "ap1" || req.RSRPdBm != -9850 {
		t.Errorf("request = %+v", req)
	}

	// Accepted ack from the target moves the record to PREPARED.
	p.HandleX2("ap2", &x2.HandoverRequestAck{IMSI: "001010000000001", Accepted: true})
	if got := p.State("001010000000001"); got != StatePrepared {
		t.Fatalf("state after ack = %v, want PREPARED", got)
	}
}

func TestPrepareRejected(t *testing.T) {
	p, _, _ := newTestPlane("ap1")
	if err := p.Prepare("ap2", testPub("001010000000002"), -100); err != nil {
		t.Fatal(err)
	}
	p.HandleX2("ap2", &x2.HandoverRequestAck{IMSI: "001010000000002", Accepted: false, Cause: 7})
	if got := p.State("001010000000002"); got != StateRejected {
		t.Fatalf("state = %v, want REJECTED", got)
	}
	if c := p.RejectionCause("001010000000002"); c != 7 {
		t.Fatalf("cause = %d, want 7", c)
	}
	// A re-prepare after rejection starts a fresh arc.
	if err := p.Prepare("ap3", testPub("001010000000002"), -100); err != nil {
		t.Fatal(err)
	}
	if got := p.State("001010000000002"); got != StatePreparing {
		t.Fatalf("state after re-prepare = %v, want PREPARING", got)
	}
}

func TestPrepareSendFailureAborts(t *testing.T) {
	p, snd, _ := newTestPlane("ap1")
	snd.err = errors.New("peer unreachable")
	if err := p.Prepare("ap2", testPub("001010000000003"), -100); err == nil {
		t.Fatal("Prepare with dead link returned nil")
	}
	if got := p.State("001010000000003"); got != StateAborted {
		t.Fatalf("state = %v, want ABORTED", got)
	}
}

func TestLateAckAfterAbortIgnored(t *testing.T) {
	p, _, _ := newTestPlane("ap1")
	if err := p.Prepare("ap2", testPub("001010000000004"), -100); err != nil {
		t.Fatal(err)
	}
	p.Abort("001010000000004")
	p.HandleX2("ap2", &x2.HandoverRequestAck{IMSI: "001010000000004", Accepted: true})
	if got := p.State("001010000000004"); got != StateAborted {
		t.Fatalf("late ack resurrected an aborted handover: %v", got)
	}
}

func TestAckFromWrongPeerIgnored(t *testing.T) {
	p, _, _ := newTestPlane("ap1")
	if err := p.Prepare("ap2", testPub("001010000000005"), -100); err != nil {
		t.Fatal(err)
	}
	p.HandleX2("ap3", &x2.HandoverRequestAck{IMSI: "001010000000005", Accepted: true})
	if got := p.State("001010000000005"); got != StatePreparing {
		t.Fatalf("ack from non-target changed state to %v", got)
	}
}

func TestTargetSidePreparedAndAdmission(t *testing.T) {
	p, snd, core := newTestPlane("ap2")
	pub := testPub("001010000000006")
	p.HandleX2("ap1", &x2.UEContextPush{IMSI: string(pub.IMSI), K: pub.K, OPc: pub.OPc})
	if len(core.imported) != 1 {
		t.Fatalf("imports = %v", core.imported)
	}
	if src, ok := p.PreparedBy("001010000000006"); !ok || src != "ap1" {
		t.Fatalf("PreparedBy = %q, %v", src, ok)
	}
	p.HandleX2("ap1", &x2.HandoverRequest{IMSI: "001010000000006", SourceAP: "ap1", RSRPdBm: -10000})
	if len(snd.sent) != 1 {
		t.Fatalf("sent %d, want one ack", len(snd.sent))
	}
	ack := snd.sent[0].msg.(*x2.HandoverRequestAck)
	if !ack.Accepted {
		t.Fatal("default admission rejected")
	}
}

func TestAdmissionRejectRetiresPreparedContext(t *testing.T) {
	p, snd, _ := newTestPlane("ap2")
	p.SetAdmit(func(imsi, sourceAP string, rsrpDBm float64) (bool, uint8) {
		if rsrpDBm < -105 {
			return false, 9
		}
		return true, 0
	})
	pub := testPub("001010000000007")
	p.HandleX2("ap1", &x2.UEContextPush{IMSI: string(pub.IMSI), K: pub.K, OPc: pub.OPc})
	p.HandleX2("ap1", &x2.HandoverRequest{IMSI: string(pub.IMSI), SourceAP: "ap1", RSRPdBm: -11000})
	ack := snd.sent[len(snd.sent)-1].msg.(*x2.HandoverRequestAck)
	if ack.Accepted || ack.Cause != 9 {
		t.Fatalf("ack = %+v, want rejection cause 9", ack)
	}
	if _, ok := p.PreparedBy(string(pub.IMSI)); ok {
		t.Fatal("rejected UE still looks prepared at the target")
	}
}

func TestFailedImportNeverPrepared(t *testing.T) {
	p, _, core := newTestPlane("ap2")
	core.importErr = errors.New("bad key material")
	pub := testPub("001010000000008")
	p.HandleX2("ap1", &x2.UEContextPush{IMSI: string(pub.IMSI), K: pub.K, OPc: pub.OPc})
	if _, ok := p.PreparedBy(string(pub.IMSI)); ok {
		t.Fatal("unusable context recorded as prepared")
	}
}

func TestDuplicateCompleteDeduped(t *testing.T) {
	p, _, core := newTestPlane("ap1")
	if err := p.Prepare("ap2", testPub("001010000000009"), -100); err != nil {
		t.Fatal(err)
	}
	p.HandleX2("ap2", &x2.HandoverRequestAck{IMSI: "001010000000009", Accepted: true})
	done := &x2.HandoverComplete{IMSI: "001010000000009", TargetAP: "ap2"}
	p.HandleX2("ap2", done)
	p.HandleX2("ap2", done) // duplicate
	if len(core.completed) != 1 {
		t.Fatalf("CompleteHandover called %d times, want 1", len(core.completed))
	}
	if got := p.State("001010000000009"); got != StateCompleted {
		t.Fatalf("state = %v, want COMPLETED", got)
	}
	// The meter charged push + request + ack + exactly one complete.
	recs := p.Meter().Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	pub := testPub("001010000000009")
	want := uint64(wireSize(&x2.UEContextPush{IMSI: "001010000000009", K: pub.K, OPc: pub.OPc}) +
		wireSize(&x2.HandoverRequest{IMSI: "001010000000009", SourceAP: "ap1", RSRPdBm: -10000}) +
		wireSize(&x2.HandoverRequestAck{IMSI: "001010000000009", Accepted: true}) +
		wireSize(done))
	if recs[0].X2Bytes != want {
		t.Fatalf("X2Bytes = %d, want %d (duplicate complete must not re-charge)", recs[0].X2Bytes, want)
	}
}

// arcMessages are the four X2 messages a handover arc meters.
func arcMessages() []x2.Message {
	pub := testPub("001010000000012")
	return []x2.Message{
		&x2.UEContextPush{IMSI: string(pub.IMSI), K: pub.K, OPc: pub.OPc},
		&x2.HandoverRequest{IMSI: string(pub.IMSI), SourceAP: "ap1", RSRPdBm: -10000},
		&x2.HandoverRequestAck{IMSI: string(pub.IMSI), Accepted: true},
		&x2.HandoverComplete{IMSI: string(pub.IMSI), TargetAP: "ap2"},
	}
}

// TestWireSizeMatchesAgentTraffic pins the meter to the wire rather
// than to itself: for each message of the arc, wireSize is exactly what
// a real x2.Agent charges its tx counter for sending it.
func TestWireSizeMatchesAgentTraffic(t *testing.T) {
	n := simnet.NewVirtualNetwork(simnet.Link{Latency: time.Millisecond}, 1)
	defer n.Close()
	src := x2.NewAgent("ap1", x2.PeerHello{}, nil)
	dst := x2.NewAgent("ap2", x2.PeerHello{}, nil)
	defer src.Close()
	defer dst.Close()
	l, err := n.MustAddHost("ap2").Listen(36422)
	if err != nil {
		t.Fatal(err)
	}
	dst.Serve(l)
	if _, err := src.Connect(n.MustAddHost("ap1").Dial, "ap2:36422"); err != nil {
		t.Fatal(err)
	}
	for _, m := range arcMessages() {
		tx0, _, _, _ := src.Traffic()
		if err := src.Send("ap2", m); err != nil {
			t.Fatal(err)
		}
		tx1, _, _, _ := src.Traffic()
		if got, want := wireSize(m), int(tx1-tx0); got != want {
			t.Errorf("%s: wireSize = %d, agent charged %d", m.Type(), got, want)
		}
	}
}

// TestWireSizeZeroAlloc: metering an arc's X2 bytes allocates nothing.
func TestWireSizeZeroAlloc(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	for _, m := range arcMessages() {
		if got := testing.AllocsPerRun(100, func() { wireSize(m) }); got != 0 {
			t.Errorf("%s: wireSize allocates %v times, want 0", m.Type(), got)
		}
	}
}

func TestUnannouncedCompleteStillCleansUp(t *testing.T) {
	// The UE roamed without the source preparing anything (registry-only
	// discovery): the complete must still end the local lifecycle.
	p, _, core := newTestPlane("ap1")
	p.HandleX2("ap2", &x2.HandoverComplete{IMSI: "001010000000010", TargetAP: "ap2"})
	if len(core.completed) != 1 {
		t.Fatalf("completed = %v", core.completed)
	}
	if got := p.State("001010000000010"); got != StateCompleted {
		t.Fatalf("state = %v", got)
	}
	// And it dedupes like any other complete.
	p.HandleX2("ap2", &x2.HandoverComplete{IMSI: "001010000000010", TargetAP: "ap2"})
	if len(core.completed) != 1 {
		t.Fatal("duplicate unannounced complete re-fired the core")
	}
}

func TestNotifyCompleteRetiresEvenOnSendFailure(t *testing.T) {
	p, snd, core := newTestPlane("ap2")
	pub := testPub("001010000000011")
	p.HandleX2("ap1", &x2.UEContextPush{IMSI: string(pub.IMSI), K: pub.K, OPc: pub.OPc})
	_ = core
	snd.err = errors.New("source died mid-handover")
	if err := p.NotifyComplete("ap1", string(pub.IMSI)); err == nil {
		t.Fatal("NotifyComplete to a dead source returned nil")
	}
	if _, ok := p.PreparedBy(string(pub.IMSI)); ok {
		t.Fatal("prepared entry survived a failed notify — stranded context")
	}
}

func TestHandleX2PassesThroughForeignMessages(t *testing.T) {
	p, _, _ := newTestPlane("ap1")
	if p.HandleX2("ap2", &x2.LoadInformation{}) {
		t.Fatal("mobility plane consumed a load report")
	}
}

func TestTriggerDecide(t *testing.T) {
	tr := DefaultTrigger() // 3 dB hysteresis, -110 floor
	cases := []struct {
		serving, neighbor float64
		want              bool
	}{
		{-90, -86, true},   // neighbour clears hysteresis
		{-90, -88, false},  // within hysteresis: hold
		{-90, -95, false},  // weaker neighbour
		{-112, -111, true}, // below floor: any improvement goes
		{-112, -113, false},
		{-110, -109, false}, // at the floor (not below): hysteresis rules
	}
	for _, c := range cases {
		if got := tr.Decide(c.serving, c.neighbor); got != c.want {
			t.Errorf("Decide(%v, %v) = %v, want %v", c.serving, c.neighbor, got, c.want)
		}
	}
}

func TestBestCell(t *testing.T) {
	if got := BestCell(nil); got != -1 {
		t.Errorf("BestCell(nil) = %d", got)
	}
	if got := BestCell([]float64{-100, -90, -95}); got != 1 {
		t.Errorf("BestCell = %d, want 1", got)
	}
	if got := BestCell([]float64{-90, -90}); got != 0 {
		t.Errorf("tie should break low: %d", got)
	}
}

func TestMeterLifecycle(t *testing.T) {
	m := NewMeter()
	base := time.Unix(1000, 0)
	m.Begin("imsi-a", "ap1", "ap2")
	m.AddX2("imsi-a", 40)
	m.AddNAS("imsi-a", 200)
	m.InterruptionStart("imsi-a", base)
	m.InterruptionEnd("imsi-a", base.Add(30*time.Millisecond))

	recs := m.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.Source != "ap1" || r.Target != "ap2" {
		t.Errorf("record endpoints = %q→%q", r.Source, r.Target)
	}
	if r.Interruption != 30*time.Millisecond {
		t.Errorf("interruption = %v", r.Interruption)
	}
	if r.SignalingBytes() != 240 {
		t.Errorf("signaling = %d, want 240", r.SignalingBytes())
	}

	// A second handover for the same IMSI rolls the first into done.
	m.Begin("imsi-a", "ap2", "ap3")
	m.AddX2("imsi-a", 10)
	recs = m.Records()
	if len(recs) != 2 {
		t.Fatalf("records after second Begin = %d", len(recs))
	}
	if recs[0].Target != "ap2" || recs[1].Target != "ap3" {
		t.Errorf("record order wrong: %q then %q", recs[0].Target, recs[1].Target)
	}
	if recs[1].X2Bytes != 10 {
		t.Errorf("second record X2 = %d", recs[1].X2Bytes)
	}

	// Charges to unknown IMSIs are dropped, not panicking.
	m.AddX2("imsi-z", 5)
	m.AddNAS("imsi-z", 5)
	m.InterruptionStart("imsi-z", base)
	m.InterruptionEnd("imsi-z", base)
	if got := len(m.Records()); got != 2 {
		t.Fatalf("unknown-IMSI charges created records: %d", got)
	}
}

// TestHandleX2KeepsNoFrameBytes: the X2 agent hands the plane messages
// decoded in place (x2.Inbox), whose strings and bytes view the frame
// only for the call. After each frame is overwritten, the prepared
// table, a completed record and the publication handed to the core
// must still read as sent.
func TestHandleX2KeepsNoFrameBytes(t *testing.T) {
	p, _, core := newTestPlane("ap1")
	var in x2.Inbox
	deliver := func(peer string, m x2.Message) {
		t.Helper()
		frame, err := x2.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		msg, err := in.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !p.HandleX2(peer, msg) {
			t.Fatalf("%s not consumed", m.Type())
		}
		for i := range frame {
			frame[i] = 'X'
		}
	}
	const pushed, roamed = "001010000000009", "001010000000010"
	k, opc := bytes.Repeat([]byte{1}, 16), bytes.Repeat([]byte{2}, 16)
	deliver("ap2", &x2.UEContextPush{IMSI: pushed, K: k, OPc: opc})
	deliver("ap2", &x2.HandoverRequest{IMSI: pushed, SourceAP: "ap2", RSRPdBm: -9000})
	deliver("ap3", &x2.HandoverComplete{IMSI: roamed, TargetAP: "ap3"})

	if src, ok := p.PreparedBy(pushed); !ok || src != "ap2" {
		t.Errorf("PreparedBy(%s) = %q, %v; want ap2", pushed, src, ok)
	}
	if st := p.State(roamed); st != StateCompleted {
		t.Errorf("State(%s) = %v, want COMPLETED", roamed, st)
	}
	if len(core.pubs) != 1 {
		t.Fatalf("imports = %d, want 1", len(core.pubs))
	}
	if pub := core.pubs[0]; pub.IMSI != pushed || !bytes.Equal(pub.K, k) || !bytes.Equal(pub.OPc, opc) {
		t.Errorf("imported %s K %x OPc %x, want %s K %x OPc %x", pub.IMSI, pub.K, pub.OPc, pushed, k, opc)
	}
}
