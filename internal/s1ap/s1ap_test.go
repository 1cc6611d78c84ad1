package s1ap

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dlte/internal/simnet"
)

func allMessages() []MsgView {
	return []MsgView{
		{Type: TypeS1SetupRequest, ENBID: 7, ENBName: []byte("silo-enb"), TAC: 42},
		{Type: TypeS1SetupResponse, MMEName: []byte("stub-mme"), ServedTAC: 42},
		{Type: TypeInitialUEMessage, ENBUEID: 1, NASPDU: []byte{1, 2, 3}},
		{Type: TypeDownlinkNASTransport, ENBUEID: 1, MMEUEID: 2, NASPDU: []byte{4}},
		{Type: TypeUplinkNASTransport, ENBUEID: 1, MMEUEID: 2, NASPDU: []byte{5, 6}},
		{Type: TypeInitialContextSetupRequest, ENBUEID: 1, MMEUEID: 2, SGWAddr: []byte("gw:2152"), SGWTEID: 9, UEAddr: []byte("10.45.0.2")},
		{Type: TypeInitialContextSetupResponse, ENBUEID: 1, MMEUEID: 2, ENBAddr: []byte("enb:2152"), ENBTEID: 11},
		{Type: TypeUEContextReleaseCommand, ENBUEID: 1, MMEUEID: 2, Cause: 3},
		{Type: TypeUEContextReleaseComplete, ENBUEID: 1, MMEUEID: 2},
		{Type: TypePathSwitchRequest, MMEUEID: 2, NewENBAddr: []byte("enb2:2152"), NewENBTEID: 17},
		{Type: TypePathSwitchAck, MMEUEID: 2},
	}
}

func TestCodecsRoundTrip(t *testing.T) {
	for _, m := range allMessages() {
		b, err := Append(nil, &m)
		if err != nil {
			t.Fatalf("%s: %v", m.Type, err)
		}
		var got MsgView
		if err := DecodeView(b, &got); err != nil {
			t.Fatalf("%s: decode: %v", m.Type, err)
		}
		if got.Type != m.Type {
			t.Errorf("%s decoded as %s", m.Type, got.Type)
		}
		b2, _ := Append(nil, &got)
		if string(b) != string(b2) {
			t.Errorf("%s: unstable round trip", m.Type)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	var v MsgView
	if err := DecodeView([]byte{99}, &v); !errors.Is(err, ErrUnknownMessage) {
		t.Errorf("unknown: %v", err)
	}
	if err := DecodeView([]byte{byte(TypeInitialUEMessage), 1}, &v); err == nil {
		t.Error("truncated message decoded")
	}
	if err := DecodeView(nil, &v); err == nil {
		t.Error("empty buffer decoded")
	}
	if _, err := Append(nil, &MsgView{Type: 99}); !errors.Is(err, ErrUnknownMessage) {
		t.Errorf("encode unknown: %v", err)
	}
}

func TestTypeNames(t *testing.T) {
	for _, m := range allMessages() {
		if strings.HasPrefix(m.Type.String(), "S1AP(") {
			t.Errorf("missing name for %d", m.Type)
		}
	}
	if MsgType(99).String() != "S1AP(99)" {
		t.Error("unknown type render")
	}
}

func TestConnOverSimnet(t *testing.T) {
	n := simnet.NewVirtualNetwork(simnet.Link{Latency: time.Millisecond}, 1)
	t.Cleanup(n.Close)
	enbHost := n.MustAddHost("enb")
	mmeHost := n.MustAddHost("mme")
	l, err := mmeHost.Listen(36412)
	if err != nil {
		t.Fatal(err)
	}

	clk := n.Clock()
	done := simnet.NewMailbox[error](clk.(*simnet.VirtualClock), 1)
	clk.Go(func() {
		c, err := l.Accept()
		if err != nil {
			done.Put(err)
			return
		}
		conn := NewConn(c)
		var req MsgView
		if err := conn.Recv(&req); err != nil {
			done.Put(err)
			return
		}
		if req.Type != TypeS1SetupRequest {
			done.Put(errors.New("wrong message type"))
			return
		}
		done.Put(conn.Send(&MsgView{Type: TypeS1SetupResponse, MMEName: []byte("mme-for-" + string(req.ENBName)), ServedTAC: req.TAC}))
	})

	raw, err := enbHost.Dial("mme:36412")
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(raw)
	if err := conn.Send(&MsgView{Type: TypeS1SetupRequest, ENBID: 1, ENBName: []byte("e1"), TAC: 7}); err != nil {
		t.Fatal(err)
	}
	var sr MsgView
	if err := conn.Recv(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Type != TypeS1SetupResponse || string(sr.MMEName) != "mme-for-e1" || sr.ServedTAC != 7 {
		t.Errorf("response = %+v", sr)
	}
	if err, _ := done.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestConnInterleavedNASTransport(t *testing.T) {
	n := simnet.NewVirtualNetwork(simnet.Link{}, 1)
	t.Cleanup(n.Close)
	a := n.MustAddHost("a")
	b := n.MustAddHost("b")
	l, _ := b.Listen(36412)
	clk := n.Clock()
	srvDone := simnet.NewMailbox[error](clk.(*simnet.VirtualClock), 1)
	clk.Go(func() {
		c, err := l.Accept()
		if err != nil {
			srvDone.Put(err)
			return
		}
		conn := NewConn(c)
		for i := 0; i < 10; i++ {
			var ul MsgView
			if err := conn.Recv(&ul); err != nil {
				srvDone.Put(err)
				return
			}
			if err := conn.Send(&MsgView{Type: TypeDownlinkNASTransport, ENBUEID: ul.ENBUEID, MMEUEID: 100 + ul.ENBUEID, NASPDU: ul.NASPDU}); err != nil {
				srvDone.Put(err)
				return
			}
		}
		srvDone.Put(nil)
	})
	raw, err := a.Dial("b:36412")
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(raw)
	for i := uint32(0); i < 10; i++ {
		if err := conn.Send(&MsgView{Type: TypeUplinkNASTransport, ENBUEID: i, MMEUEID: 0, NASPDU: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
		var dl MsgView
		if err := conn.Recv(&dl); err != nil {
			t.Fatal(err)
		}
		if dl.Type != TypeDownlinkNASTransport || dl.ENBUEID != i || dl.MMEUEID != 100+i || dl.NASPDU[0] != byte(i) {
			t.Fatalf("echo mismatch at %d: %+v", i, dl)
		}
	}
	if err, _ := srvDone.Wait(); err != nil {
		t.Fatal(err)
	}
}
