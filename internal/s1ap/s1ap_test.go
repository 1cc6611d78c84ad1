package s1ap

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dlte/internal/simnet"
)

func allMessages() []Message {
	return []Message{
		&S1SetupRequest{ENBID: 7, ENBName: "silo-enb", TAC: 42},
		&S1SetupResponse{MMEName: "stub-mme", ServedTAC: 42},
		&InitialUEMessage{ENBUEID: 1, NASPDU: []byte{1, 2, 3}},
		&DownlinkNASTransport{ENBUEID: 1, MMEUEID: 2, NASPDU: []byte{4}},
		&UplinkNASTransport{ENBUEID: 1, MMEUEID: 2, NASPDU: []byte{5, 6}},
		&InitialContextSetupRequest{ENBUEID: 1, MMEUEID: 2, SGWAddr: "gw:2152", SGWTEID: 9, UEAddr: "10.45.0.2"},
		&InitialContextSetupResponse{ENBUEID: 1, MMEUEID: 2, ENBAddr: "enb:2152", ENBTEID: 11},
		&UEContextReleaseCommand{ENBUEID: 1, MMEUEID: 2, Cause: 3},
		&UEContextReleaseComplete{ENBUEID: 1, MMEUEID: 2},
		&PathSwitchRequest{MMEUEID: 2, NewENBAddr: "enb2:2152", NewENBTEID: 17},
		&PathSwitchAck{MMEUEID: 2},
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
	if _, err := Decode([]byte{99}); !errors.Is(err, ErrUnknownMessage) {
		t.Errorf("unknown: %v", err)
	}
	if _, err := Decode([]byte{byte(TypeInitialUEMessage), 1}); err == nil {
		t.Error("truncated message decoded")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("empty buffer decoded")
	}
}

func TestTypeNames(t *testing.T) {
	for _, m := range allMessages() {
		if strings.HasPrefix(m.Type().String(), "S1AP(") {
			t.Errorf("missing name for %d", m.Type())
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
		msg, err := conn.Recv()
		if err != nil {
			done.Put(err)
			return
		}
		req, ok := msg.(*S1SetupRequest)
		if !ok {
			done.Put(errors.New("wrong message type"))
			return
		}
		done.Put(conn.Send(&S1SetupResponse{MMEName: "mme-for-" + req.ENBName, ServedTAC: req.TAC}))
	})

	raw, err := enbHost.Dial("mme:36412")
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(raw)
	if err := conn.Send(&S1SetupRequest{ENBID: 1, ENBName: "e1", TAC: 7}); err != nil {
		t.Fatal(err)
	}
	resp, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	sr, ok := resp.(*S1SetupResponse)
	if !ok || sr.MMEName != "mme-for-e1" || sr.ServedTAC != 7 {
		t.Errorf("response = %+v", resp)
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
			m, err := conn.Recv()
			if err != nil {
				srvDone.Put(err)
				return
			}
			ul := m.(*UplinkNASTransport)
			if err := conn.Send(&DownlinkNASTransport{ENBUEID: ul.ENBUEID, MMEUEID: 100 + ul.ENBUEID, NASPDU: ul.NASPDU}); err != nil {
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
		if err := conn.Send(&UplinkNASTransport{ENBUEID: i, MMEUEID: 0, NASPDU: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
		m, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		dl := m.(*DownlinkNASTransport)
		if dl.ENBUEID != i || dl.MMEUEID != 100+i || dl.NASPDU[0] != byte(i) {
			t.Fatalf("echo mismatch at %d: %+v", i, dl)
		}
	}
	if err, _ := srvDone.Wait(); err != nil {
		t.Fatal(err)
	}
}
