package s1ap

import (
	"bytes"
	"testing"
)

// TestAppendDecodeAllocFree gates the signaling hot path's codec cost:
// appending any NAS-transport message into a caller-owned buffer and
// decoding it by view must not allocate, including the start/finish
// pair the EPC uses to build the S1AP envelope and NAS PDU in one
// pooled frame.
func TestAppendDecodeAllocFree(t *testing.T) {
	pdu := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	buf := make([]byte, 0, 256)
	var v MsgView

	if g := testing.AllocsPerRun(200, func() {
		out, err := Append(buf, &MsgView{Type: TypeUplinkNASTransport, ENBUEID: 7, MMEUEID: 9, NASPDU: pdu})
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeView(out, &v); err != nil {
			t.Fatal(err)
		}
	}); g > 0 {
		t.Errorf("uplink append+decode = %.1f allocs/op, want 0", g)
	}

	if g := testing.AllocsPerRun(200, func() {
		hdr, mark := StartDownlinkNASTransport(buf, 7, 9)
		hdr = append(hdr, pdu...)
		out, err := FinishNASTransport(hdr, mark)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeView(out, &v); err != nil {
			t.Fatal(err)
		}
	}); g > 0 {
		t.Errorf("start/finish+decode = %.1f allocs/op, want 0", g)
	}

	if g := testing.AllocsPerRun(200, func() {
		out, err := Append(buf, &MsgView{Type: TypeInitialUEMessage, ENBUEID: 7, NASPDU: pdu})
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeView(out, &v); err != nil {
			t.Fatal(err)
		}
	}); g > 0 {
		t.Errorf("initial-UE append+decode = %.1f allocs/op, want 0", g)
	}
}

// TestStartFinishMatchesAppend pins the fast path to the canonical
// encoder: building a DownlinkNASTransport via the start/finish pair
// must produce exactly the bytes Append produces.
func TestStartFinishMatchesAppend(t *testing.T) {
	pdu := []byte("nas-pdu-bytes")
	want, err := Append(nil, &MsgView{Type: TypeDownlinkNASTransport, ENBUEID: 3, MMEUEID: 4, NASPDU: pdu})
	if err != nil {
		t.Fatal(err)
	}
	hdr, mark := StartDownlinkNASTransport(nil, 3, 4)
	hdr = append(hdr, pdu...)
	got, err := FinishNASTransport(hdr, mark)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("start/finish = %x, append = %x", got, want)
	}

}

// BenchmarkS1APTransportCodec is the gated per-message codec cost of
// the NAS-transport fast path.
func BenchmarkS1APTransportCodec(b *testing.B) {
	pdu := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	buf := make([]byte, 0, 256)
	var v MsgView
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hdr, mark := StartDownlinkNASTransport(buf, 7, 9)
		hdr = append(hdr, pdu...)
		out, err := FinishNASTransport(hdr, mark)
		if err != nil {
			b.Fatal(err)
		}
		if err := DecodeView(out, &v); err != nil {
			b.Fatal(err)
		}
	}
}
