package x2

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestDecodeNeverPanics: X2 peers are other administrative domains —
// the paper's whole point — so their bytes are untrusted by
// definition.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %x: %v", b, r)
			}
		}()
		msg, err := Decode(b)
		if err == nil && msg != nil {
			if _, merr := Marshal(msg); merr != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDecodeEveryTypeRandomTail hits each decoder arm with junk,
// including the variable-length ShareUpdate.
func TestDecodeEveryTypeRandomTail(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for typ := byte(TypePeerHello); typ <= byte(TypeRelayData); typ++ {
		for i := 0; i < 200; i++ {
			tail := make([]byte, rng.Intn(80))
			rng.Read(tail)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("type %d panicked: %v", typ, r)
					}
				}()
				Decode(append([]byte{typ}, tail...))
			}()
		}
	}
}

// TestShareUpdateRoundTripProperty checks the only variable-length X2
// codec against arbitrary valid inputs.
func TestShareUpdateRoundTripProperty(t *testing.T) {
	f := func(ids []string, fracs []uint16) bool {
		n := len(ids)
		if len(fracs) < n {
			n = len(fracs)
		}
		if n > 200 {
			n = 200
		}
		su := &ShareUpdate{}
		for i := 0; i < n; i++ {
			id := ids[i]
			if len(id) > 255 {
				id = id[:255]
			}
			su.APIDs = append(su.APIDs, id)
			su.Fractions = append(su.Fractions, fracs[i])
		}
		b, err := Marshal(su)
		if err != nil {
			return true // over-limit encodings may fail cleanly
		}
		got, err := Decode(b)
		if err != nil {
			return false
		}
		g := got.(*ShareUpdate)
		if len(g.APIDs) != len(su.APIDs) {
			return false
		}
		for i := range g.APIDs {
			if g.APIDs[i] != su.APIDs[i] || g.Fractions[i] != su.Fractions[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzDecode is the coverage-guided companion to the quick checks
// above. The invariant is the one the NAS, S1AP and registry fuzzers
// hold: the decoder is strict (no trailing bytes, boolean octets must
// be 0 or 1), so any input it accepts is already the canonical
// serialization of the result — re-marshaling the decoded message must
// reproduce the input byte for byte. X2 peers are other administrative
// domains, so two byte strings that decode to one message would be a
// mis-parse an attacker could use.
//
// Run the seeds with `go test`; explore with
// `go test -fuzz=FuzzDecode ./internal/x2`.
func FuzzDecode(f *testing.F) {
	seed := func(m Message) []byte {
		b, err := Marshal(m)
		if err != nil {
			panic(err)
		}
		return b
	}
	f.Add([]byte{})
	f.Add([]byte{byte(TypePeerHello)})
	f.Add([]byte{0xFF, 1, 2, 3})
	f.Add(seed(&PeerHello{APID: "ap1", X: 100, Y: -200, BandName: "LTE band 5 (850 MHz)", Mode: ModeFairShare}))
	f.Add(seed(&PeerHelloAck{APID: "ap2", Mode: ModeCooperative}))
	f.Add(seed(&LoadInformation{APID: "ap1", AttachedUEs: 12, PRBUtilization: 700, DemandBps: 50_000_000}))
	f.Add(seed(&HandoverRequest{IMSI: "001010000000001", SourceAP: "ap1", RSRPdBm: -95}))
	f.Add(seed(&HandoverRequestAck{IMSI: "001010000000001", Accepted: true}))
	f.Add(seed(&HandoverComplete{IMSI: "001010000000001", TargetAP: "ap2"}))
	f.Add(seed(&ModeProposal{APID: "ap1", Mode: ModeCooperative}))
	f.Add(seed(&ModeResponse{APID: "ap2", Mode: ModeCooperative, Accepted: true}))
	f.Add(seed(&ShareUpdate{APIDs: []string{"ap1", "ap2"}, Fractions: []uint16{5000, 5000}}))
	f.Add(seed(&UEContextPush{IMSI: "001010000000001", K: make([]byte, 16), OPc: make([]byte, 16)}))
	f.Add(seed(&RelayRequest{APID: "ap3", NeededBps: 1_000_000}))
	f.Add(seed(&RelayResponse{APID: "ap1", Granted: true, GrantedBps: 500_000}))
	f.Add(seed(&RelayData{FlowID: 7, Payload: []byte("datagram")}))
	f.Add(append(seed(&PeerHello{APID: "ap1"}), 0xDE, 0xAD)) // trailing junk must be rejected

	f.Fuzz(func(t *testing.T, b []byte) {
		msg, err := Decode(b)
		if err != nil {
			return
		}
		// NaN coordinates (legal on the wire) keep their bits, so the
		// bytes compare even where the floats would not.
		round, err := Marshal(msg)
		if err != nil {
			t.Fatalf("accepted message does not re-marshal: %v", err)
		}
		if !bytes.Equal(b, round) {
			t.Fatalf("accepted a non-canonical encoding:\n  in  %x\n  out %x", b, round)
		}
	})
}
