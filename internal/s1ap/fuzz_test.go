package s1ap

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestDecodeNeverPanics: S1AP frames arrive over the backhaul; the
// decoder must fail cleanly on arbitrary input.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %x: %v", b, r)
			}
		}()
		var v MsgView
		if err := DecodeView(b, &v); err == nil {
			if _, merr := Append(nil, &v); merr != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDecodeEveryTypeRandomTail hits each decoder arm with junk.
func TestDecodeEveryTypeRandomTail(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for typ := byte(TypeS1SetupRequest); typ <= byte(TypePathSwitchAck); typ++ {
		for i := 0; i < 200; i++ {
			tail := make([]byte, rng.Intn(64))
			rng.Read(tail)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("type %d panicked: %v", typ, r)
					}
				}()
				var v MsgView
				DecodeView(append([]byte{typ}, tail...), &v)
			}()
		}
	}
}

// FuzzDecode is the coverage-guided companion to the quick checks
// above, run against the binary fixed-layout decoder. Like the NAS
// fuzzer, the invariant is canonicality: the strict decoder rejects
// trailing bytes, so any accepted input must re-encode byte-identical
// from the decoded view.
//
// Run the seeds with `go test`; explore with
// `go test -fuzz=FuzzDecode ./internal/s1ap`.
func FuzzDecode(f *testing.F) {
	seed := func(m MsgView) []byte {
		b, err := Append(nil, &m)
		if err != nil {
			panic(err)
		}
		return b
	}
	f.Add([]byte{})
	f.Add([]byte{byte(TypeS1SetupRequest)})
	f.Add([]byte{0xFF, 1, 2, 3})
	f.Add(seed(MsgView{Type: TypeS1SetupRequest, ENBID: 42, ENBName: []byte("enb-ap1"), TAC: 7}))
	f.Add(seed(MsgView{Type: TypeS1SetupResponse, MMEName: []byte("mme"), ServedTAC: 7, SNID: []byte("dlte-ap1")}))
	f.Add(seed(MsgView{Type: TypeInitialUEMessage, ENBUEID: 1, NASPDU: []byte{1, 2, 3}}))
	f.Add(seed(MsgView{Type: TypeDownlinkNASTransport, ENBUEID: 1, MMEUEID: 2, NASPDU: []byte{9}}))
	f.Add(seed(MsgView{Type: TypeUplinkNASTransport, ENBUEID: 1, MMEUEID: 2, NASPDU: []byte{8, 8}}))
	f.Add(seed(MsgView{Type: TypeInitialContextSetupRequest, ENBUEID: 1, MMEUEID: 2, SGWAddr: []byte("gw:2152"), SGWTEID: 9, UEAddr: []byte("10.45.0.2")}))
	f.Add(seed(MsgView{Type: TypeInitialContextSetupResponse, ENBUEID: 1, MMEUEID: 2, ENBAddr: []byte("ap1:2153"), ENBTEID: 4}))
	f.Add(seed(MsgView{Type: TypeUEContextReleaseCommand, ENBUEID: 1, MMEUEID: 2, Cause: 3}))
	f.Add(seed(MsgView{Type: TypeUEContextReleaseComplete, ENBUEID: 1, MMEUEID: 2}))
	f.Add(seed(MsgView{Type: TypeUEContextReleaseRequest, ENBUEID: 1, MMEUEID: 2, Cause: 1}))
	f.Add(seed(MsgView{Type: TypePathSwitchRequest, MMEUEID: 2, NewENBAddr: []byte("ap2:2153"), NewENBTEID: 5}))
	f.Add(seed(MsgView{Type: TypePathSwitchAck, MMEUEID: 2}))
	f.Add(append(seed(MsgView{Type: TypePathSwitchAck, MMEUEID: 2}), 0xDE)) // trailing byte must be rejected

	f.Fuzz(func(t *testing.T, b []byte) {
		var v MsgView
		if err := DecodeView(b, &v); err != nil {
			return
		}
		round, err := Append(nil, &v)
		if err != nil {
			t.Fatalf("accepted input does not re-marshal: %v", err)
		}
		if !bytes.Equal(b, round) {
			t.Fatalf("accepted a non-canonical encoding:\n  in  %x\n  out %x", b, round)
		}
	})
}
