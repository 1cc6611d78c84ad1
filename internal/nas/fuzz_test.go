package nas

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestDecodeNeverPanics feeds random byte soup into the NAS decoder:
// a dLTE stub parses frames from unauthenticated radios, so the
// decoder must fail cleanly on anything.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %x: %v", b, r)
			}
		}()
		var v MsgView
		// Either a clean error or a decodable message that re-encodes.
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

// TestDecodeValidPrefixRandomTail prepends valid type octets to random
// tails, hitting every decoder arm.
func TestDecodeValidPrefixRandomTail(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for typ := byte(1); typ <= byte(TypeAuthenticationFailure); typ++ {
		for i := 0; i < 200; i++ {
			tail := make([]byte, rng.Intn(64))
			rng.Read(tail)
			buf := append([]byte{typ}, tail...)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("type %d panicked on %x: %v", typ, tail, r)
					}
				}()
				var v MsgView
				DecodeView(buf, &v)
			}()
		}
	}
}

// TestSecuredOpenNeverPanics exercises the security layer with
// attacker-shaped envelopes.
func TestSecuredOpenNeverPanics(t *testing.T) {
	var ctx SecurityContext
	ctx.Activate(make([]byte, 32))
	f := func(count uint32, mac, inner []byte) bool {
		defer func() { recover() }()
		ctx.OpenView(count, mac, inner)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// FuzzDecode is the coverage-guided companion to the quick checks
// above, run against the binary fixed-layout decoder. The invariant is
// stronger than "no panic": the decoder is strict (no trailing bytes,
// boolean octets must be 0 or 1), so any input it accepts is already
// the canonical serialization of the result — re-encoding the decoded
// view must reproduce the input byte for byte. That
// property is what closes the mis-parse class where two distinct byte
// strings decode to the same message (replay/dedup confusion on an
// open radio).
//
// Run the seeds with `go test`; explore with
// `go test -fuzz=FuzzDecode ./internal/nas`.
func FuzzDecode(f *testing.F) {
	seed := func(m MsgView) []byte {
		b, err := Append(nil, &m)
		if err != nil {
			panic(err)
		}
		return b
	}
	f.Add([]byte{})
	f.Add([]byte{byte(TypeAttachRequest)})
	f.Add([]byte{0xFF, 1, 2, 3})
	f.Add(seed(MsgView{Type: TypeAttachRequest, IMSI: []byte("001010000000001"), UECapabilities: []byte("cat4"), FollowOnData: true}))
	f.Add(seed(MsgView{Type: TypeAuthenticationRequest, RAND: make([]byte, 16), AUTN: make([]byte, 16)}))
	f.Add(seed(MsgView{Type: TypeAuthenticationResponse, RES: []byte{1, 2, 3, 4, 5, 6, 7, 8}}))
	f.Add(seed(MsgView{Type: TypeAuthenticationFailure, Cause: CauseSyncFailure, AUTS: make([]byte, 14)}))
	f.Add(seed(MsgView{Type: TypeAuthenticationReject, Cause: CauseAuthFailure}))
	f.Add(seed(MsgView{Type: TypeSecurityModeCommand, IntegrityAlg: 1, CipherAlg: 0}))
	f.Add(seed(MsgView{Type: TypeSecurityModeComplete}))
	f.Add(seed(MsgView{Type: TypeAttachAccept, GUTI: 0x1001, TrackingArea: 7, EBI: 5, PDNAddress: []byte("10.45.0.2"), DirectBreakout: true}))
	f.Add(seed(MsgView{Type: TypeAttachComplete}))
	f.Add(seed(MsgView{Type: TypeAttachReject, Cause: CauseIMSIUnknown}))
	f.Add(seed(MsgView{Type: TypeDetachRequest, GUTI: 0x1001}))
	f.Add(seed(MsgView{Type: TypeDetachAccept}))
	f.Add(seed(MsgView{Type: TypeTAURequest, GUTI: 0x1001, TrackingArea: 9}))
	f.Add(seed(MsgView{Type: TypeTAUAccept, TrackingArea: 9}))
	f.Add(seed(MsgView{Type: TypeTAUReject, Cause: CauseIllegalUE}))
	f.Add(seed(MsgView{Type: TypeSecured, Count: 3, MAC: [4]byte{1, 2, 3, 4}, Inner: []byte{5, 6}}))
	f.Add(append(seed(MsgView{Type: TypeAttachComplete}), 0xDE)) // trailing byte must be rejected
	f.Add([]byte{byte(TypeAttachRequest), 1, 'a', 0, 2})         // bool octet 2: non-canonical

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
