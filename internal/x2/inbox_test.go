package x2

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dlte/internal/leaktest"
)

// TestX2ReceiveZeroAlloc: once an association has received a message
// type, each further frame of that type — accounting, in-place decode
// into the association's Inbox, dispatch to the handler — allocates
// nothing. The four handover types (context push, request, ack,
// complete) are an arc's hot path; every other type is held to the
// same rule.
func TestX2ReceiveZeroAlloc(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	var got MsgType
	a := NewAgent("ap1", PeerHello{}, func(_ string, msg Message) { got = msg.Type() })
	pc := &peerConn{id: "ap2"}
	var in Inbox
	for _, m := range allMessages() {
		frame, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		a.inbound(pc, &in, frame) // the association's first of this type
		if got != m.Type() {
			t.Fatalf("%s: handler saw %s", m.Type(), got)
		}
		if n := testing.AllocsPerRun(100, func() { a.inbound(pc, &in, frame) }); n != 0 {
			t.Errorf("%s: %.1f allocs per received message, want 0", m.Type(), n)
		}
	}
}

// TestInboxMatchesDecode: decoding in place accepts exactly what the
// copying Decode accepts, fails with the same error, and yields the
// same message. The inputs are every message type (whole, truncated,
// with a trailing byte), ShareUpdates that shrink from one frame to the
// next, random tails after every type octet, and the committed fuzz
// corpus. One Inbox decodes them all in turn, so anything a frame left
// in a scratch message that the next frame of its type does not
// overwrite would show.
func TestInboxMatchesDecode(t *testing.T) {
	var inputs [][]byte
	add := func(m Message) []byte {
		b, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, b)
		return b
	}
	for _, m := range allMessages() {
		b := add(m)
		inputs = append(inputs, b[:len(b)-1], append(bytes.Clone(b), 0))
	}
	for _, n := range []int{5, 2, 0, 3} {
		su := &ShareUpdate{}
		for i := 0; i < n; i++ {
			su.APIDs = append(su.APIDs, strings.Repeat("a", 4-i%2))
			su.Fractions = append(su.Fractions, uint16(1000*i+1))
		}
		add(su)
	}
	rng := rand.New(rand.NewSource(29))
	for typ := byte(TypePeerHello); typ <= byte(TypeRelayData); typ++ {
		for i := 0; i < 100; i++ {
			tail := make([]byte, rng.Intn(60))
			rng.Read(tail)
			inputs = append(inputs, append([]byte{typ}, tail...))
		}
	}
	inputs = append(inputs, fuzzCorpus(t)...)

	var in Inbox
	accepted := 0
	for _, b := range inputs {
		want, werr := Decode(b)
		got, gerr := in.Decode(bytes.Clone(b))
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("%x: Decode error %v, Inbox.Decode error %v", b, werr, gerr)
		}
		if werr != nil {
			continue
		}
		accepted++
		if got.Type() != want.Type() {
			t.Fatalf("%x: Decode gave %s, Inbox.Decode %s", b, want.Type(), got.Type())
		}
		// Both decoders are strict, so an accepted input is the unique
		// encoding of its message: equal messages re-marshal to it.
		for _, m := range []Message{want, got} {
			if round, err := Marshal(m); err != nil || !bytes.Equal(round, b) {
				t.Fatalf("%x: %T re-marshals to %x (%v)", b, m, round, err)
			}
		}
	}
	if accepted < len(allMessages())+4 {
		t.Errorf("only %d inputs decoded", accepted)
	}
}

// fuzzCorpus reads the committed FuzzDecode inputs (the go test fuzz
// v1 format: one []byte literal per file).
func fuzzCorpus(t *testing.T) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecode", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed corpus: %v", err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a one-value corpus file", f)
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		s, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, []byte(s))
	}
	return out
}
