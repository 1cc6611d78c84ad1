package epc

import (
	"testing"

	"dlte/internal/s1ap"
)

// TestENBAddrCache drives the InitialContextSetupResponse case of
// Core.serve with the eNodeB address in a buffer the test owns. The
// association caches the parsed address by its bytes: scribbling over
// the frame after the handler returns moves neither the cache nor the
// downlink bind, a repeat costs no parse, another address is parsed
// and bound, and a malformed one fails every time and changes nothing.
func TestENBAddrCache(t *testing.T) {
	c := newHotpathCore(t)
	const imsi = "001010000000777"
	if _, _, err := c.gw.CreateSession(imsi); err != nil {
		t.Fatal(err)
	}
	ec := &enbConn{c: c, sessions: make(map[uint32]*ueSession)}
	ec.cur = &ueSession{imsi: imsi}
	serve := func(addr []byte, teid uint32) error {
		ec.v = s1ap.MsgView{Type: s1ap.TypeInitialContextSetupResponse, ENBUEID: 1, MMEUEID: 1, ENBAddr: addr, ENBTEID: teid}
		return c.serve(ec)
	}
	bound := func() (string, uint32) {
		c.gw.mu.Lock()
		b := c.gw.sessions[imsi].bind.Load()
		c.gw.mu.Unlock()
		return b.addr.String(), b.teid
	}
	expect := func(addr string, teid uint32) {
		t.Helper()
		if a, id := bound(); a != addr || id != teid {
			t.Fatalf("downlink bound to %s TEID %d, want %s TEID %d", a, id, addr, teid)
		}
	}

	frame := []byte("enb1:2153")
	if err := serve(frame, 10); err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 'x'
	}
	expect("enb1:2153", 10)
	// A hit allocates only the bind record and the tunnel's state; a
	// parse would add the address string and its box.
	same := []byte("enb1:2153")
	if n := testing.AllocsPerRun(50, func() {
		if err := serve(same, 11); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("serving a repeated address allocates %v times, want at most 2", n)
	}
	expect("enb1:2153", 11)

	if err := serve([]byte("enb2:2153"), 12); err != nil {
		t.Fatal(err)
	}
	expect("enb2:2153", 12)
	for i := 0; i < 3; i++ {
		if err := serve([]byte("enb2"), 13); err == nil {
			t.Fatal("a malformed eNodeB address was accepted")
		}
		expect("enb2:2153", 12)
	}
	if a, err := ec.enbAddr.Parse([]byte("enb2:2153")); err != nil || a.String() != "enb2:2153" {
		t.Errorf("cache after malformed input: %v, %v", a, err)
	}
}
