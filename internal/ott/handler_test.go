package ott

import (
	"bytes"
	"net"
	"runtime"
	"testing"
	"time"

	"dlte/internal/leaktest"
	"dlte/internal/simnet"
)

// TestEchoRoundTripZeroAlloc gates the handler-mode echo at steady
// state: request delivery, the echo handler, the reply's delivery and
// the client's parked wait allocate nothing.
func TestEchoRoundTripZeroAlloc(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	n := newNet(t)
	e, err := NewEchoServer(n.MustAddHost("srv"), 9000)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	pc, _ := n.MustAddHost("cli").ListenPacket(0)
	replies := simnet.NewMailbox[int](n.Clock().(*simnet.VirtualClock), 8)
	pc.SetHandler(func(data []byte, _ net.Addr) { replies.Put(len(data)) })

	payload := make([]byte, 512)
	var dst net.Addr = simnet.Addr{Host: "srv", Port: 9000}
	roundTrip := func() {
		pc.WriteTo(payload, dst)
		if got, err := replies.Recv(time.Second); err != nil || got != len(payload) {
			t.Fatalf("echo = %d bytes, %v", got, err)
		}
	}
	for i := 0; i < 64; i++ {
		roundTrip() // warm the payload pool and the dispatcher's slab
	}
	if got := testing.AllocsPerRun(500, roundTrip); got != 0 {
		t.Errorf("echo round trip allocates %v times, want 0", got)
	}
	if e.Count() != 64+501 {
		t.Errorf("Count = %d, want %d", e.Count(), 64+501)
	}
}

// TestIdleEchoWorldHasNoTimers: a world that only holds OTT servers has
// nothing scheduled on its clock — the 200 ms read-deadline poll the
// servers used to run is gone, so an idle world stays idle.
func TestIdleEchoWorldHasNoTimers(t *testing.T) {
	n := newNet(t)
	e, err := NewEchoServer(n.MustAddHost("srv"), 9000)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	r, err := NewRelay(n.MustAddHost("relay"), 9100)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	vc := n.Clock().(*simnet.VirtualClock)
	vc.Sleep(time.Second)
	if got := vc.Pending(); got != 0 {
		t.Errorf("idle world holds %d scheduled wakeups, want 0", got)
	}
	if parks := n.ExecStats().GoroutineParks; parks != 1 {
		t.Errorf("idle second cost %d goroutine parks, want only the test's own sleep", parks)
	}
}

// TestServersRunOnNoGoroutine: starting, using and closing the servers
// leaves the goroutine population where it was (the package-level leak
// audit in TestMain catches stragglers; this pins the stronger claim
// that there is nothing to straggle).
func TestServersRunOnNoGoroutine(t *testing.T) {
	n := newNet(t)
	srv, cli := n.MustAddHost("srv"), n.MustAddHost("cli")
	pc, _ := cli.ListenPacket(0)
	pc.WriteToHost(RegisterFrame("cli"), "srv", 9100) // buffered until the relay exists
	n.Clock().Sleep(10 * time.Millisecond)

	before := runtime.NumGoroutine()
	e, err := NewEchoServer(srv, 9000)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRelay(srv, 9100)
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("servers started %d goroutines", got-before)
	}
	pc.WriteToHost([]byte("ping"), "srv", 9000)
	if got, err := recv(pc, time.Second); err != nil || string(got) != "ping" {
		t.Fatalf("echo = %q, %v", got, err)
	}
	pc.WriteToHost(RegisterFrame("cli"), "srv", 9100)
	pc.WriteToHost(SendFrame("cli", []byte("to myself")), "srv", 9100)
	got, err := recv(pc, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if box, payload, err := ParseDelivery(got); err != nil || box != "cli" || !bytes.Equal(payload, []byte("to myself")) {
		t.Fatalf("delivery = %q %q %v", box, payload, err)
	}
	e.Close()
	r.Close()
	e.Close() // idempotent
	r.Close()
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines outlive Close", got-before)
	}
	// Closed servers answer nothing.
	pc.WriteToHost([]byte("ping"), "srv", 9000)
	if _, err := recv(pc, 50*time.Millisecond); err == nil {
		t.Error("closed echo server replied")
	}
}

// TestRelayRejectsMalformedFrames: runt and truncated frames are
// ignored, never indexed past their end.
func TestRelayRejectsMalformedFrames(t *testing.T) {
	n := newNet(t)
	r, err := NewRelay(n.MustAddHost("relay"), 9100)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	pc, _ := n.MustAddHost("cli").ListenPacket(0)
	for _, frame := range [][]byte{{}, {'R'}, {'R', 5, 'a', 'b'}, {'S', 200}, {'X', 1, 'a'}} {
		pc.WriteToHost(frame, "relay", 9100)
	}
	n.Clock().Sleep(50 * time.Millisecond)
	for _, name := range []string{"", "ab", "a"} {
		if _, ok := r.Registered(name); ok {
			t.Errorf("malformed frame registered mailbox %q", name)
		}
	}
}
