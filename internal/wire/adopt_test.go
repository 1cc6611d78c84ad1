package wire_test

import (
	"bytes"
	"io"
	"net"
	"runtime/debug"
	"testing"
	"time"

	"dlte/internal/leaktest"
	"dlte/internal/simnet"
	"dlte/internal/wire"
)

// adoptSizes straddle the pooled frame class: with its prefix a
// 4 092-byte payload fills simnet's 4 KiB payload class exactly,
// 4 096 is the largest pooled frame and 4 097 the smallest oversize
// one.
var adoptSizes = []int{64, 4092, wire.FrameClassBytes, wire.FrameClassBytes + 1, 64 << 10, wire.MaxFrameSize}

// countingAdopter is a simnet conn that counts the frames it hands
// over to ReadFrameOwned.
type countingAdopter struct {
	*simnet.Conn
	adopted int
}

func (c *countingAdopter) AdoptFrame(n int) []byte {
	b := c.Conn.AdoptFrame(n)
	if b != nil {
		c.adopted++
	}
	return b
}

// streamPair dials one simnet stream on a fresh virtual network.
func streamPair(t *testing.T) (cli, srv *simnet.Conn) {
	t.Helper()
	n := simnet.NewVirtualNetwork(simnet.Link{Latency: time.Millisecond}, 1)
	t.Cleanup(n.Close)
	a, b := n.MustAddHost("a"), n.MustAddHost("b")
	l, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return c.(*simnet.Conn), s.(*simnet.Conn)
}

func payloadOf(size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

// framed is payload behind FrameHeadroom bytes, for SendFramed.
func framed(payload []byte) []byte {
	return append(make([]byte, wire.FrameHeadroom, wire.FrameHeadroom+len(payload)), payload...)
}

// scribble overwrites a buffer the way a writer reusing it would.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xEE
	}
}

// TestReadFrameOwnedAdoptsSimnetChunks: a frame over the pooled class
// written whole (SendFramed puts prefix and payload in one Write)
// reads back as the simnet chunk that Write copied into, and a pooled
// frame reads into the frame pool as before. Every frame is
// byte-identical to what was sent, though the writer scribbles over
// its buffer as soon as each Write returns.
func TestReadFrameOwnedAdoptsSimnetChunks(t *testing.T) {
	cli, srv := streamPair(t)
	out, in := wire.NewFrameConn(cli), &countingAdopter{Conn: srv}
	for _, size := range adoptSizes {
		want := payloadOf(size)
		buf := framed(want)
		if err := out.SendFramed(buf); err != nil {
			t.Fatal(err)
		}
		scribble(buf)
		before := in.adopted
		got, err := wire.ReadFrameOwned(in)
		if err != nil {
			t.Fatalf("%d-byte frame: %v", size, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%d-byte frame read back different bytes", size)
		}
		over := size > wire.FrameClassBytes
		if adopted := in.adopted > before; adopted != over {
			t.Errorf("%d-byte frame: adopted %v, want %v", size, adopted, over)
		}
		if !over && cap(got) != wire.FrameClassBytes {
			t.Errorf("%d-byte frame: cap %d, want a pooled frame (%d)", size, cap(got), wire.FrameClassBytes)
		}
		if over && cap(got) != size {
			t.Errorf("%d-byte frame: cap %d, want exact fit", size, cap(got))
		}
		wire.PutFrame(got)
	}
}

// ledFrame is the frame of payload behind three bytes of its own, for
// one Write whose chunk a plain Read starts on.
func ledFrame(t *testing.T, payload []byte) []byte {
	t.Helper()
	b := bytes.NewBufferString("abc")
	if err := wire.WriteFrame(b, payload); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestReadFrameOwnedCopiesPartlyReadChunks: a chunk whose first bytes
// a plain Read took before the frame's prefix is not handed over; the
// frame is copied out as before, byte-identical.
func TestReadFrameOwnedCopiesPartlyReadChunks(t *testing.T) {
	cli, srv := streamPair(t)
	in := &countingAdopter{Conn: srv}
	for _, size := range adoptSizes {
		want := payloadOf(size)
		if _, err := cli.Write(ledFrame(t, want)); err != nil {
			t.Fatal(err)
		}
		lead := make([]byte, 3)
		if _, err := io.ReadFull(in, lead); err != nil || string(lead) != "abc" {
			t.Fatalf("lead = %q, %v", lead, err)
		}
		got, err := wire.ReadFrameOwned(in)
		if err != nil {
			t.Fatalf("%d-byte frame: %v", size, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%d-byte frame read back different bytes", size)
		}
		wire.PutFrame(got)
	}
	if in.adopted != 0 {
		t.Errorf("%d frames of partly read chunks adopted, want 0", in.adopted)
	}
}

// TestReadFrameOwnedOverPipe: a conn that is no FrameAdopter (net.Pipe,
// like a TCP conn) reads every frame size as before.
func TestReadFrameOwnedOverPipe(t *testing.T) {
	w, r := net.Pipe()
	defer r.Close()
	if _, ok := r.(wire.FrameAdopter); ok {
		t.Fatal("net.Pipe conn is a FrameAdopter")
	}
	done := make(chan error, 1)
	go func() {
		defer w.Close()
		for _, size := range adoptSizes {
			if err := wire.WriteFrame(w, payloadOf(size)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for _, size := range adoptSizes {
		got, err := wire.ReadFrameOwned(r)
		if err != nil {
			t.Fatalf("%d-byte frame: %v", size, err)
		}
		if !bytes.Equal(got, payloadOf(size)) {
			t.Errorf("%d-byte frame read back different bytes", size)
		}
		if want := wire.FrameClassBytes; size > want {
			want = size
			if cap(got) != want {
				t.Errorf("%d-byte frame: cap %d, want %d", size, cap(got), want)
			}
		} else if cap(got) != want {
			t.Errorf("%d-byte frame: cap %d, want %d", size, cap(got), want)
		}
		wire.PutFrame(got)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestAdoptedFrameAllocs prices a frame end to end over simnet, write
// to read: the stream's copy of the write is the one allocation of a
// frame over the pooled class, and a chunk that fits simnet's payload
// class costs none. A partly read chunk still costs the reader's copy.
func TestAdoptedFrameAllocs(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector; pooled paths allocate by design")
	}
	cli, srv := streamPair(t)
	out := wire.NewFrameConn(cli)
	// A collection would empty the pools mid-count; the frames here
	// allocate a few MB, so the count runs without one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, size := range adoptSizes {
		buf := framed(payloadOf(size))
		allocs := testing.AllocsPerRun(5, func() {
			if err := out.SendFramed(buf); err != nil {
				t.Fatal(err)
			}
			got, err := wire.ReadFrameOwned(srv)
			if err != nil || len(got) != size {
				t.Fatalf("%d-byte frame: %d bytes, %v", size, len(got), err)
			}
			wire.PutFrame(got)
		})
		want := 0.0
		if wire.FrameHeadroom+size > wire.FrameClassBytes {
			want = 1 // the chunk is heap memory; an oversize frame is that chunk
		}
		if allocs != want {
			t.Errorf("%d-byte frame: %.1f allocs write to read, want %.0f", size, allocs, want)
		}
	}
	led, lead := ledFrame(t, payloadOf(64<<10)), make([]byte, 3)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := cli.Write(led); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(srv, lead); err != nil {
			t.Fatal(err)
		}
		got, err := wire.ReadFrameOwned(srv)
		if err != nil || len(got) != 64<<10 {
			t.Fatalf("partly read chunk: %d bytes, %v", len(got), err)
		}
	})
	if allocs != 2 {
		t.Errorf("partly read 64 KiB chunk: %.1f allocs write to read, want 2 (the chunk and the reader's copy)", allocs)
	}
}
