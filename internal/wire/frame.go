package wire

import (
	"fmt"
	"io"
	"sync"
)

// MaxFrameSize bounds a single length-prefixed frame. Control-plane
// messages in dLTE are small; the bound protects stream peers from
// hostile or corrupted length prefixes.
const MaxFrameSize = 1 << 20

// frameClassBytes is the pooled frame-scratch size: covers every
// air-interface and control-plane frame the stacks exchange; larger
// frames fall back to the garbage collector.
const frameClassBytes = 4096

var framePool = sync.Pool{
	New: func() interface{} { return new([frameClassBytes]byte) },
}

// WriteFrame writes a uint32 length prefix followed by payload to w.
// It is safe for one concurrent writer per stream; callers multiplexing
// a stream should use a FrameConn.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: frame length %d", ErrOverflow, len(payload))
	}
	// Single Write call keeps the frame atomic when the underlying
	// writer serializes writes (as net.Conn does). The scratch holding
	// prefix+payload together is pooled: the stream owns its own copy
	// by the time Write returns (simnet copies; net.Conn kernels copy).
	total := 4 + len(payload)
	var buf []byte
	var pooled *[frameClassBytes]byte
	if total <= frameClassBytes {
		pooled = framePool.Get().(*[frameClassBytes]byte)
		buf = pooled[:total]
	} else {
		buf = make([]byte, total)
	}
	buf[0] = byte(len(payload) >> 24)
	buf[1] = byte(len(payload) >> 16)
	buf[2] = byte(len(payload) >> 8)
	buf[3] = byte(len(payload))
	copy(buf[4:], payload)
	_, err := w.Write(buf)
	if pooled != nil {
		framePool.Put(pooled)
	}
	return err
}

// GetFrame returns an empty pooled buffer for frame assembly: append
// the frame content into it, hand it to Send (which copies), then
// release it with PutFrame.
func GetFrame() []byte { return framePool.Get().(*[frameClassBytes]byte)[:0] }

// FrameHeadroom is the size of the length prefix a framed stream puts
// before every frame.
const FrameHeadroom = 4

// GetFramed is GetFrame with FrameHeadroom bytes already reserved:
// append the frame content behind them and hand the buffer to
// SendFramed, which fills the prefix in and writes the buffer as is.
func GetFramed() []byte { return framePool.Get().(*[frameClassBytes]byte)[:FrameHeadroom] }

// PutFrame recycles a buffer from GetFrame, GetFramed or RecvOwned.
// Buffers grown past the pooled class (recognizable by capacity) go to
// the GC; the exact-capacity check also keeps foreign slices out of the
// pool.
func PutFrame(b []byte) {
	if cap(b) != frameClassBytes {
		return
	}
	framePool.Put((*[frameClassBytes]byte)(b[:frameClassBytes]))
}

// ReadFrame reads one length-prefixed frame from r into a fresh
// heap-owned buffer.
func ReadFrame(r io.Reader) ([]byte, error) {
	b, err := ReadFrameOwned(r)
	if err != nil {
		return nil, err
	}
	return DetachFrame(b), nil
}

// DetachFrame turns a frame from ReadFrameOwned into heap memory its
// caller may keep: a pooled frame is copied out and its buffer goes
// back to the pool; an oversize frame is exact-fit heap memory already
// and is returned as is.
func DetachFrame(b []byte) []byte {
	if cap(b) != frameClassBytes {
		return b
	}
	out := append([]byte(nil), b...)
	PutFrame(b)
	return out
}

// FrameAdopter is implemented by a stream that delivers each write as
// one chunk of its own heap memory (simnet.Conn). ReadFrameOwned calls
// AdoptFrame(n) right after reading the length prefix of a frame over
// the pooled class. If that prefix began the chunk the stream is
// reading and exactly n bytes of the chunk remain, the stream hands
// those bytes over and returns them: the reader owns them from then on
// and the stream never touches them again. Otherwise it returns nil
// and the reader copies the frame out as usual.
type FrameAdopter interface {
	AdoptFrame(n int) []byte
}

// ReadFrameOwned is ReadFrame into a pooled buffer owned by the
// caller, who must release it with PutFrame once the bytes are
// consumed. Hot receive loops use it to avoid a per-frame allocation.
// The length prefix is read into the pooled buffer too: a stack header
// array would escape through the io.Reader interface and cost a tiny
// heap allocation per frame.
//
// A frame over the pooled class is exact-fit heap memory PutFrame
// drops. When r is a FrameAdopter holding the frame as one written
// chunk, that chunk is the frame: the stream's copy of the write is
// the only allocation and the only copy the frame costs in flight.
func ReadFrameOwned(r io.Reader) ([]byte, error) {
	pooled := framePool.Get().(*[frameClassBytes]byte)
	if _, err := io.ReadFull(r, pooled[:4]); err != nil {
		framePool.Put(pooled)
		return nil, err
	}
	n := int(pooled[0])<<24 | int(pooled[1])<<16 | int(pooled[2])<<8 | int(pooled[3])
	if n > MaxFrameSize {
		framePool.Put(pooled)
		return nil, fmt.Errorf("%w: frame length %d", ErrOverflow, n)
	}
	var payload []byte
	if n <= frameClassBytes {
		payload = pooled[:n]
	} else {
		framePool.Put(pooled)
		if a, ok := r.(FrameAdopter); ok {
			if b := a.AdoptFrame(n); b != nil {
				return b, nil
			}
		}
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		PutFrame(payload)
		return nil, err
	}
	return payload, nil
}

// FrameConn wraps an io.ReadWriter with framed, mutex-serialized message
// exchange. Protocol packages (S1AP, X2, registry) layer their message
// codecs on top of it.
type FrameConn struct {
	rw io.ReadWriter

	writeMu sync.Mutex
	readMu  sync.Mutex
}

// NewFrameConn wraps rw.
func NewFrameConn(rw io.ReadWriter) *FrameConn { return &FrameConn{rw: rw} }

// Send writes one frame. Safe for concurrent use.
func (c *FrameConn) Send(payload []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return WriteFrame(c.rw, payload)
}

// SendFramed writes one frame assembled behind FrameHeadroom bytes of
// headroom (GetFramed). The prefix is patched into the headroom and the
// buffer goes to the stream in one Write, so the frame is copied once —
// by the stream — where Send copies it into a prefixed scratch first.
// The buffer stays the caller's. Safe for concurrent use.
func (c *FrameConn) SendFramed(buf []byte) error {
	n := len(buf) - FrameHeadroom
	if n < 0 || n > MaxFrameSize {
		return fmt.Errorf("%w: frame length %d", ErrOverflow, n)
	}
	buf[0], buf[1], buf[2], buf[3] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	_, err := c.rw.Write(buf)
	return err
}

// Recv reads one frame. Safe for concurrent use, though protocols here
// use a single reader goroutine.
func (c *FrameConn) Recv() ([]byte, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	return ReadFrame(c.rw)
}

// RecvOwned reads one frame into a pooled buffer the caller releases
// with PutFrame after consuming it (and any views into it).
func (c *FrameConn) RecvOwned() ([]byte, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	return ReadFrameOwned(c.rw)
}
