package wire

import "sync"

// encoderPoolCap bounds the buffer capacity retained by the encoder
// pool. Occasional giant frames (registry snapshot chunks) go back to
// the GC instead of pinning megabytes inside the pool.
const encoderPoolCap = 1 << 20

var encoderPool = sync.Pool{
	New: func() interface{} { return &Codec{buf: make([]byte, 0, 1024)} },
}

// GetEncoder returns an empty pooled encoding Codec. Hot encode paths
// (X2 send, registry round trips) use it to marshal without a
// per-message allocation: encode, hand Bytes() to FrameConn.Send
// (which copies into the stream), then release with PutEncoder.
func GetEncoder() *Codec {
	c := encoderPool.Get().(*Codec)
	c.Reset()
	return c
}

// PutEncoder recycles a Codec obtained from GetEncoder. The Codec and
// its Bytes() must not be used afterwards.
func PutEncoder(c *Codec) {
	if cap(c.buf) > encoderPoolCap {
		return
	}
	encoderPool.Put(c)
}
