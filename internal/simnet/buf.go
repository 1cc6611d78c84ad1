package simnet

import "sync"

// payloadClassBytes is the pooled payload buffer size. One class covers
// every datagram the MTU admits and the stream chunks the protocol
// stacks write; oversized writes fall back to the garbage collector.
const payloadClassBytes = 4096

// payloadPool recycles the per-delivery payload copies made on the
// simnet hot path (Conn.Write, PacketConn.WriteTo). Copy semantics at
// the API boundary are unchanged — callers may reuse their buffers the
// moment a write returns, and readers receive copies — but the interior
// copy now comes from this pool and is returned on the final read
// instead of burning an allocation per delivery.
var payloadPool = sync.Pool{
	New: func() interface{} { return new([payloadClassBytes]byte) },
}

// payloadGet returns a length-n buffer, pooled when n fits the class.
func payloadGet(n int) []byte {
	if n > payloadClassBytes {
		return make([]byte, n)
	}
	return payloadPool.Get().(*[payloadClassBytes]byte)[:n:payloadClassBytes]
}

// payloadClone returns a copy of b in a buffer payloadPut accepts:
// pooled when len(b) fits the class, else exact-fit heap memory.
// Oversize memory is not zeroed before the copy overwrites it, as
// payloadGet's make would do.
func payloadClone(b []byte) []byte {
	if len(b) > payloadClassBytes {
		return append([]byte(nil), b...)[:len(b):len(b)]
	}
	data := payloadGet(len(b))
	copy(data, b)
	return data
}

// payloadPut recycles a buffer obtained from payloadGet. Buffers from
// the oversize fallback (recognizable by capacity) go to the GC; the
// full-capacity check also means a subslice can never be recycled by
// accident while its backing array is still referenced elsewhere.
func payloadPut(b []byte) {
	if cap(b) != payloadClassBytes {
		return
	}
	payloadPool.Put((*[payloadClassBytes]byte)(b[:payloadClassBytes]))
}

// GetPayload returns a length-n buffer from the shared payload pool —
// the same class the simnet hot path recycles. Protocol layers above
// simnet (GTP-U encap, user-packet framing) draw their per-packet
// scratch from here so a buffer can travel down the stack and be
// recycled wherever it ends its life. Release with PutPayload, or hand
// ownership to PacketConn.WriteOwnedTo.
func GetPayload(n int) []byte { return payloadGet(n) }

// PutPayload recycles a buffer from GetPayload (or ReadFromOwned).
// Callers must not retain any reference after the put; oversize
// buffers are left to the garbage collector.
func PutPayload(b []byte) { payloadPut(b) }
