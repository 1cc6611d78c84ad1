// Package wire is the binary codec shared by every dLTE protocol
// package (NAS, S1AP, X2, the registry protocol, the mobility
// transport, the air interface and the user-plane packet), plus the
// length-prefixed stream framing they ride on.
//
// A message's layout is declared exactly once, as a walk: a function
// that calls one Codec method per field, in wire order, with a pointer
// to the field. The same walk encodes (the Codec appends each field)
// and decodes (the Codec reads each field into place), so the two
// directions cannot disagree. Field kinds are u8/u16/u32/u64/i32/f64,
// bool, fixed-N bytes, bytes8/bytes16 and string8/string16 (a u8 or
// u16 length prefix), and Len for counted lists.
//
// Decoding is strict: truncation, bytes left over after the walk, and
// boolean octets other than 0/1 are all errors, so any accepted input
// is the unique encoding of what it decoded to and re-encodes byte for
// byte.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// ErrTruncated reports that a decode ran out of bytes.
var ErrTruncated = errors.New("wire: truncated message")

// ErrOverflow reports that a field exceeded its encodable range.
var ErrOverflow = errors.New("wire: field overflow")

// ErrNonCanonical reports an encoding that parses but is not the
// unique canonical form: trailing bytes, or a boolean octet other than
// 0/1.
var ErrNonCanonical = errors.New("wire: non-canonical encoding")

// Codec walks a message layout in one direction. An encoding Codec
// appends each field to its buffer; a decoding Codec reads each field
// from its input into the pointed-to value. Either way the first error
// is recorded and reported by Err, so walks carry no error checks; a
// decode that failed leaves the remaining fields untouched.
//
// The fields are laid out to keep a Codec at 64 bytes: a decoder that
// escapes (one whose walk is an interface call, as x2.Decode's is)
// costs one 64-byte allocation.
type Codec struct {
	buf  []byte // encoding: the output so far; decoding: the input
	text string // sharing decode: buf as one string, taken at the first non-empty string field
	err  error
	off  int32 // decoding: read cursor
	mode mode
}

// mode is a Codec's direction and, decoding, what its fields own.
type mode uint8

const (
	encoding  mode = iota
	viewing        // byte fields view the input
	borrowing      // byte and string fields view the input
	copying        // byte fields are copies
	sharing        // byte fields are copies; strings share one copy of the input
)

// Encoder returns a Codec that appends to dst.
func Encoder(dst []byte) Codec { return Codec{buf: dst} }

// Decoder returns a Codec that decodes b. Byte fields decode as views
// aliasing b — valid only while b is — which is what the
// allocation-free hot paths want. The read cursor is 32 bits, so a
// decoder reads at most math.MaxInt32 octets of b; every dLTE input is
// a frame, at most MaxFrameSize.
func Decoder(b []byte) Codec { return Codec{buf: b, mode: viewing} }

// BorrowingDecoder is Decoder with string fields viewing b as well:
// nothing decoded owns memory, so a walk allocates nothing, and every
// string and byte field is valid only while b is unchanged. It is for
// receive paths whose handlers finish with a message before its frame
// is reused and clone whatever they keep (x2.Inbox).
func BorrowingDecoder(b []byte) Codec { return Codec{buf: b, mode: borrowing} }

// CopyingDecoder is Decoder with byte fields copied out of b, for
// messages retained after the input buffer is recycled.
func CopyingDecoder(b []byte) Codec { return Codec{buf: b, mode: copying} }

// SharingDecoder is CopyingDecoder for layouts with many string
// fields: at the first non-empty one it copies all of b into a single
// string, and every string field decodes as a substring of that copy,
// so a message costs one string allocation however many strings it
// carries, and none when it carries none. Nothing decoded aliases b.
//
// The retention rule: any one decoded string keeps the whole copy of
// b alive. That suits a frame whose strings the caller keeps together
// (a registry reply list); a caller that keeps one short string of a
// large frame should clone it.
func SharingDecoder(b []byte) Codec { return Codec{buf: b, mode: sharing} }

// FrameSharingDecoder is SharingDecoder for a frame b from
// ReadFrameOwned (or RecvOwned) that its caller hands back with
// PutFrame right after the walk and never writes. A pooled frame is
// copied into the shared string as usual; a frame over the pooled
// class is exact-fit heap memory PutFrame drops, so b itself becomes
// the shared string. On a stream that hands frames over whole
// (FrameAdopter), b is the chunk the writer's Write copied into, so
// the decoded strings' storage is that one copy and nothing else.
func FrameSharingDecoder(b []byte) Codec {
	c := SharingDecoder(b)
	if cap(b) != frameClassBytes && len(b) > 0 {
		c.text = unsafe.String(&b[0], len(b))
	}
	return c
}

// Decoding reports whether the Codec reads (true) or writes (false).
func (c *Codec) Decoding() bool { return c.mode != encoding }

// Bytes returns the encoding so far.
func (c *Codec) Bytes() []byte { return c.buf }

// Len reports the number of bytes encoded so far.
func (c *Codec) Len() int { return len(c.buf) }

// Reset empties an encoding Codec for reuse, keeping its capacity.
func (c *Codec) Reset() {
	c.buf, c.err = c.buf[:0], nil
}

// Grow makes room for n more octets in an encoding Codec's buffer, so
// an encoding whose size the caller can estimate grows it once instead
// of doubling from the buffer's current capacity.
func (c *Codec) Grow(n int) { c.buf = slices.Grow(c.buf, n) }

// Headroom appends FrameHeadroom zero octets to an encoding Codec, the
// room FrameConn.SendFramed patches the length prefix into: a frame
// encoded behind them goes to the stream with no copy in between.
func (c *Codec) Headroom() { c.buf = append(c.buf, make([]byte, FrameHeadroom)...) }

// Err returns the first recorded error. Called on a decoding Codec
// after the walk, it also reports unconsumed input as ErrNonCanonical:
// the strict decoder accepts only an exact encoding.
func (c *Codec) Err() error {
	if c.mode != encoding && int(c.off) != len(c.buf) {
		c.trailing()
	}
	return c.err
}

func (c *Codec) trailing() {
	c.Fail(fmt.Errorf("%w: %d trailing bytes", ErrNonCanonical, len(c.buf)-int(c.off)))
}

// Fail records err unless an error is already recorded. Walks use it
// for layout errors of their own (an unknown type tag, say).
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *Codec) take(n int) []byte {
	rest := c.buf[c.off:]
	if c.err != nil || n > len(rest) {
		c.Fail(ErrTruncated)
		return nil
	}
	c.off += int32(n)
	return rest[:n]
}

// U8 carries one octet.
func (c *Codec) U8(p *uint8) {
	if c.mode == encoding {
		c.buf = append(c.buf, *p)
	} else if b := c.take(1); b != nil {
		*p = b[0]
	}
}

// U16 carries a big-endian uint16.
func (c *Codec) U16(p *uint16) {
	if c.mode == encoding {
		c.buf = binary.BigEndian.AppendUint16(c.buf, *p)
	} else if b := c.take(2); b != nil {
		*p = binary.BigEndian.Uint16(b)
	}
}

// U32 carries a big-endian uint32.
func (c *Codec) U32(p *uint32) {
	if c.mode == encoding {
		c.buf = binary.BigEndian.AppendUint32(c.buf, *p)
	} else if b := c.take(4); b != nil {
		*p = binary.BigEndian.Uint32(b)
	}
}

// U64 carries a big-endian uint64.
func (c *Codec) U64(p *uint64) {
	if c.mode == encoding {
		c.buf = binary.BigEndian.AppendUint64(c.buf, *p)
	} else if b := c.take(8); b != nil {
		*p = binary.BigEndian.Uint64(b)
	}
}

// I32 carries an int32 as its two's-complement uint32.
func (c *Codec) I32(p *int32) {
	u := uint32(*p)
	c.U32(&u)
	*p = int32(u)
}

// F64 carries a float64 as its IEEE-754 bits (NaN payloads included).
func (c *Codec) F64(p *float64) {
	u := math.Float64bits(*p)
	c.U64(&u)
	*p = math.Float64frombits(u)
}

// Bool carries a bool as one octet, 1 or 0; any other octet is
// ErrNonCanonical.
func (c *Codec) Bool(p *bool) {
	var b uint8
	if *p {
		b = 1
	}
	c.U8(&b)
	if b > 1 {
		c.Fail(fmt.Errorf("%w: boolean octet %d", ErrNonCanonical, b))
	}
	*p = b == 1
}

// Fixed carries len(p) raw octets with no prefix (a fixed-N field,
// typically an array's slice): decoding copies them into p.
func (c *Codec) Fixed(p []byte) {
	if c.mode == encoding {
		c.buf = append(c.buf, p...)
	} else if b := c.take(len(p)); b != nil {
		copy(p, b)
	}
}

// Bytes8 carries a u8 length prefix and that many octets.
func (c *Codec) Bytes8(p *[]byte) { c.field(p, nil, 1) }

// Bytes16 carries a u16 length prefix and that many octets.
func (c *Codec) Bytes16(p *[]byte) { c.field(p, nil, 2) }

// String8 carries a string as a u8 length prefix and its octets.
func (c *Codec) String8(p *string) { c.field(nil, p, 1) }

// String16 carries a string as a u16 length prefix and its octets.
func (c *Codec) String16(p *string) { c.field(nil, p, 2) }

// field carries a width-octet (1 or 2) length prefix and the octets of
// *bp or, when bp is nil, of *sp: every length-prefixed kind in one
// call. Encoding a field longer than its prefix can count is
// ErrOverflow.
func (c *Codec) field(bp *[]byte, sp *string, width int) {
	if c.mode == encoding {
		n := 0
		if bp != nil {
			n = len(*bp)
		} else {
			n = len(*sp)
		}
		if n >= 1<<(8*width) {
			c.Fail(fmt.Errorf("%w: %d octets behind a %d-octet length", ErrOverflow, n, width))
		}
		if width == 2 {
			c.buf = append(c.buf, byte(n>>8))
		}
		c.buf = append(c.buf, byte(n))
		if bp != nil {
			c.buf = append(c.buf, *bp...)
		} else {
			c.buf = append(c.buf, *sp...)
		}
		return
	}
	h := c.take(width)
	if h == nil {
		return
	}
	n := int(h[0])
	if width == 2 {
		n = n<<8 | int(h[1])
	}
	b := c.take(n)
	switch {
	case b == nil:
	case sp != nil && c.mode == sharing && n > 0:
		if c.text == "" {
			c.text = string(c.buf)
		}
		*sp = c.text[int(c.off)-n : c.off]
	case sp != nil && c.mode == borrowing && n > 0:
		*sp = unsafe.String(&b[0], n)
	case sp != nil:
		*sp = string(b)
	case c.mode >= copying:
		*bp = append(make([]byte, 0, n), b...)
	default:
		*bp = b[:n:n]
	}
}

// Len carries len(*s) as a width-octet (1, 2 or 4) count of at most
// limit elements (limit must fit the width); decoding makes *s that
// long (nil when empty), zeroed, for the walk to fill element by
// element. It reuses the backing array *s already has when that has
// room, so a caller can decode a list straight into spare capacity. A
// count above limit is ErrOverflow either way, so a forged count never
// sizes an allocation. Len is Count followed by Fit.
func Len[T any](c *Codec, s *[]T, width, limit int) {
	Fit(c, s, Count(c, len(*s), width, limit))
}

// Count is Len's count on its own: it carries n as a width-octet (1, 2
// or 4) count of at most limit and returns the count carried — n when
// encoding, the count read when decoding. A count above limit is
// ErrOverflow; decoding then returns 0, as it does once any error is
// recorded, so a forged count sizes nothing. A walk that must learn a
// list's length before decoding it (to size one destination for a
// list spread over several frames) walks up to its Count and stops; a
// full walk follows Count with Fit.
func Count(c *Codec, n, width, limit int) int {
	if c.mode == encoding && n > limit {
		c.Fail(fmt.Errorf("%w: %d elements, at most %d", ErrOverflow, n, limit))
	}
	switch width {
	case 1:
		u := uint8(n)
		c.U8(&u)
		n = int(u)
	case 2:
		u := uint16(n)
		c.U16(&u)
		n = int(u)
	default:
		u := uint32(n)
		c.U32(&u)
		n = int(u)
	}
	if c.mode == encoding {
		return n
	}
	if n > limit {
		c.Fail(fmt.Errorf("%w: %d elements, at most %d", ErrOverflow, n, limit))
	}
	if c.err != nil {
		return 0
	}
	return n
}

// Fit is Len's sizing on its own: decoding, it makes *s n long (nil
// when n is 0 or the walk has failed), zeroed, reusing the backing
// array *s already has when that has room. Encoding, it does nothing.
func Fit[T any](c *Codec, s *[]T, n int) {
	if c.mode == encoding {
		return
	}
	room := *s
	*s = nil
	if n == 0 || c.err != nil {
		return
	}
	if cap(room) >= n {
		*s = room[:n]
		clear(*s)
	} else {
		*s = make([]T, n)
	}
}
