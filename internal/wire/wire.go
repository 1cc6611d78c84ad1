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
type Codec struct {
	buf  []byte // encoding: the output so far; decoding: the input
	off  int    // decoding: read cursor
	dec  bool
	owns bool // decoding: byte fields are copies, not views into buf
	err  error
}

// Encoder returns a Codec that appends to dst.
func Encoder(dst []byte) Codec { return Codec{buf: dst} }

// Decoder returns a Codec that decodes b. Byte fields decode as views
// aliasing b — valid only while b is — which is what the
// allocation-free hot paths want.
func Decoder(b []byte) Codec { return Codec{buf: b, dec: true} }

// CopyingDecoder is Decoder with byte fields copied out of b, for
// messages retained after the input buffer is recycled.
func CopyingDecoder(b []byte) Codec { return Codec{buf: b, dec: true, owns: true} }

// Decoding reports whether the Codec reads (true) or writes (false).
func (c *Codec) Decoding() bool { return c.dec }

// Bytes returns the encoding so far.
func (c *Codec) Bytes() []byte { return c.buf }

// Len reports the number of bytes encoded so far.
func (c *Codec) Len() int { return len(c.buf) }

// Reset empties an encoding Codec for reuse, keeping its capacity.
func (c *Codec) Reset() {
	c.buf, c.err = c.buf[:0], nil
}

// Err returns the first recorded error. Called on a decoding Codec
// after the walk, it also reports unconsumed input as ErrNonCanonical:
// the strict decoder accepts only an exact encoding.
func (c *Codec) Err() error {
	if c.dec && c.off != len(c.buf) {
		c.trailing()
	}
	return c.err
}

func (c *Codec) trailing() {
	c.Fail(fmt.Errorf("%w: %d trailing bytes", ErrNonCanonical, len(c.buf)-c.off))
}

// Fail records err unless an error is already recorded. Walks use it
// for layout errors of their own (an unknown type tag, say).
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *Codec) take(n int) []byte {
	if c.err != nil || n > len(c.buf)-c.off {
		c.Fail(ErrTruncated)
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// U8 carries one octet.
func (c *Codec) U8(p *uint8) {
	if !c.dec {
		c.buf = append(c.buf, *p)
	} else if b := c.take(1); b != nil {
		*p = b[0]
	}
}

// U16 carries a big-endian uint16.
func (c *Codec) U16(p *uint16) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint16(c.buf, *p)
	} else if b := c.take(2); b != nil {
		*p = binary.BigEndian.Uint16(b)
	}
}

// U32 carries a big-endian uint32.
func (c *Codec) U32(p *uint32) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint32(c.buf, *p)
	} else if b := c.take(4); b != nil {
		*p = binary.BigEndian.Uint32(b)
	}
}

// U64 carries a big-endian uint64.
func (c *Codec) U64(p *uint64) {
	if !c.dec {
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
	if !c.dec {
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
	if !c.dec {
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
	case sp != nil:
		*sp = string(b)
	case c.owns:
		*bp = append(make([]byte, 0, n), b...)
	default:
		*bp = b[:n:n]
	}
}

// Len carries len(*s) as a width-octet (1, 2 or 4) count of at most
// limit elements (limit must fit the width); decoding makes *s that
// long (nil when empty) for the walk to fill element by element. A
// count above limit is ErrOverflow either way, so a forged count never
// sizes an allocation.
func Len[T any](c *Codec, s *[]T, width, limit int) {
	n := len(*s)
	if !c.dec && n > limit {
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
	if !c.dec {
		return
	}
	*s = nil
	if n > limit {
		c.Fail(fmt.Errorf("%w: %d elements, at most %d", ErrOverflow, n, limit))
	} else if n > 0 && c.err == nil {
		*s = make([]T, n)
	}
}
