package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

// sample carries one field of every kind; its walk is the layout.
type sample struct {
	u8     uint8
	u16    uint16
	u32    uint32
	u64    uint64
	i32    int32
	f64    float64
	yes    bool
	no     bool
	fixed  [3]byte
	b8     []byte
	b16    []byte
	s8     string
	s16    string
	list   []uint16
	listed bool
}

func (s *sample) walk(c *Codec) {
	c.U8(&s.u8)
	c.U16(&s.u16)
	c.U32(&s.u32)
	c.U64(&s.u64)
	c.I32(&s.i32)
	c.F64(&s.f64)
	c.Bool(&s.yes)
	c.Bool(&s.no)
	c.Fixed(s.fixed[:])
	c.Bytes8(&s.b8)
	c.Bytes16(&s.b16)
	c.String8(&s.s8)
	c.String16(&s.s16)
	Len(c, &s.list, 1, 4)
	for i := range s.list {
		c.U16(&s.list[i])
	}
}

// TestWriterReaderRoundTrip: one walk writes every field kind and the
// same walk reads them back, views and copies alike.
func TestWriterReaderRoundTrip(t *testing.T) {
	in := sample{u8: 0xAB, u16: 0xBEEF, u32: 0xDEADBEEF, u64: 0x0123456789ABCDEF, i32: -9850,
		f64: -12.75, yes: true, fixed: [3]byte{7, 7, 7}, b8: []byte{1, 2, 3}, b16: []byte{9, 8},
		s8: "hi", s16: "dlte", list: []uint16{5, 6}}
	e := Encoder(nil)
	in.walk(&e)
	if err := e.Err(); err != nil {
		t.Fatalf("encode error: %v", err)
	}
	if e.Len() != len(e.Bytes()) || e.Decoding() {
		t.Fatal("encoder state")
	}
	for _, d := range []Codec{Decoder(e.Bytes()), CopyingDecoder(e.Bytes()), SharingDecoder(e.Bytes())} {
		var out sample
		out.walk(&d)
		if err := d.Err(); err != nil {
			t.Fatalf("decode error: %v", err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Errorf("round trip = %+v, want %+v", out, in)
		}
	}
	// Views alias the input; copies do not, nor do shared strings.
	buf := bytes.Clone(e.Bytes())
	var view, owned, shared sample
	v, o, sh := Decoder(buf), CopyingDecoder(buf), SharingDecoder(buf)
	view.walk(&v)
	owned.walk(&o)
	shared.walk(&sh)
	for i := range buf {
		buf[i] ^= 0xFF
	}
	if view.b16[1] == 8 || owned.b16[1] != 8 || shared.b16[1] != 8 {
		t.Errorf("view b16 = %v, copy b16 = %v, shared b16 = %v", view.b16, owned.b16, shared.b16)
	}
	if shared.s8 != "hi" || shared.s16 != "dlte" {
		t.Errorf("shared strings = %q, %q after the input changed", shared.s8, shared.s16)
	}
}

// strings3 is a layout of three strings, for the sharing decoder.
type strings3 [3]string

func (s *strings3) walk(c *Codec) {
	for i := range s {
		c.String8(&s[i])
	}
}

// TestSharingDecoderAllocs: a SharingDecoder spends one allocation on
// a frame's strings however many it carries, and none on a frame
// without any (empty strings included); the other decoders spend one
// per string.
func TestSharingDecoderAllocs(t *testing.T) {
	in := strings3{"001010000000001", "00112233445566778899aabbccddeeff", "ffeeddccbbaa99887766554433221100"}
	e := Encoder(nil)
	in.walk(&e)
	frame := e.Bytes()
	for _, tc := range []struct {
		name  string
		dec   func([]byte) Codec
		frame []byte
		want  float64
	}{
		{"sharing", SharingDecoder, frame, 1},
		{"sharing, empty strings", SharingDecoder, []byte{0, 0, 0}, 0},
		{"copying", CopyingDecoder, frame, 3},
		{"viewing", Decoder, frame, 3},
	} {
		var out strings3
		allocs := testing.AllocsPerRun(100, func() {
			d := tc.dec(tc.frame)
			out.walk(&d)
			if d.Err() != nil {
				t.Fatal(d.Err())
			}
		})
		if allocs != tc.want {
			t.Errorf("%s: %.0f allocs per decode, want %.0f", tc.name, allocs, tc.want)
		}
	}
}

// strings64 is a layout of 64 strings: at 100 octets each, a frame
// over the pooled class.
type strings64 [64]string

func (s *strings64) walk(c *Codec) {
	for i := range s {
		c.String8(&s[i])
	}
}

// TestFrameSharingDecoder: the strings of a frame over the pooled class
// are substrings of the received frame itself, at no allocation; those
// of a pooled frame share one copy, which outlives the frame's reuse.
func TestFrameSharingDecoder(t *testing.T) {
	var big, bigOut strings64
	for i := range big {
		big[i] = string(bytes.Repeat([]byte{'a' + byte(i%26)}, 100))
	}
	b := ownedFrame(t, &big)
	allocs := testing.AllocsPerRun(20, func() {
		d := FrameSharingDecoder(b)
		bigOut.walk(&d)
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
	})
	if cap(b) == frameClassBytes || allocs != 0 || unsafe.StringData(bigOut[0]) != &b[1] || bigOut != big {
		t.Errorf("%d-octet frame (capacity %d): %.0f allocs per decode, want 0; strings alias the frame: %v; equal: %v",
			len(b), cap(b), allocs, unsafe.StringData(bigOut[0]) == &b[1], bigOut == big)
	}

	small := strings3{"001010000000001", "00112233445566778899aabbccddeeff", ""}
	var smallOut strings3
	b = ownedFrame(t, &small)
	allocs = testing.AllocsPerRun(20, func() {
		d := FrameSharingDecoder(b)
		smallOut.walk(&d)
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
	})
	if cap(b) != frameClassBytes || allocs != 1 {
		t.Errorf("%d-octet frame (capacity %d): %.0f allocs per decode, want 1", len(b), cap(b), allocs)
	}
	PutFrame(b)
	for i := 0; i < 4; i++ {
		f := GetFrame()
		f = f[:cap(f)]
		for j := range f {
			f[j] = 0xFF
		}
		PutFrame(f)
	}
	if smallOut != small {
		t.Errorf("pooled frame: decoded %q, sent %q", smallOut, small)
	}
}

// ownedFrame encodes in, frames it onto a stream and reads it back
// with ReadFrameOwned.
func ownedFrame(t *testing.T, in interface{ walk(*Codec) }) []byte {
	t.Helper()
	e := Encoder(nil)
	in.walk(&e)
	var stream bytes.Buffer
	if err := WriteFrame(&stream, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	b, err := ReadFrameOwned(&stream)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCodecSize: a Codec that escapes (x2.Decode's) is one allocation
// in the 64-byte size class; a larger Codec would add 16 bytes to
// every such decode.
func TestCodecSize(t *testing.T) {
	if n := unsafe.Sizeof(Codec{}); n > 64 {
		t.Errorf("wire.Codec is %d bytes, want at most 64", n)
	}
}

func TestReaderTruncation(t *testing.T) {
	d := Decoder([]byte{0x01})
	var v uint32
	d.U32(&v)
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", d.Err())
	}
	// After an error, fields are left untouched and the error sticks.
	x := uint8(9)
	d.U8(&x)
	if x != 9 || v != 0 {
		t.Errorf("post-error read = %v/%v, want untouched", x, v)
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Errorf("error did not stick: %v", d.Err())
	}
}

func TestReaderTruncatedLengthPrefix(t *testing.T) {
	// Prefix says 5 bytes but only 2 present.
	d := Decoder([]byte{5, 1, 2})
	var b []byte
	d.Bytes8(&b)
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", d.Err())
	}
}

// TestLenReusesRoom: decoding a list into a slice whose backing array
// has room fills that array, zeroed first, and allocates nothing; one
// without room gets a fresh array.
func TestLenReusesRoom(t *testing.T) {
	backing := []uint64{7, 7, 7, 7}
	b := []byte{0, 3}
	list := backing[1:1]
	d := Decoder(b)
	Len(&d, &list, 2, 100)
	if d.Err() != nil || len(list) != 3 || &list[0] != &backing[1] || list[0] != 0 || list[2] != 0 {
		t.Fatalf("with room: %v, %v (backing %v)", d.Err(), list, backing)
	}
	list = backing[2:2]
	d = Decoder(b)
	Len(&d, &list, 2, 100)
	if d.Err() != nil || len(list) != 3 || &list[0] == &backing[2] {
		t.Fatalf("without room: %v, %v shares the backing", d.Err(), list)
	}
	list = backing[:0]
	d = Decoder([]byte{0, 0})
	if Len(&d, &list, 2, 100); list != nil {
		t.Fatalf("empty list decodes to %v, want nil", list)
	}
	if n := testing.AllocsPerRun(10, func() {
		list = backing[:0]
		d = Decoder(b)
		Len(&d, &list, 2, 100)
	}); n != 0 {
		t.Errorf("decoding into room: %v allocs", n)
	}
}

// TestDecoderStrict: the one decoder rejects trailing bytes and
// boolean octets other than 0/1, and forged list counts above the cap.
func TestDecoderStrict(t *testing.T) {
	var x uint8
	d := Decoder([]byte{1, 2})
	d.U8(&x)
	if !errors.Is(d.Err(), ErrNonCanonical) {
		t.Errorf("trailing byte: %v", d.Err())
	}
	var yes bool
	d = Decoder([]byte{2})
	d.Bool(&yes)
	if !errors.Is(d.Err(), ErrNonCanonical) || yes {
		t.Errorf("bool octet 2: %v, %v", d.Err(), yes)
	}
	var list []uint64
	d = Decoder([]byte{0xFF, 0xFF})
	Len(&d, &list, 2, 100)
	if !errors.Is(d.Err(), ErrOverflow) || list != nil {
		t.Errorf("forged count: %v, len %d", d.Err(), len(list))
	}
}

func TestWriterOverflow(t *testing.T) {
	for name, walk := range map[string]func(c *Codec){
		"bytes8":  func(c *Codec) { b := make([]byte, 256); c.Bytes8(&b) },
		"bytes16": func(c *Codec) { b := make([]byte, 70000); c.Bytes16(&b) },
		"string8": func(c *Codec) { s := string(make([]byte, 300)); c.String8(&s) },
		"len":     func(c *Codec) { l := make([]int, 5); Len(c, &l, 1, 4) },
	} {
		e := Encoder(nil)
		walk(&e)
		if !errors.Is(e.Err(), ErrOverflow) {
			t.Errorf("%s: want ErrOverflow, got %v", name, e.Err())
		}
	}
}

func TestF64SpecialValues(t *testing.T) {
	for _, v := range []float64{0, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN()} {
		e := Encoder(nil)
		e.F64(&v)
		var got float64
		d := Decoder(e.Bytes())
		d.F64(&got)
		// NaN round-trips to NaN: the bit pattern is preserved.
		if math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("F64(%v) round trip = %v", v, got)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(a uint8, b uint16, c uint32, d uint64, s string, blob []byte) bool {
		if len(s) > 255 || len(blob) > 65535 {
			return true
		}
		in := sample{u8: a, u16: b, u32: c, u64: d, s8: s, b16: blob, fixed: [3]byte{1, 2, 3}}
		e := Encoder(nil)
		in.walk(&e)
		if e.Err() != nil {
			return false
		}
		var out sample
		dec := Decoder(e.Bytes())
		out.walk(&dec)
		return dec.Err() == nil && out.u8 == a && out.u16 == b && out.u32 == c && out.u64 == d &&
			out.s8 == s && bytes.Equal(out.b16, blob)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("attach-request")
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("frame = %q", got)
	}
}

func TestFrameEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty frame = %v", got)
	}
}

func TestFrameTooBig(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrOverflow) {
		t.Fatalf("want ErrOverflow, got %v", err)
	}
	// A hostile length prefix is rejected before allocation.
	hostile := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(hostile)); !errors.Is(err, ErrOverflow) {
		t.Fatalf("want ErrOverflow on hostile prefix, got %v", err)
	}
}

func TestFrameShortRead(t *testing.T) {
	// Header promises 10 bytes, body has 3.
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 10, 1, 2, 3})
	if _, err := ReadFrame(&buf); err != io.ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
}

func TestFrameSequence(t *testing.T) {
	var buf bytes.Buffer
	frames := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame = %q, want %q", got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("want EOF at end, got %v", err)
	}
}

// TestSendFramedMatchesSend: a frame assembled behind headroom goes out
// byte-identical to the same payload through Send, in one Write, and a
// buffer shorter than its own headroom is refused.
func TestSendFramedMatchesSend(t *testing.T) {
	for _, size := range []int{0, 1, 515, frameClassBytes - FrameHeadroom, frameClassBytes + 100} {
		payload := bytes.Repeat([]byte{0xA5}, size)
		var viaSend, viaFramed countingBuffer
		if err := NewFrameConn(&viaSend).Send(payload); err != nil {
			t.Fatal(err)
		}
		buf := append(GetFramed(), payload...)
		if err := NewFrameConn(&viaFramed).SendFramed(buf); err != nil {
			t.Fatal(err)
		}
		PutFrame(buf)
		if !bytes.Equal(viaFramed.Bytes(), viaSend.Bytes()) {
			t.Errorf("size %d: SendFramed wrote %x..., Send wrote %x...", size, viaFramed.Bytes()[:4], viaSend.Bytes()[:4])
		}
		if viaFramed.writes != 1 {
			t.Errorf("size %d: SendFramed made %d writes, want 1", size, viaFramed.writes)
		}
	}
	if err := NewFrameConn(&bytes.Buffer{}).SendFramed(make([]byte, FrameHeadroom-1)); !errors.Is(err, ErrOverflow) {
		t.Errorf("runt buffer: %v, want ErrOverflow", err)
	}
}

type countingBuffer struct {
	bytes.Buffer
	writes int
}

func (b *countingBuffer) Write(p []byte) (int, error) {
	b.writes++
	return b.Buffer.Write(p)
}

// TestLayoutWalksBothWays: a pooled encoder runs a walk like a fresh
// one and resets cleanly between messages.
func TestLayoutWalksBothWays(t *testing.T) {
	typ, v := uint8(7), uint32(42)
	c := GetEncoder()
	defer PutEncoder(c)
	c.U8(&typ)
	c.U32(&v)
	d := Decoder(bytes.Clone(c.Bytes()))
	var gt uint8
	var gv uint32
	d.U8(&gt)
	d.U32(&gv)
	if d.Err() != nil || gt != 7 || gv != 42 {
		t.Errorf("decoded %d/%d, %v", gt, gv, d.Err())
	}
	c.Reset()
	if c.Len() != 0 || c.Err() != nil {
		t.Errorf("reset encoder: len %d, err %v", c.Len(), c.Err())
	}
	// Behind Headroom, the frame goes out through SendFramed exactly as
	// its payload does through Send.
	c.Headroom()
	c.U32(&v)
	var viaSend, viaFramed bytes.Buffer
	if err := NewFrameConn(&viaFramed).SendFramed(c.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := NewFrameConn(&viaSend).Send(c.Bytes()[FrameHeadroom:]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaFramed.Bytes(), viaSend.Bytes()) {
		t.Errorf("headroom frame %x, want %x", viaFramed.Bytes(), viaSend.Bytes())
	}
}

// TestEncodeErrorSticks: the first encoding error is the one reported.
func TestEncodeErrorSticks(t *testing.T) {
	e := Encoder(nil)
	b := make([]byte, 300)
	e.Bytes8(&b)
	e.Fail(errors.New("later"))
	if !errors.Is(e.Err(), ErrOverflow) {
		t.Fatalf("want ErrOverflow, got %v", e.Err())
	}
}
