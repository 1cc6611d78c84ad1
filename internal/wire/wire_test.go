package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"testing/quick"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	w := NewWriter(0)
	w.U8(0xAB)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(0x0123456789ABCDEF)
	w.F64(-12.75)
	w.Bool(true)
	w.Bool(false)
	w.Bytes8([]byte{1, 2, 3})
	w.Bytes16([]byte{9, 8})
	w.String8("hi")
	w.String16("dlte")
	w.Bytes0([]byte{0xFF})
	if err := w.Err(); err != nil {
		t.Fatalf("writer error: %v", err)
	}

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 0xAB {
		t.Errorf("U8 = %#x", got)
	}
	if got := r.U16(); got != 0xBEEF {
		t.Errorf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0x0123456789ABCDEF {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.F64(); got != -12.75 {
		t.Errorf("F64 = %v", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.Bytes8(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes8 = %v", got)
	}
	if got := r.Bytes16(); !bytes.Equal(got, []byte{9, 8}) {
		t.Errorf("Bytes16 = %v", got)
	}
	if got := r.String8(); got != "hi" {
		t.Errorf("String8 = %q", got)
	}
	if got := r.String16(); got != "dlte" {
		t.Errorf("String16 = %q", got)
	}
	if got := r.Rest(); !bytes.Equal(got, []byte{0xFF}) {
		t.Errorf("Rest = %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("reader error: %v", err)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
}

func TestReaderTruncation(t *testing.T) {
	r := NewReader([]byte{0x01})
	_ = r.U32()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", r.Err())
	}
	// After an error, everything reads as zero and the error sticks.
	if got := r.U8(); got != 0 {
		t.Errorf("post-error read = %v, want 0", got)
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("error did not stick: %v", r.Err())
	}
}

func TestReaderTruncatedLengthPrefix(t *testing.T) {
	// Prefix says 5 bytes but only 2 present.
	r := NewReader([]byte{5, 1, 2})
	_ = r.Bytes8()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", r.Err())
	}
}

func TestWriterOverflow(t *testing.T) {
	w := NewWriter(0)
	w.Bytes8(make([]byte, 256))
	if !errors.Is(w.Err(), ErrOverflow) {
		t.Fatalf("want ErrOverflow, got %v", w.Err())
	}
	w2 := NewWriter(0)
	w2.Bytes16(make([]byte, 70000))
	if !errors.Is(w2.Err(), ErrOverflow) {
		t.Fatalf("want ErrOverflow, got %v", w2.Err())
	}
}

func TestF64SpecialValues(t *testing.T) {
	for _, v := range []float64{0, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		w := NewWriter(8)
		w.F64(v)
		r := NewReader(w.Bytes())
		if got := r.F64(); got != v {
			t.Errorf("F64(%v) round trip = %v", v, got)
		}
	}
	// NaN round-trips to NaN (bit pattern preserved).
	w := NewWriter(8)
	w.F64(math.NaN())
	if got := NewReader(w.Bytes()).F64(); !math.IsNaN(got) {
		t.Errorf("NaN round trip = %v", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(a uint8, b uint16, c uint32, d uint64, s string, blob []byte) bool {
		if len(s) > 255 || len(blob) > 65535 {
			return true
		}
		w := NewWriter(0)
		w.U8(a)
		w.U16(b)
		w.U32(c)
		w.U64(d)
		w.String8(s)
		w.Bytes16(blob)
		if w.Err() != nil {
			return false
		}
		r := NewReader(w.Bytes())
		ok := r.U8() == a && r.U16() == b && r.U32() == c && r.U64() == d &&
			r.String8() == s && bytes.Equal(r.Bytes16(), blob)
		return ok && r.Err() == nil && r.Remaining() == 0
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

type testMsg struct{ v uint32 }

func (m testMsg) EncodeTo(w *Writer) { w.U32(m.v) }

func TestMarshal(t *testing.T) {
	b, err := Marshal(7, testMsg{v: 42})
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(b)
	if typ := r.U8(); typ != 7 {
		t.Errorf("type = %d", typ)
	}
	if v := r.U32(); v != 42 {
		t.Errorf("v = %d", v)
	}
}

type overflowMsg struct{}

func (overflowMsg) EncodeTo(w *Writer) { w.Bytes8(make([]byte, 300)) }

func TestMarshalPropagatesError(t *testing.T) {
	if _, err := Marshal(1, overflowMsg{}); !errors.Is(err, ErrOverflow) {
		t.Fatalf("want ErrOverflow, got %v", err)
	}
}
