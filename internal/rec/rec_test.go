package rec

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.U8(7)
	e.Bool(true)
	e.Bool(false)
	e.U16(0xBEEF)
	e.U32(0xDEADBEEF)
	e.U64(0x0123456789ABCDEF)
	e.I64(-42)
	e.Bytes([]byte{1, 2, 3})
	e.Str("hello")
	sealed := e.Seal()

	d, err := NewDecoder(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if d.U8() != 7 || !d.Bool() || d.Bool() {
		t.Fatal("u8/bool")
	}
	if d.U16() != 0xBEEF || d.U32() != 0xDEADBEEF || d.U64() != 0x0123456789ABCDEF {
		t.Fatal("ints")
	}
	if d.I64() != -42 {
		t.Fatal("i64")
	}
	if !bytes.Equal(d.Bytes(), []byte{1, 2, 3}) || d.Str() != "hello" {
		t.Fatal("bytes/str")
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", d.Err(), d.Remaining())
	}
}

func TestCorruptionDetected(t *testing.T) {
	e := NewEncoder()
	e.Str("important data")
	sealed := e.Seal()
	sealed[3] ^= 0x40
	if _, err := NewDecoder(sealed); err == nil {
		t.Fatal("bit flip not detected")
	}
	if _, err := NewDecoder(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := NewDecoder([]byte{1, 2}); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestTruncatedDecodeFails(t *testing.T) {
	d := NewRawDecoder([]byte{1, 2})
	_ = d.U64()
	if d.Err() == nil {
		t.Fatal("truncated u64 read succeeded")
	}
	// Further reads keep failing without panicking.
	_ = d.Str()
	_ = d.Bytes()
	if d.Err() == nil {
		t.Fatal("error cleared")
	}
}

func TestBytesLengthLie(t *testing.T) {
	e := NewEncoder()
	e.U32(1 << 30) // claims a huge payload
	d := NewRawDecoder(e.Raw())
	if d.Bytes() != nil || d.Err() == nil {
		t.Fatal("lying length accepted")
	}
}

func TestBytesAreCopied(t *testing.T) {
	e := NewEncoder()
	e.Bytes([]byte("mutable"))
	d, err := NewDecoder(e.Seal())
	if err != nil {
		t.Fatal(err)
	}
	got := d.Bytes()
	got[0] = 'X'
	d2, _ := NewDecoder(e.Seal())
	if d2.Bytes()[0] != 'm' {
		t.Fatal("decoder returned aliased memory")
	}
}

// Property: any sequence of typed values round-trips exactly.
func TestRoundTripProperty(t *testing.T) {
	type sample struct {
		A uint8
		B bool
		C uint16
		D uint32
		E uint64
		F int64
		G []byte
		H string
	}
	f := func(s sample) bool {
		e := NewEncoder()
		e.U8(s.A)
		e.Bool(s.B)
		e.U16(s.C)
		e.U32(s.D)
		e.U64(s.E)
		e.I64(s.F)
		e.Bytes(s.G)
		e.Str(s.H)
		d, err := NewDecoder(e.Seal())
		if err != nil {
			return false
		}
		return d.U8() == s.A && d.Bool() == s.B && d.U16() == s.C &&
			d.U32() == s.D && d.U64() == s.E && d.I64() == s.F &&
			bytes.Equal(d.Bytes(), s.G) && d.Str() == s.H && d.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLen(t *testing.T) {
	e := NewEncoder()
	if e.Len() != 0 {
		t.Fatal("fresh encoder non-empty")
	}
	e.U64(1)
	if e.Len() != 8 {
		t.Fatalf("len = %d", e.Len())
	}
}

// TestFrameRule: a log frame written after other bytes is read back whole
// from its own start; a header alone states how much to read; short input,
// another magic, a length shorter than an empty frame and a flipped bit are
// each no frame.
func TestFrameRule(t *testing.T) {
	const magic = 0x41424344
	e := NewEncoder()
	e.U32(7) // bytes before the frame
	mark := e.BeginFrame(magic)
	e.U64(42)
	e.EndFrame(mark)
	b := append(e.Raw()[mark:], 0xEE) // and a byte after it
	frame, n := Frame(b, magic)
	if n != FrameOverhead+8 || !bytes.Equal(frame, b[:n]) || cap(frame) != n {
		t.Fatalf("Frame = %x (cap %d), %d; want the %d bytes written", frame, cap(frame), n, FrameOverhead+8)
	}
	if d := NewRawDecoder(FrameBody(frame)); d.U64() != 42 || d.Remaining() != 0 {
		t.Fatal("body is not what was written")
	}
	if frame, n := Frame(b[:FrameHeader], magic); frame != nil || n != FrameOverhead+8 {
		t.Fatalf("header alone: %x, %d; want nil and the stated length", frame, n)
	}
	short := append([]byte(nil), b...)
	short[4] = FrameOverhead - 1
	for name, in := range map[string][]byte{
		"empty": nil, "short": b[:FrameHeader-1], "other magic": b[4:], "length below an empty frame": short,
	} {
		if frame, n := Frame(in, magic); frame != nil || n != 0 {
			t.Errorf("%s: Frame = %x, %d; want nil, 0", name, frame, n)
		}
	}
	for i := range FrameOverhead + 8 {
		flipped := append([]byte(nil), b...)
		flipped[i] ^= 0x10
		if frame, _ := Frame(flipped, magic); frame != nil {
			t.Errorf("byte %d flipped: still a frame", i)
		}
	}
}

// TestNextRecord: items End sealed split off in order; a length over the cap
// is ErrCorrupt and a cut stream io.ErrUnexpectedEOF.
func TestNextRecord(t *testing.T) {
	e := NewEncoder()
	for _, s := range []string{"one", "two"} {
		m := e.Begin()
		e.Str(s)
		e.End(m)
	}
	stream := e.Raw()
	for _, want := range []string{"one", "two"} {
		item, rest, err := NextRecord(stream, 64)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDecoder(item)
		if err != nil || d.Str() != want {
			t.Fatalf("item %q: %v", want, err)
		}
		stream = rest
	}
	if len(stream) != 0 {
		t.Fatalf("%d bytes left over", len(stream))
	}
	if _, _, err := NextRecord(e.Raw(), 8); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over the cap: %v, want ErrCorrupt", err)
	}
	if _, _, err := NextRecord(e.Raw()[:6], 64); err != io.ErrUnexpectedEOF {
		t.Fatalf("cut: %v, want io.ErrUnexpectedEOF", err)
	}
}
