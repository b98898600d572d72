// Package rec provides the record encoding used to serialize POSIX object
// state into the object store. Every checkpointable kernel object writes
// itself with an Encoder and is rebuilt with a Decoder; records are
// little-endian and self-checking (a CRC is appended by Seal and verified
// by NewDecoder).
package rec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// ErrCorrupt reports a failed decode.
var ErrCorrupt = errors.New("rec: corrupt record")

// Encoder builds a record.
type Encoder struct{ b []byte }

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Grow makes room for n more bytes, so that a record whose size is known is
// built in one allocation.
func (e *Encoder) Grow(n int) { e.b = slices.Grow(e.b, n) }

// Reset empties the encoder and keeps its buffer for the next record.
func (e *Encoder) Reset() { e.b = e.b[:0] }

// Len returns the bytes encoded so far.
func (e *Encoder) Len() int { return len(e.b) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.b = append(e.b, v) }

// Bool appends a boolean.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 appends a little-endian uint16.
func (e *Encoder) U16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// I64 appends a little-endian int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Bytes appends a length-prefixed byte slice.
func (e *Encoder) Bytes(p []byte) {
	e.U32(uint32(len(p)))
	e.b = append(e.b, p...)
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// Append appends p verbatim, with no length prefix: an already-encoded body
// whose length the surrounding record states itself.
func (e *Encoder) Append(p []byte) { e.b = append(e.b, p...) }

// Seal appends the CRC and returns the finished record.
func (e *Encoder) Seal() []byte {
	return binary.LittleEndian.AppendUint32(e.b, crc32.ChecksumIEEE(e.b))
}

// Raw returns the unsealed bytes (for embedding in another record).
func (e *Encoder) Raw() []byte { return e.b }

// Decoder reads a record.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder verifies the CRC and returns a decoder over the body.
func NewDecoder(b []byte) (*Decoder, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: short", ErrCorrupt)
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: bad checksum", ErrCorrupt)
	}
	return &Decoder{b: body}, nil
}

// NewRawDecoder wraps bytes without CRC verification (for embedded records).
func NewRawDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decode error.
func (d *Decoder) Err() error { return d.err }

// Remaining reports undecoded bytes.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// Rest returns the undecoded remainder, aliasing the record.
func (d *Decoder) Rest() []byte { return d.b[d.off:] }

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated", ErrCorrupt)
	}
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U16 reads a uint16.
func (d *Decoder) U16() uint16 {
	if d.off+2 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

// U32 reads a uint32.
func (d *Decoder) U32() uint32 {
	if d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

// U64 reads a uint64.
func (d *Decoder) U64() uint64 {
	if d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Bytes reads a length-prefixed byte slice (copied).
func (d *Decoder) Bytes() []byte {
	n := int(d.U32())
	if d.err != nil || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	out := append([]byte(nil), d.b[d.off:d.off+n]...)
	d.off += n
	return out
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := int(d.U32())
	if d.err != nil || d.off+n > len(d.b) {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}
