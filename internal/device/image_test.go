package device

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"aurora/internal/clock"
)

func TestDeviceImageRoundTrip(t *testing.T) {
	clk := clock.NewVirtual()
	costs := clock.DefaultCosts()
	d := New(clk, costs, 4<<20)
	d.WriteAt([]byte("alpha"), 0)
	d.WriteAt([]byte("omega"), 3<<20) // sparse: far chunk

	var img bytes.Buffer
	if err := d.Save(&img); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadStripe(clk, costs, &img)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Size() != d.Size() {
		t.Fatalf("size %d != %d", d2.Size(), d.Size())
	}
	buf := make([]byte, 5)
	d2.ReadAt(buf, 0)
	if string(buf) != "alpha" {
		t.Fatalf("got %q", buf)
	}
	d2.ReadAt(buf, 3<<20)
	if string(buf) != "omega" {
		t.Fatalf("got %q", buf)
	}
	// Unwritten regions still zero.
	d2.ReadAt(buf, 1<<20)
	if buf[0] != 0 {
		t.Fatal("phantom data")
	}
}

// TestLoadRejectsCorruptHeader: the image is outside input. A size New would
// panic on, more chunks than the size spans, and a chunk index that is out of
// range, out of order or repeated each come back as an error that says where,
// for a member image alone and through a stripe; the valid image still loads.
func TestLoadRejectsCorruptHeader(t *testing.T) {
	clk := clock.NewVirtual()
	costs := clock.DefaultCosts()
	d := New(clk, costs, 4<<20) // 64 chunks
	d.WriteAt([]byte("alpha"), 0)
	d.WriteAt([]byte("omega"), 3<<20)
	var img bytes.Buffer
	if err := d.devs[0].save(&img); err != nil {
		t.Fatal(err)
	}
	const second = 20 + 8 + ChunkSize // where the second chunk's index is
	put := func(off int, v uint64) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b[off:], v) }
	}
	for _, tc := range []struct {
		name string
		edit func([]byte)
		want string
	}{
		{"valid", func([]byte) {}, ""},
		{"zero size", put(4, 0), "device: image header: size 0"},
		{"negative size", put(4, 1<<63), "device: image header: size -9223372036854775808"},
		{"too many chunks", put(12, 65), "device: image header: 65 chunks, a device of 4194304 bytes has 64"},
		{"chunk count wraps", put(12, 1<<63|2), "device: image header: 9223372036854775810 chunks, a device of 4194304 bytes has 64"},
		{"index out of range", put(second, 64), "device: image chunk 1 of 2 (byte 65564): index 64, want one above 0 and below 64"},
		{"index negative", put(20, 1<<63), "device: image chunk 0 of 2 (byte 20): index -9223372036854775808, want one above -1 and below 64"},
		{"index repeated", put(second, 0), "device: image chunk 1 of 2 (byte 65564): index 0, want one above 0 and below 64"},
		{"index out of order", func(b []byte) { put(20, 48)(b); put(second, 0)(b) }, "device: image chunk 1 of 2 (byte 65564): index 0, want one above 48 and below 64"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := bytes.Clone(img.Bytes())
			tc.edit(raw)
			check := func(err error, want string) {
				t.Helper()
				if (err == nil) != (tc.want == "") || (err != nil && err.Error() != want) {
					t.Fatalf("load = %v, want %q", err, want)
				}
			}
			_, err := load(costs, bytes.NewReader(raw))
			check(err, tc.want)

			// The same member, second of a two-device stripe.
			var hdr [16]byte
			binary.LittleEndian.PutUint32(hdr[0:], imageMagic+1)
			binary.LittleEndian.PutUint32(hdr[4:], 2)
			binary.LittleEndian.PutUint64(hdr[8:], 64<<10)
			_, err = LoadStripe(clk, costs, io.MultiReader(bytes.NewReader(hdr[:]), bytes.NewReader(img.Bytes()), bytes.NewReader(raw)))
			check(err, "device: stripe member 1 of 2: "+tc.want)
		})
	}
}

func TestStripeImageRoundTrip(t *testing.T) {
	clk := clock.NewVirtual()
	costs := clock.DefaultCosts()
	s := NewStripe(clk, costs, 4, 64<<10, 1<<20)
	payload := bytes.Repeat([]byte{0xCD}, 300<<10)
	s.WriteAt(payload, 12345)

	var img bytes.Buffer
	if err := s.Save(&img); err != nil {
		t.Fatal(err)
	}
	s2, err := LoadStripe(clk, costs, &img)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Devices() != 4 || s2.Size() != s.Size() {
		t.Fatalf("geometry: %d devices, %d bytes", s2.Devices(), s2.Size())
	}
	got := make([]byte, len(payload))
	s2.ReadAt(got, 12345)
	if !bytes.Equal(got, payload) {
		t.Fatal("stripe image corrupted data")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	clk := clock.NewVirtual()
	costs := clock.DefaultCosts()
	if _, err := load(costs, bytes.NewReader([]byte("not an image file...."))); err == nil {
		t.Fatal("garbage device image accepted")
	}
	if _, err := LoadStripe(clk, costs, bytes.NewReader([]byte("not a stripe image..."))); err == nil {
		t.Fatal("garbage stripe image accepted")
	}
}
