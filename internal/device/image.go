package device

import (
	"encoding/binary"
	"fmt"
	"io"

	"aurora/internal/clock"
)

// Image persistence: a simulated device's contents can be saved to and
// loaded from a real file, so the sls command-line tool can keep a machine
// image across invocations — each run is a "boot" that recovers the store
// from the image, exactly like powering the simulated machine back on. A
// stripe image is its geometry followed by one image per member.

const imageMagic = 0x41444556 // "ADEV"

// save writes the member's sparse contents.
func (d *member) save(w io.Writer) error {
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:], imageMagic)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(d.size))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(d.chunks.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var ib [8]byte
	for ci, chunk := range d.chunks.All() {
		binary.LittleEndian.PutUint64(ib[:], uint64(ci))
		if _, err := w.Write(ib[:]); err != nil {
			return err
		}
		if _, err := w.Write(chunk); err != nil {
			return err
		}
	}
	return nil
}

// load reads a member image written by save.
func load(costs *clock.Costs, r io.Reader) (*member, error) {
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != imageMagic {
		return nil, fmt.Errorf("device: not a device image")
	}
	// The header is outside input: save wrote a size newMember had accepted,
	// at most one chunk per ChunkSize of it, and the chunks in ascending index
	// order.
	size := int64(binary.LittleEndian.Uint64(hdr[4:]))
	n := binary.LittleEndian.Uint64(hdr[12:])
	if size <= 0 {
		return nil, fmt.Errorf("device: image header: size %d", size)
	}
	limit := (size-1)/ChunkSize + 1
	if n > uint64(limit) {
		return nil, fmt.Errorf("device: image header: %d chunks, a device of %d bytes has %d", n, size, limit)
	}
	d := newMember(costs, size)
	var ib [8]byte
	prev := int64(-1)
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(r, ib[:]); err != nil {
			return nil, err
		}
		ci := int64(binary.LittleEndian.Uint64(ib[:]))
		if ci <= prev || ci >= limit {
			return nil, fmt.Errorf("device: image chunk %d of %d (byte %d): index %d, want one above %d and below %d",
				i, n, uint64(len(hdr))+i*(uint64(len(ib))+ChunkSize), ci, prev, limit)
		}
		prev = ci
		chunk := make([]byte, ChunkSize)
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, err
		}
		d.chunks.Set(ci, chunk)
	}
	return d, nil
}

// Save writes the stripe's geometry and then each member's image.
func (s *Stripe) Save(w io.Writer) error {
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], imageMagic+1)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(s.devs)))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(s.unit))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, d := range s.devs {
		if err := d.save(w); err != nil {
			return err
		}
	}
	return nil
}

// LoadStripe reads a stripe image saved with Stripe.Save.
func LoadStripe(clk clock.Clock, costs *clock.Costs, r io.Reader) (*Stripe, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != imageMagic+1 {
		return nil, fmt.Errorf("device: not a stripe image")
	}
	n := int(binary.LittleEndian.Uint32(hdr[4:]))
	unit := int64(binary.LittleEndian.Uint64(hdr[8:]))
	if n <= 0 || n > 64 || unit <= 0 {
		return nil, fmt.Errorf("device: corrupt stripe image header")
	}
	st := &Stripe{clk: clk, costs: costs, unit: unit}
	for i := 0; i < n; i++ {
		d, err := load(costs, r)
		if err != nil {
			return nil, fmt.Errorf("device: stripe member %d of %d: %w", i, n, err)
		}
		st.devs = append(st.devs, d)
	}
	return st, nil
}
