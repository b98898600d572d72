package objstore

import (
	"fmt"
	"time"
)

// The read path. Everything the store reads that spans more than one block
// — an index, the object records of an image, the WAL chain, a journal
// extent, the pages of an object — goes through readBatch. What is left on
// the synchronous dev.ReadAt is single blocks on a path whose next step
// depends on them (a superblock slot, one block-map chunk, one demand-paged
// page) and fsck.

// extent is one device byte range of a batched read. addr 0 is a hole: its
// buffer is handed out zeroed and no command is issued (block 0 is a
// superblock slot, never read through a batch).
type extent struct{ addr, n int64 }

// readWindow bounds the buffer memory one batch holds at a time: one stripe
// unit, sixteen pages. The size is a host-speed choice, not a model one (the
// clock waits once per batch whatever the window): an eager restore's
// consumer checksums and copies each page, and with 256 KiB windows it found
// them evicted and ran 8 % slower than the page-at-a-time loop it replaced;
// at 64 KiB it runs level with it.
const readWindow = 64 << 10

// readBatch reads exts at device queue depth. Every extent is submitted
// through SubmitRead back to back, so the queue is charged each transfer's
// occupancy but the command latency overlaps: the caller's clock waits once,
// for the latest completion, instead of once per extent. Buffers are carved
// from one slab and handed to fn in extent order; a batch larger than
// readWindow reuses the slab window by window while the queue stays full, so
// fn may keep data only from a batch that fits one window.
//
// It takes no lock. Reads need no ordering against each other or against
// queued writes: a submitted write is visible to reads at once (the model has
// no volatile cache), and everything read here is copy-on-write state that no
// in-flight write targets.
func (s *Store) readBatch(exts []extent, fn func(i int, data []byte) error) error {
	last, err := s.submitReads(exts, fn)
	if err == nil {
		s.dev.WaitUntil(last)
	}
	return err
}

// submitReads is readBatch without the wait: it returns the latest completion
// time, for a caller (eachPage) that has further extents to queue behind
// these before its clock should stop.
func (s *Store) submitReads(exts []extent, fn func(i int, data []byte) error) (last time.Duration, err error) {
	var total, largest int64
	size := s.dev.Size()
	for _, e := range exts {
		if e.n < 0 || e.addr < 0 || e.addr+e.n > size {
			return 0, fmt.Errorf("%w: read of [%#x,+%d) outside the device", ErrCorrupt, e.addr, e.n)
		}
		total, largest = total+e.n, max(largest, e.n)
	}
	slab := make([]byte, max(min(total, readWindow), largest))
	for i := 0; i < len(exts); {
		used, j := int64(0), i
		for ; j < len(exts) && used+exts[j].n <= int64(len(slab)); j++ {
			buf := slab[used : used+exts[j].n]
			used += exts[j].n
			if exts[j].addr == 0 {
				clear(buf)
				continue
			}
			done, err := s.dev.SubmitRead(buf, exts[j].addr)
			if err != nil {
				return 0, err
			}
			last = max(last, done)
		}
		for used = 0; i < j; i++ {
			end := used + exts[i].n
			if err := fn(i, slab[used:end:end]); err != nil {
				return 0, err
			}
			used = end
		}
	}
	return last, nil
}

// readExtent reads one contiguous range.
func (s *Store) readExtent(addr, n int64) (out []byte, err error) {
	err = s.readBatch([]extent{{addr, n}}, func(_ int, data []byte) error {
		out = data
		return nil
	})
	return out, err
}

// journalReadAhead is a frame scan's read window: one stripe unit, so a window
// is a single member command.
const journalReadAhead = 64 << 10

// frameScan reads a device range front to back, one journalReadAhead window
// at a time, for a scan that decodes frame after frame (a journal extent, the
// WAL region): the scan pays for the frames it walks, not for the range.
type frameScan struct {
	s          *Store
	addr, size int64  // the range on the device
	off        int64  // scan position within it
	win        []byte // bytes read ahead from off
	read       int64  // bytes asked of the device so far
}

// ahead returns the bytes at the scan position: at least n, or all that is
// left of the range. A short window is replaced by one read at the position,
// so a frame longer than a window is read whole and nothing past the range.
func (f *frameScan) ahead(n int64) ([]byte, error) {
	left := f.size - f.off
	if n = min(n, left); int64(len(f.win)) < n {
		want := min(max(n, journalReadAhead), left)
		win, err := f.s.readExtent(f.addr+f.off, want)
		if err != nil {
			return nil, err
		}
		f.win, f.read = win, f.read+want
	}
	return f.win, nil
}

// skip moves the scan position n bytes on.
func (f *frameScan) skip(n int64) {
	f.off += n
	f.win = f.win[min(n, int64(len(f.win))):]
}
