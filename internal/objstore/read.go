package objstore

import (
	"fmt"
	"hash/crc32"
	"time"
)

// The read path. Everything the store reads that spans more than one block
// — an index, the object records of an image, the WAL chain, a journal
// extent, the pages of an object — goes through readBatch. What is left on
// the synchronous dev.ReadAt is single blocks on a path whose next step
// depends on them (a superblock slot, one block-map chunk, one demand-paged
// page) and fsck.
//
// Every stored page a read hands out has been checked against the sum it was
// committed with (checkPage): the chunk that maps the page is in memory when
// the page is, so the check costs one CRC of host time and no virtual time,
// and a rotted block fails the read that meets it — a demand fault, a restore's
// prefetch, a file read or a page shipped to a replica — naming the object and
// the page.

// lookup requires mu.
func (im *image) lookup(oid OID) (*object, error) {
	o, ok := im.objects[oid]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoObject, oid)
	}
	return o, nil
}

// The eight read methods of an image. A Store answers them from its live
// table, a View from a retained epoch's; both have them from here, through
// the image they embed, and neither declares one of its own.

// Objects lists the image's OIDs in ascending order.
func (im *image) Objects() []OID {
	im.s.mu.Lock()
	defer im.s.mu.Unlock()
	return sortedOIDKeys(im.objects)
}

// Exists reports whether oid is in the image.
func (im *image) Exists(oid OID) bool {
	im.s.mu.Lock()
	defer im.s.mu.Unlock()
	_, ok := im.objects[oid]
	return ok
}

// UType returns the user type tag of oid.
func (im *image) UType(oid OID) (uint16, error) {
	im.s.mu.Lock()
	defer im.s.mu.Unlock()
	o, err := im.lookup(oid)
	if err != nil {
		return 0, err
	}
	return o.utype, nil
}

// Size returns the byte size of oid.
func (im *image) Size(oid OID) (int64, error) {
	im.s.mu.Lock()
	defer im.s.mu.Unlock()
	o, err := im.lookup(oid)
	if err != nil {
		return 0, err
	}
	return o.size, nil
}

// GetRecord returns the full content of oid.
func (im *image) GetRecord(oid OID) ([]byte, error) {
	im.s.mu.Lock()
	defer im.s.mu.Unlock()
	o, err := im.lookup(oid)
	if err != nil {
		return nil, err
	}
	if o.journal != nil {
		return nil, ErrIsJournal
	}
	if o.chunks == nil {
		return append([]byte(nil), o.inline...), nil
	}
	out := make([]byte, o.size)
	if err := im.s.readRangeLocked(o, 0, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadPage reads page pg of oid into buf (BlockSize bytes). It returns false
// with no error when the page is a hole.
func (im *image) ReadPage(oid OID, pg int64, buf []byte) (bool, error) {
	if len(buf) != BlockSize {
		return false, fmt.Errorf("objstore: ReadPage wants %d bytes, got %d", BlockSize, len(buf))
	}
	im.s.mu.Lock()
	defer im.s.mu.Unlock()
	o, err := im.lookup(oid)
	if err != nil {
		return false, err
	}
	if o.journal != nil {
		return false, ErrIsJournal
	}
	if o.chunks == nil {
		return inlinePage(o.inline, pg, buf), nil
	}
	return im.s.readPageLocked(o, pg, buf)
}

// HasPage reports whether oid stores page pg (without reading the data).
func (im *image) HasPage(oid OID, pg int64) (bool, error) {
	im.s.mu.Lock()
	defer im.s.mu.Unlock()
	o, err := im.lookup(oid)
	if err != nil {
		return false, err
	}
	if o.journal != nil {
		return false, ErrIsJournal
	}
	if o.chunks == nil {
		return pg*BlockSize < int64(len(o.inline)), nil
	}
	c, err := im.s.loadChunk(o, pg, false)
	if err != nil {
		return false, err
	}
	return c != nil && c.addrs[pg%ChunkFanout] != 0, nil
}

// EachPageBulk streams every present page of oid to fn in ascending page
// order, charging pipelined read bandwidth (one queue drain at the end)
// instead of a full command latency per page. This is the eager-restore
// read path: a 200 MiB image loads at device bandwidth.
func (im *image) EachPageBulk(oid OID, fn func(pg int64, data []byte) error) (int64, error) {
	im.s.mu.Lock()
	o, err := im.lookup(oid)
	im.s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return im.s.eachPage(o, nil, true, fn)
}

// inlinePage synthesizes page pg of an inline object's page view into page,
// reporting whether the page holds any of its bytes.
func inlinePage(inline []byte, pg int64, page []byte) bool {
	clear(page)
	off := pg * BlockSize
	if off >= int64(len(inline)) {
		return false
	}
	copy(page, inline[off:])
	return true
}

// readPageLocked reads page pg of a paged object into buf, zeroing it for a
// hole. Requires mu.
func (s *Store) readPageLocked(o *object, pg int64, buf []byte) (bool, error) {
	c, err := s.loadChunk(o, pg, false)
	if err != nil {
		return false, err
	}
	slot := pg % ChunkFanout
	if c == nil || c.addrs[slot] == 0 {
		clear(buf)
		return false, nil
	}
	if _, err := s.dev.ReadAt(buf, c.addrs[slot]); err != nil {
		return false, err
	}
	return true, checkPage(o.oid, pg, c.sums[slot], buf)
}

// checkPage refuses a stored page whose bytes are not the ones it was
// committed with.
func checkPage(oid OID, pg int64, sum uint32, data []byte) error {
	if crc32.ChecksumIEEE(data) != sum {
		return fmt.Errorf("%w: oid %d page %d", ErrPageSum, oid, pg)
	}
	return nil
}

// loadChunk returns the chunk covering page index pg of a paged object,
// faulted in; a chunk the object lacks is nil, or created when create is set.
// Requires mu.
func (s *Store) loadChunk(o *object, pg int64, create bool) (*chunk, error) {
	ci := pg / ChunkFanout
	c, ok := o.chunks[ci]
	if !ok {
		if create {
			c = &chunk{loaded: true}
			o.chunks[ci] = c
		}
		return c, nil
	}
	if err := s.faultChunk(ci, c); err != nil {
		return nil, fmt.Errorf("oid %d %w", o.oid, err)
	}
	return c, nil
}

// faultChunk reads c's slots from its block unless they are in memory: the
// one place a block-map chunk is read. ci names the chunk in the error.
// Requires mu.
func (s *Store) faultChunk(ci int64, c *chunk) error {
	if c.loaded {
		return nil
	}
	buf := make([]byte, BlockSize)
	if _, err := s.dev.ReadAt(buf, c.addr); err != nil {
		return fmt.Errorf("chunk %d unreadable: %w", ci, err)
	}
	if err := decodeChunk(c, buf); err != nil {
		return fmt.Errorf("chunk %d at %#x: %w", ci, c.addr, err)
	}
	return nil
}

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
