package objstore

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"slices"
	"time"
)

// Object data paths. Small POSIX-object state lives inline in records;
// memory and file objects store page-granularity blocks reached through
// block-map chunks. All writes are copy-on-write and asynchronous: data is
// submitted to the device immediately and the interval's commit waits for
// durability.

// PutRecord replaces oid's content with data, creating the object if needed.
// Payloads up to InlineMax stay inline in the object record (one metadata
// write at checkpoint time); larger payloads spill to data blocks.
func (s *Store) PutRecord(oid OID, utype uint16, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.holdsLocked(oid, utype, data) {
		// An identical put is not a modification: the object keeps its
		// record where it is, and neither the commit nor the WAL sees it.
		return nil
	}
	o := s.ensure(oid, utype)
	if o.journal != nil {
		return ErrIsJournal
	}
	o.utype = utype
	if len(data) <= InlineMax {
		s.dropChunks(o)
		o.inline = append(o.inline[:0], data...)
		o.size = int64(len(data))
		s.walNote(walOp{kind: walOpPut, oid: oid, utype: utype, data: append([]byte(nil), data...)})
		return nil
	}
	o.inline = nil
	if err := s.writeRangeLocked(o, 0, data); err != nil {
		return err
	}
	if err := s.truncateLocked(o, int64(len(data))); err != nil {
		return err
	}
	s.walNote(walOp{kind: walOpSize, oid: oid, size: o.size})
	return nil
}

// HoldsRecord reports whether PutRecord(oid, utype, data) would be the
// identical put that is not a write. It answers from memory: a record kept
// in data blocks (larger than InlineMax) is never held.
func (s *Store) HoldsRecord(oid OID, utype uint16, data []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.holdsLocked(oid, utype, data)
}

func (s *Store) holdsLocked(oid OID, utype uint16, data []byte) bool {
	o, ok := s.objects[oid]
	return ok && o.utype == utype && o.chunks == nil && o.journal == nil && bytes.Equal(o.inline, data)
}

// GetRecord returns the full content of oid.
func (s *Store) GetRecord(oid OID) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, err := s.lookup(oid)
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
	if err := s.readRangeLocked(o, 0, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Ensure creates oid as an empty paged object if it does not exist.
func (s *Store) Ensure(oid OID, utype uint16) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, existed := s.objects[oid]
	s.ensure(oid, utype)
	if !existed {
		s.walNote(walOp{kind: walOpPut, oid: oid, utype: utype})
	}
}

// Exists reports whether oid is live.
func (s *Store) Exists(oid OID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.objects[oid]
	return ok
}

// UType returns the user type tag of oid.
func (s *Store) UType(oid OID) (uint16, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, err := s.lookup(oid)
	if err != nil {
		return 0, err
	}
	return o.utype, nil
}

// Size returns the byte size of oid.
func (s *Store) Size(oid OID) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, err := s.lookup(oid)
	if err != nil {
		return 0, err
	}
	return o.size, nil
}

// toPaged converts an inline object to paged form. Requires mu.
func (s *Store) toPaged(o *object) error {
	if o.chunks != nil {
		return nil
	}
	inline := o.inline
	o.inline = nil
	o.chunks = make(map[int64]*chunk)
	if len(inline) > 0 {
		return s.writeRangeLocked(o, 0, inline)
	}
	return nil
}

// loadChunk returns the chunk covering page index pg, faulting it from the
// device if needed; creates it when create is set. Requires mu.
func (s *Store) loadChunk(o *object, pg int64, create bool) (*chunk, error) {
	ci := pg / ChunkFanout
	c, ok := o.chunks[ci]
	if !ok {
		if !create {
			return nil, nil
		}
		c = &chunk{loaded: true}
		o.chunks[ci] = c
		return c, nil
	}
	if !c.loaded {
		buf := make([]byte, BlockSize)
		if _, err := s.dev.ReadAt(buf, c.addr); err != nil {
			return nil, err
		}
		if err := decodeChunk(c, buf); err != nil {
			return nil, fmt.Errorf("oid %d chunk %d at %#x: %w", o.oid, ci, c.addr, err)
		}
	}
	return c, nil
}

// WritePage writes one whole page (BlockSize bytes) at page index pg. The
// write is COW: a fresh block is allocated and the old block, if any, is
// retired. The device transfer is asynchronous.
func (s *Store) WritePage(oid OID, pg int64, data []byte) error {
	if len(data) != BlockSize {
		return fmt.Errorf("objstore: WritePage wants %d bytes, got %d", BlockSize, len(data))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o, err := s.lookup(oid)
	if err != nil {
		return err
	}
	if o.journal != nil {
		return ErrIsJournal
	}
	if err := s.toPaged(o); err != nil {
		return err
	}
	o.dirty = true
	if end := (pg + 1) * BlockSize; end > o.size {
		o.size = end
	}
	if err := s.writePageLocked(o, pg, data); err != nil {
		return err
	}
	s.walNote(walOp{kind: walOpSize, oid: oid, size: o.size})
	return nil
}

// writePageLocked is the COW page write. Requires mu.
func (s *Store) writePageLocked(o *object, pg int64, data []byte) error {
	c, err := s.loadChunk(o, pg, true)
	if err != nil {
		return err
	}
	slot := pg % ChunkFanout
	addr, err := s.allocBlock()
	if err != nil {
		return err
	}
	if _, err := s.submitLocked(data, addr, 0); err != nil {
		return err
	}
	s.retireBlock(c.addrs[slot])
	c.addrs[slot] = addr
	c.sums[slot] = crc32.ChecksumIEEE(data)
	c.dirty = true
	o.dirty = true
	s.stats.DataBytes += BlockSize
	s.walNote(walOp{kind: walOpPage, oid: o.oid, utype: o.utype, pg: pg, addr: addr, sum: c.sums[slot]})
	return nil
}

// ReadPage reads page pg of oid into buf (BlockSize bytes). It returns false
// with no error when the page is a hole.
func (s *Store) ReadPage(oid OID, pg int64, buf []byte) (bool, error) {
	if len(buf) != BlockSize {
		return false, fmt.Errorf("objstore: ReadPage wants %d bytes, got %d", BlockSize, len(buf))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o, err := s.lookup(oid)
	if err != nil {
		return false, err
	}
	if o.journal != nil {
		return false, ErrIsJournal
	}
	if o.chunks == nil {
		return inlinePage(o.inline, pg, buf), nil
	}
	return s.readPageLocked(o, pg, buf)
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

// readPageLocked requires mu.
func (s *Store) readPageLocked(o *object, pg int64, buf []byte) (bool, error) {
	c, err := s.loadChunk(o, pg, false)
	if err != nil {
		return false, err
	}
	if c == nil || c.addrs[pg%ChunkFanout] == 0 {
		for i := range buf {
			buf[i] = 0
		}
		return false, nil
	}
	if _, err := s.dev.ReadAt(buf, c.addrs[pg%ChunkFanout]); err != nil {
		return false, err
	}
	return true, nil
}

// HasPage reports whether oid stores page pg (without reading the data).
func (s *Store) HasPage(oid OID, pg int64) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, err := s.lookup(oid)
	if err != nil {
		return false, err
	}
	return s.hasPageLocked(o, pg)
}

// hasPageLocked requires mu.
func (s *Store) hasPageLocked(o *object, pg int64) (bool, error) {
	if o.journal != nil {
		return false, ErrIsJournal
	}
	if o.chunks == nil {
		return pg*BlockSize < int64(len(o.inline)), nil
	}
	c, err := s.loadChunk(o, pg, false)
	if err != nil {
		return false, err
	}
	return c != nil && c.addrs[pg%ChunkFanout] != 0, nil
}

// PageSum returns the CRC32 recorded when oid's page pg was committed —
// the validator's ground truth for speculative restore: a speculated page
// is confirmed by hashing what the group faulted in and comparing against
// this sum, without trusting (or re-reading) the data path that produced
// it. ok is false for holes and for inline objects, which carry no
// per-page sums; those pages are validated by content instead.
func (s *Store) PageSum(oid OID, pg int64) (sum uint32, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, err := s.lookup(oid)
	if err != nil {
		return 0, false, err
	}
	return s.pageSumLocked(o, pg)
}

// pageSumLocked requires mu.
func (s *Store) pageSumLocked(o *object, pg int64) (uint32, bool, error) {
	if o.journal != nil {
		return 0, false, ErrIsJournal
	}
	if o.chunks == nil {
		return 0, false, nil
	}
	c, err := s.loadChunk(o, pg, false)
	if err != nil {
		return 0, false, err
	}
	if c == nil || c.addrs[pg%ChunkFanout] == 0 {
		return 0, false, nil
	}
	return c.sums[pg%ChunkFanout], true, nil
}

// WriteAt writes a byte range, performing read-modify-write at page edges.
func (s *Store) WriteAt(oid OID, off int64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, err := s.lookup(oid)
	if err != nil {
		return err
	}
	if o.journal != nil {
		return ErrIsJournal
	}
	if err := s.toPaged(o); err != nil {
		return err
	}
	if err := s.writeRangeLocked(o, off, data); err != nil {
		return err
	}
	if end := off + int64(len(data)); end > o.size {
		o.size = end
	}
	o.dirty = true
	s.walNote(walOp{kind: walOpSize, oid: oid, size: o.size})
	return nil
}

// writeRangeLocked requires mu and a paged (or being-paged) object.
func (s *Store) writeRangeLocked(o *object, off int64, data []byte) error {
	if o.chunks == nil {
		o.chunks = make(map[int64]*chunk)
	}
	page := make([]byte, BlockSize)
	for len(data) > 0 {
		pg := off / BlockSize
		in := off % BlockSize
		run := BlockSize - in
		if run > int64(len(data)) {
			run = int64(len(data))
		}
		if in != 0 || run != BlockSize {
			if _, err := s.readPageLocked(o, pg, page); err != nil {
				return err
			}
		} else {
			for i := range page {
				page[i] = 0
			}
		}
		copy(page[in:], data[:run])
		if err := s.writePageLocked(o, pg, page); err != nil {
			return err
		}
		data = data[run:]
		off += run
	}
	return nil
}

// ReadAt reads a byte range of oid into buf, zero-filling holes. Reads past
// the object size are truncated; n reports bytes read.
func (s *Store) ReadAt(oid OID, off int64, buf []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, err := s.lookup(oid)
	if err != nil {
		return 0, err
	}
	if o.journal != nil {
		return 0, ErrIsJournal
	}
	if off >= o.size {
		return 0, nil
	}
	if max := o.size - off; int64(len(buf)) > max {
		buf = buf[:max]
	}
	if o.chunks == nil {
		n := 0
		if off < int64(len(o.inline)) {
			n = copy(buf, o.inline[off:])
		}
		for i := n; i < len(buf); i++ {
			buf[i] = 0
		}
		return len(buf), nil
	}
	if err := s.readRangeLocked(o, off, buf); err != nil {
		return 0, err
	}
	return len(buf), nil
}

// readRangeLocked reads a byte range as one batch: the command latency is
// paid once per range, not once per page (a multi-page file read behaves
// like a queued sequential read, as on real NVMe). Requires mu.
func (s *Store) readRangeLocked(o *object, off int64, buf []byte) error {
	if len(buf) == 0 {
		return nil
	}
	first := off / BlockSize
	pgs := make([]int64, (off+int64(len(buf))-1)/BlockSize-first+1)
	for i := range pgs {
		pgs[i] = first + int64(i)
	}
	exts, err := s.pageExtents(o, pgs)
	if err != nil {
		return err
	}
	return s.readBatch(exts, func(i int, page []byte) error {
		if i == 0 {
			copy(buf, page[off%BlockSize:])
		} else {
			copy(buf[pgs[i]*BlockSize-off:], page)
		}
		return nil
	})
}

// pageExtents maps pages of a paged object to their device extents, holes
// to the zero extent. Requires mu.
func (s *Store) pageExtents(o *object, pgs []int64) ([]extent, error) {
	exts := make([]extent, len(pgs))
	for i, pg := range pgs {
		c, err := s.loadChunk(o, pg, false)
		if err != nil {
			return nil, err
		}
		exts[i].n = BlockSize
		if c != nil {
			exts[i].addr = c.addrs[pg%ChunkFanout]
		}
	}
	return exts, nil
}

// Truncate sets oid's size, retiring blocks past the end.
func (s *Store) Truncate(oid OID, size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, err := s.lookup(oid)
	if err != nil {
		return err
	}
	if o.journal != nil {
		return ErrIsJournal
	}
	o.dirty = true
	if err := s.truncateLocked(o, size); err != nil {
		return err
	}
	s.walNote(walOp{kind: walOpSize, oid: oid, size: size})
	return nil
}

// truncateLocked requires mu.
func (s *Store) truncateLocked(o *object, size int64) error {
	if o.chunks == nil {
		if size <= int64(len(o.inline)) {
			o.inline = o.inline[:size]
		} else {
			o.inline = append(o.inline, make([]byte, size-int64(len(o.inline)))...)
		}
		o.size = size
		return nil
	}
	lastPg := (size + BlockSize - 1) / BlockSize // first page index to drop
	cis := make([]int64, 0, len(o.chunks))
	for ci := range o.chunks {
		cis = append(cis, ci)
	}
	slices.Sort(cis) // retire in a fixed order: the freelist feeds the
	// deterministic submit stream the crash harness replays
	for _, ci := range cis {
		first := ci * ChunkFanout
		if first+ChunkFanout <= lastPg {
			continue
		}
		c, err := s.loadChunk(o, first, false)
		if err != nil {
			return err
		}
		if c == nil {
			continue
		}
		empty := true
		for slot := int64(0); slot < ChunkFanout; slot++ {
			pg := first + slot
			if pg >= lastPg {
				if c.addrs[slot] != 0 {
					s.retireBlock(c.addrs[slot])
					c.addrs[slot] = 0
					c.sums[slot] = 0
					c.dirty = true
				}
			} else if c.addrs[slot] != 0 {
				empty = false
			}
		}
		if empty && first >= lastPg {
			s.retireBlock(c.addr)
			delete(o.chunks, ci)
		}
	}
	// Zero the partial tail page so stale bytes never reappear on regrow.
	if in := size % BlockSize; in != 0 {
		pg := size / BlockSize
		page := make([]byte, BlockSize)
		found, err := s.readPageLocked(o, pg, page)
		if err != nil {
			return err
		}
		if found {
			for i := in; i < BlockSize; i++ {
				page[i] = 0
			}
			if err := s.writePageLocked(o, pg, page); err != nil {
				return err
			}
		}
	}
	o.size = size
	o.dirty = true
	return nil
}

// dropChunks retires all of an object's data and chunk blocks, in chunk
// order so the freelist stays deterministic. Requires mu.
func (s *Store) dropChunks(o *object) {
	cis := make([]int64, 0, len(o.chunks))
	for ci := range o.chunks {
		cis = append(cis, ci)
	}
	slices.Sort(cis)
	for _, ci := range cis {
		c := o.chunks[ci]
		if c.loaded {
			for _, a := range c.addrs {
				s.retireBlock(a)
			}
		} else if c.addr != 0 {
			// Chunk never faulted in: load addresses to retire them.
			buf := make([]byte, BlockSize)
			if _, err := s.dev.ReadAt(buf, c.addr); err == nil {
				if err := decodeChunk(c, buf); err == nil {
					for _, a := range c.addrs {
						s.retireBlock(a)
					}
				}
			}
		}
		s.retireBlock(c.addr)
		delete(o.chunks, ci)
	}
	o.chunks = nil
}

// Delete removes oid, retiring its blocks into the deadlist (they remain
// reachable through retained checkpoints until history is released).
func (s *Store) Delete(oid OID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, err := s.lookup(oid)
	if err != nil {
		return err
	}
	if o.journal != nil {
		s.retireRun(o.journal.extentAddr, o.journal.capBlocks)
	}
	s.dropChunks(o)
	if o.recordAddr != 0 {
		s.retireRun(o.recordAddr, blocksFor(o.recordLen))
	}
	delete(s.objects, oid)
	s.deleted[oid] = true
	s.walNote(walOp{kind: walOpDelete, oid: oid})
	return nil
}

// EachPageBulk streams every present page of oid to fn in ascending page
// order, charging pipelined read bandwidth (one queue drain at the end)
// instead of a full command latency per page. This is the eager-restore
// read path: a 200 MiB image loads at device bandwidth.
func (s *Store) EachPageBulk(oid OID, fn func(pg int64, data []byte) error) (int64, error) {
	s.mu.Lock()
	o, err := s.lookup(oid)
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return s.eachPage(o, nil, true, fn)
}

// EachPageOf streams the listed pages of oid to fn in the order given, the
// same way EachPageBulk streams all of them: what a ReadPage loop over pgs
// would deliver (a hole is a zero page), at one command latency for the
// lot. This is the delta-ship read path.
func (s *Store) EachPageOf(oid OID, pgs []int64, fn func(pg int64, data []byte) error) error {
	s.mu.Lock()
	o, err := s.lookup(oid)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	_, err = s.eachPage(o, pgs, false, fn)
	return err
}

// eachPage streams pages of a live or view object to fn — every stored page
// in ascending order when all is set, else exactly pgs, holes as zero pages
// — and returns how many it delivered. The lock is held only to map pages to
// extents, chunk by chunk, so the stream runs concurrently with other store
// users; the clock waits once, after the last chunk's reads are queued.
func (s *Store) eachPage(o *object, pgs []int64, all bool, fn func(pg int64, data []byte) error) (n int64, err error) {
	s.mu.Lock()
	if o.journal != nil {
		s.mu.Unlock()
		return 0, ErrIsJournal
	}
	if o.chunks == nil {
		// Inline object: synthesize the page view from a private copy.
		inline := append([]byte(nil), o.inline...)
		s.mu.Unlock()
		if all {
			for pg := int64(0); pg < blocksFor(int64(len(inline))); pg++ {
				pgs = append(pgs, pg)
			}
		}
		page := make([]byte, BlockSize)
		for _, pg := range pgs {
			inlinePage(inline, pg, page)
			if err := fn(pg, page); err != nil {
				return n, err
			}
			n++
		}
		return n, nil
	}
	// stream queues one batch of page reads behind whatever is already queued.
	var last time.Duration
	stream := func(pgs []int64, exts []extent) error {
		done, err := s.submitReads(exts, func(i int, data []byte) error {
			if err := fn(pgs[i], data); err != nil {
				return err
			}
			n++
			return nil
		})
		last = max(last, done)
		return err
	}
	if !all {
		exts, err := s.pageExtents(o, pgs)
		s.mu.Unlock()
		if err == nil {
			err = stream(pgs, exts)
		}
		if err != nil {
			return n, err
		}
	} else {
		cis := sortedChunkIdxs(o)
		s.mu.Unlock()
		var exts []extent
		for _, ci := range cis {
			pgs, exts = pgs[:0], exts[:0]
			s.mu.Lock()
			c, err := s.loadChunk(o, ci*ChunkFanout, false)
			if c != nil {
				for slot, a := range c.addrs {
					if a != 0 {
						pgs = append(pgs, ci*ChunkFanout+int64(slot))
						exts = append(exts, extent{a, BlockSize})
					}
				}
			}
			s.mu.Unlock()
			if err == nil {
				err = stream(pgs, exts)
			}
			if err != nil {
				return n, err
			}
		}
	}
	s.dev.WaitUntil(last)
	return n, nil
}

// blocksFor returns the block count spanning n bytes.
func blocksFor(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return (n + BlockSize - 1) / BlockSize
}
