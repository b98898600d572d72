package objstore

import (
	"bytes"
	"fmt"
	"hash/crc32"
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
	if len(data) <= InlineMax {
		return s.mutate(&walOp{kind: walOpPut, oid: oid, utype: utype, data: append([]byte(nil), data...)})
	}
	o.utype = utype
	makePaged(o)
	if err := s.writeRangeLocked(o, 0, data); err != nil {
		return err
	}
	return s.truncateLocked(o, int64(len(data)))
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

// Ensure creates oid as an empty inline object if it does not exist (the
// first page write converts it to a paged one) and marks it dirty if it does.
func (s *Store) Ensure(oid OID, utype uint16) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o, ok := s.objects[oid]; ok {
		o.dirty = true
		return
	}
	_ = s.mutate(&walOp{kind: walOpPut, oid: oid, utype: utype}) // a new object has no chunks to fail on
}

// toPaged converts an inline object to paged form. Requires mu.
func (s *Store) toPaged(o *object) error {
	if o.chunks != nil {
		return nil
	}
	inline := o.inline
	makePaged(o)
	return s.writeRangeLocked(o, 0, inline)
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
	if err := s.writePageLocked(o, pg, data); err != nil {
		return err
	}
	s.extend(o, (pg+1)*BlockSize)
	return nil
}

// writePageLocked is the COW page write: the chunk is faulted in before the
// block is allocated and submitted, then the slot is published. Requires mu.
func (s *Store) writePageLocked(o *object, pg int64, data []byte) error {
	if _, err := s.loadChunk(o, pg, true); err != nil {
		return err
	}
	addr, err := s.allocBlock()
	if err != nil {
		return err
	}
	if _, err := s.submitLocked(data, addr, 0); err != nil {
		return err
	}
	s.stats.DataBytes += BlockSize
	return s.mutate(&walOp{kind: walOpPage, oid: o.oid, utype: o.utype, pg: pg, addr: addr, sum: crc32.ChecksumIEEE(data)})
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
	s.extend(o, off+int64(len(data)))
	return nil
}

// writeRangeLocked requires mu and a paged (or being-paged) object.
func (s *Store) writeRangeLocked(o *object, off int64, data []byte) error {
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
	exts, sums, err := s.pageExtents(o, pgs)
	if err != nil {
		return err
	}
	return s.readBatch(exts, func(i int, page []byte) error {
		if exts[i].addr != 0 {
			if err := checkPage(o.oid, pgs[i], sums[i], page); err != nil {
				return err
			}
		}
		if i == 0 {
			copy(buf, page[off%BlockSize:])
		} else {
			copy(buf[pgs[i]*BlockSize-off:], page)
		}
		return nil
	})
}

// pageExtents maps pages of a paged object to their device extents, holes
// to the zero extent, beside the sum each stored page was committed with.
// Requires mu.
func (s *Store) pageExtents(o *object, pgs []int64) ([]extent, []uint32, error) {
	exts := make([]extent, len(pgs))
	sums := make([]uint32, len(pgs))
	for i, pg := range pgs {
		c, err := s.loadChunk(o, pg, false)
		if err != nil {
			return nil, nil, err
		}
		exts[i].n = BlockSize
		if c != nil {
			exts[i].addr, sums[i] = c.addrs[pg%ChunkFanout], c.sums[pg%ChunkFanout]
		}
	}
	return exts, sums, nil
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
	return s.truncateLocked(o, size)
}

// truncateLocked resizes o and notes the size op. Live, the tail slots are
// retired before the zeroed partial page is rewritten (its block may be one
// of them); the log carries that page's op ahead of the size op, so replay
// publishes the page and then retires the tail. Both orders stay — each one's
// freelist is on the media — and share apply's walk. Requires mu.
func (s *Store) truncateLocked(o *object, size int64) error {
	op := &walOp{kind: walOpSize, oid: o.oid, size: size}
	if err := s.apply(op); err != nil {
		return err
	}
	// Zero the partial tail page so stale bytes never reappear on regrow.
	if in := size % BlockSize; o.chunks != nil && in != 0 {
		pg := size / BlockSize
		page := make([]byte, BlockSize)
		found, err := s.readPageLocked(o, pg, page)
		if err != nil {
			return err
		}
		if found {
			clear(page[in:])
			if err := s.writePageLocked(o, pg, page); err != nil {
				return err
			}
		}
	}
	s.walNote(op)
	return nil
}

// Delete removes oid, retiring its blocks into the deadlist (they remain
// reachable through retained checkpoints until history is released).
func (s *Store) Delete(oid OID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.lookup(oid); err != nil {
		return err
	}
	return s.mutate(&walOp{kind: walOpDelete, oid: oid})
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
// in ascending order when all is set, else exactly pgs, holes as zero pages,
// each stored page checked against its committed sum before fn sees it —
// and returns how many it delivered. The lock is held only to map pages to
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
	stream := func(pgs []int64, exts []extent, sums []uint32) error {
		done, err := s.submitReads(exts, func(i int, data []byte) error {
			if exts[i].addr != 0 {
				if err := checkPage(o.oid, pgs[i], sums[i], data); err != nil {
					return err
				}
			}
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
		exts, sums, err := s.pageExtents(o, pgs)
		s.mu.Unlock()
		if err == nil {
			err = stream(pgs, exts, sums)
		}
		if err != nil {
			return n, err
		}
	} else {
		cis := sortedChunkIdxs(o)
		s.mu.Unlock()
		var exts []extent
		var sums []uint32
		for _, ci := range cis {
			pgs, exts, sums = pgs[:0], exts[:0], sums[:0]
			s.mu.Lock()
			c, err := s.loadChunk(o, ci*ChunkFanout, false)
			if c != nil {
				for slot, a := range c.addrs {
					if a != 0 {
						pgs = append(pgs, ci*ChunkFanout+int64(slot))
						exts = append(exts, extent{a, BlockSize})
						sums = append(sums, c.sums[slot])
					}
				}
			}
			s.mu.Unlock()
			if err == nil {
				err = stream(pgs, exts, sums)
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
