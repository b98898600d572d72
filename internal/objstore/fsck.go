package objstore

import (
	"fmt"
	"hash/crc32"
	"slices"
)

// Fsck: offline consistency verification of the store's committed state —
// the kind of tool an adopter of a new storage system wants on day one.

// FsckReport summarizes a verification pass.
type FsckReport struct {
	Objects        int
	Journals       int
	Blocks         int64 // data + chunk blocks referenced by live objects
	ScrubbedPages  int64 // data pages whose content checksum was verified
	RetainedEpochs int
	Problems       []string
}

// OK reports whether the pass found no problems.
func (r FsckReport) OK() bool { return len(r.Problems) == 0 }

func (r *FsckReport) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Fsck verifies the committed state: every object record decodes, every
// referenced block lies inside the device and is referenced exactly once
// across live objects, journal extents do not overlap data, every data
// page's content matches the per-slot checksum in its block-map chunk
// (catching torn pages and media bit-rot), and every retained checkpoint's
// index loads. It reads only committed structures.
func (s *Store) Fsck() FsckReport {
	var rep FsckReport
	s.mu.Lock()
	devSize := s.dev.Size()
	dataStart := s.dataStart()
	seen := make(map[int64]OID)
	claim := func(oid OID, addr int64, what string) {
		if addr == 0 {
			return
		}
		if addr < dataStart || addr+BlockSize > devSize {
			rep.problemf("object %d: %s block %#x out of device bounds", oid, what, addr)
			return
		}
		if prev, ok := seen[addr]; ok {
			rep.problemf("block %#x referenced by both object %d and %d", addr, prev, oid)
			return
		}
		seen[addr] = oid
		rep.Blocks++
	}

	page := make([]byte, BlockSize)
	for _, oid := range sortedOIDKeys(s.objects) {
		o := s.objects[oid]
		rep.Objects++
		switch {
		case o.journal != nil:
			rep.Journals++
			js := o.journal
			if js.extentAddr < dataStart || js.extentAddr+js.capBlocks*BlockSize > devSize {
				rep.problemf("journal %d: extent [%#x,+%d blocks) out of bounds", oid, js.extentAddr, js.capBlocks)
			}
			for i := int64(0); i < js.capBlocks; i++ {
				claim(oid, js.extentAddr+i*BlockSize, "journal extent")
			}
		case o.chunks != nil:
			for _, ci := range chunkIdxs(o) {
				c := o.chunks[ci]
				if err := s.faultChunk(ci, c); err != nil {
					rep.problemf("object %d: %v", oid, err)
					continue
				}
				claim(oid, c.addr, "chunk")
				for slot, a := range c.addrs {
					claim(oid, a, fmt.Sprintf("page %d", ci*ChunkFanout+int64(slot)))
					// Scrub: the page's bytes must hash to the checksum
					// stored beside its address.
					if a == 0 || a < dataStart || a+BlockSize > devSize {
						continue
					}
					if _, err := s.dev.ReadAt(page, a); err != nil {
						rep.problemf("object %d: page %d at %#x unreadable: %v",
							oid, ci*ChunkFanout+int64(slot), a, err)
						continue
					}
					rep.ScrubbedPages++
					if got := crc32.ChecksumIEEE(page); got != c.sums[slot] {
						rep.problemf("object %d: page %d at %#x checksum %#x, chunk says %#x (torn or rotted)",
							oid, ci*ChunkFanout+int64(slot), a, got, c.sums[slot])
					}
				}
			}
		}
		// The committed record must decode.
		if o.recordAddr != 0 {
			if _, err := s.fetchRecord(o.recordAddr, o.recordLen); err != nil {
				rep.problemf("object %d: record unreadable: %v", oid, err)
			}
		}
	}

	// Free and dead blocks must not alias live references.
	for _, a := range s.freelist {
		if holder, ok := seen[a]; ok {
			rep.problemf("free block %#x also referenced by object %d", a, holder)
		}
	}
	for _, db := range s.deadlist {
		if holder, ok := seen[db.addr]; ok {
			rep.problemf("dead block %#x (epochs %d..%d) also live in object %d",
				db.addr, db.birth, db.freedAt, holder)
		}
	}

	// Retained history must load.
	retained := append([]ckptInfo(nil), s.retained...)
	walBase, walBlocks := s.walBase, s.walBlocks
	walHead, walSeq, epoch := s.walHead, s.walSeq, s.epoch
	s.mu.Unlock()
	for _, c := range retained {
		rep.RetainedEpochs++
		if _, err := s.fetchIndex(c.indexAddr, c.indexLen); err != nil {
			rep.problemf("retained epoch %d: index unreadable: %v", c.epoch, err)
		}
	}
	s.fsckWAL(&rep, walBase, walBlocks, walHead, walSeq, epoch)
	return rep
}

// fsckWAL verifies the reserved WAL region: every frame inside the
// committed head must decode (a CRC mismatch there is corruption, not a
// torn tail), the current generation's sequence numbers must chain 1..walSeq
// contiguously, and no frame anywhere may claim a base epoch the store has
// never committed (an orphaned segment). Bytes past the head that fail to
// decode are a clean torn tail and are ignored.
func (s *Store) fsckWAL(rep *FsckReport, walBase, walBlocks, walHead int64, walSeq uint64, epoch Epoch) {
	if walBlocks == 0 {
		return
	}
	region := make([]byte, walBlocks*BlockSize)
	if _, err := s.dev.ReadAt(region, walBase); err != nil {
		rep.problemf("wal: region unreadable: %v", err)
		return
	}
	var off int64
	var maxSeq uint64
	seenCur := false
	for off < walHead {
		fr, padded, ok := decodeWALFrame(region[off:])
		if !ok {
			rep.problemf("wal: undecodable frame at %#x inside committed head %#x", walBase+off, walHead)
			return
		}
		if fr.base > epoch {
			rep.problemf("wal: orphaned frame at %#x for future epoch %d (store at %d)", walBase+off, fr.base, epoch)
		} else if fr.base == epoch {
			if fr.seq != maxSeq+1 {
				rep.problemf("wal: frame at %#x has seq %d, expected %d", walBase+off, fr.seq, maxSeq+1)
			}
			maxSeq = fr.seq
			seenCur = true
		} else if seenCur {
			rep.problemf("wal: stale generation frame at %#x inside committed head", walBase+off)
		}
		off += padded
	}
	if maxSeq != walSeq {
		rep.problemf("wal: committed chain reaches seq %d, store says %d", maxSeq, walSeq)
	}
	// Past the head: stale generations are fine, future epochs are orphans.
	for off < int64(len(region)) {
		fr, padded, ok := decodeWALFrame(region[off:])
		if !ok {
			break // torn tail or erased space: clean
		}
		if fr.base > epoch {
			rep.problemf("wal: orphaned frame at %#x past head for future epoch %d (store at %d)", walBase+off, fr.base, epoch)
		}
		off += padded
	}
}

// LivePageAddrs returns the device byte address of every committed data
// page referenced by a live object, ascending. This is the scrub surface:
// fault scenarios use it to aim bit-rot at data the fsck checksum pass is
// obligated to catch, deterministically ("rot the Nth live page") instead
// of guessing raw offsets. Unloaded block-map chunks are faulted in the way
// Fsck faults them; undecodable chunks contribute no pages (Fsck reports them
// separately).
func (s *Store) LivePageAddrs() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int64
	for _, oid := range sortedOIDKeys(s.objects) {
		o := s.objects[oid]
		if o.chunks == nil {
			continue
		}
		for _, ci := range chunkIdxs(o) {
			c := o.chunks[ci]
			if s.faultChunk(ci, c) != nil {
				continue // Fsck reports it
			}
			for _, a := range c.addrs {
				if a != 0 {
					out = append(out, a)
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// sortedOIDKeys returns the table's OIDs ascending.
func sortedOIDKeys(m map[OID]*object) []OID {
	out := make([]OID, 0, len(m))
	for oid := range m {
		out = append(out, oid)
	}
	slices.Sort(out)
	return out
}
