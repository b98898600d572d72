package objstore

import (
	"fmt"
	"hash/crc32"
	"slices"
)

// Fsck: consistency verification of the live store and its device image —
// the kind of tool an adopter of a new storage system wants on day one.

// FsckReport summarizes a verification pass.
type FsckReport struct {
	Objects        int
	Journals       int
	Blocks         int64 // data page, chunk and journal extent blocks of live objects
	ScrubbedPages  int64 // data pages whose content checksum was verified
	RetainedEpochs int
	Problems       []string
}

// OK reports whether the pass found no problems.
func (r FsckReport) OK() bool { return len(r.Problems) == 0 }

func (r *FsckReport) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Fsck verifies the store. It runs AuditLive's claim walk over every data
// page too, so it reports every AuditLive rule and proves each block of the
// data region held exactly once; it scrubs every page the walk claims against
// the checksum its chunk stores beside its address (catching torn pages and
// media bit-rot); and it decodes every object record, loads every retained
// checkpoint's index and checks the WAL region. The walk covers the live
// table, so writes of the open interval are checked with the committed state.
func (s *Store) Fsck() FsckReport {
	var rep FsckReport
	var a auditScratch
	buf := make([]byte, BlockSize)
	problems := s.walkClaims(&a, func(oid OID, pg, addr int64, sum uint32) {
		if _, err := s.dev.ReadAt(buf, addr); err != nil {
			rep.problemf("object %d: page %d at %#x unreadable: %v", oid, pg, addr, err)
			return
		}
		rep.ScrubbedPages++
		if got := crc32.ChecksumIEEE(buf); got != sum {
			rep.problemf("object %d: page %d at %#x checksum %#x, chunk says %#x (torn or rotted)",
				oid, pg, addr, got, sum)
		}
	})
	rep.Problems = append(rep.Problems, problems...)
	for _, c := range a.claims {
		if c.kind == claimJournal || c.kind == claimChunk || c.kind == claimPage {
			rep.Blocks += c.n
		}
	}
	for _, o := range s.objects.All() {
		rep.Objects++
		if o.journal != nil {
			rep.Journals++
		}
		if o.recordAddr != 0 {
			if _, err := s.fetchRecord(o.recordAddr, o.recordLen); err != nil {
				rep.problemf("object %d: record unreadable: %v", o.oid, err)
			}
		}
	}

	// Retained history must load.
	for _, c := range s.retained {
		rep.RetainedEpochs++
		if _, err := s.fetchIndex(c.indexAddr, c.indexLen); err != nil {
			rep.problemf("retained epoch %d: index unreadable: %v", c.epoch, err)
		}
	}
	s.fsckWAL(&rep)
	return rep
}

// fsckWAL verifies the reserved WAL region: every frame inside the
// committed head must decode (a CRC mismatch there is corruption, not a
// torn tail), the current generation's sequence numbers must chain 1..walSeq
// contiguously, and no frame anywhere may claim a base epoch the store has
// never committed (an orphaned segment). Bytes past the head that fail to
// decode are a clean torn tail and are ignored.
func (s *Store) fsckWAL(rep *FsckReport) {
	walBase, walHead, walSeq, epoch := s.walBase, s.walHead, uint64(s.walFrames), s.epoch
	if s.walBlocks == 0 {
		return
	}
	region := make([]byte, s.walBlocks*BlockSize)
	if _, err := s.dev.ReadAt(region, walBase); err != nil {
		rep.problemf("wal: region unreadable: %v", err)
		return
	}
	sc := frameScan{size: int64(len(region)), win: region} // in memory: ahead never reads
	var maxSeq uint64
	seenCur := false
	for sc.off < walHead {
		fr, padded, _ := decodeWALFrame(&sc)
		if fr == nil {
			rep.problemf("wal: undecodable frame at %#x inside committed head %#x", walBase+sc.off, walHead)
			return
		}
		if fr.base > epoch {
			rep.problemf("wal: orphaned frame at %#x for future epoch %d (store at %d)", walBase+sc.off, fr.base, epoch)
		} else if fr.base == epoch {
			if fr.seq != maxSeq+1 {
				rep.problemf("wal: frame at %#x has seq %d, expected %d", walBase+sc.off, fr.seq, maxSeq+1)
			}
			maxSeq = fr.seq
			seenCur = true
		} else if seenCur {
			rep.problemf("wal: stale generation frame at %#x inside committed head", walBase+sc.off)
		}
		sc.skip(padded)
	}
	if maxSeq != walSeq {
		rep.problemf("wal: committed chain reaches seq %d, store says %d", maxSeq, walSeq)
	}
	// Past the head: stale generations are fine, future epochs are orphans.
	for sc.off < sc.size {
		fr, padded, _ := decodeWALFrame(&sc)
		if fr == nil {
			break // torn tail or erased space: clean
		}
		if fr.base > epoch {
			rep.problemf("wal: orphaned frame at %#x past head for future epoch %d (store at %d)", walBase+sc.off, fr.base, epoch)
		}
		sc.skip(padded)
	}
}

// LivePageAddrs returns the device byte address of every data page a live
// object references, ascending: the pages Fsck's walk claims and scrubs.
// Fault scenarios use it to aim bit-rot at data the scrub is obligated to
// catch, deterministically ("rot the Nth live page") instead of guessing raw
// offsets. Undecodable chunks contribute no pages (Fsck reports them).
func (s *Store) LivePageAddrs() []int64 {
	var a auditScratch
	var out []int64
	s.walkClaims(&a, func(_ OID, _, addr int64, _ uint32) { out = append(out, addr) })
	slices.Sort(out)
	return out
}
