package objstore

import (
	"cmp"
	"slices"
)

// Block allocation. Every allocatable block is in one run-length free map,
// s.free: disjoint runs in descending address order, adjacent runs merged.
// Format seeds it with every block past the WAL region. Allocation is first
// fit from the end of the slice — the lowest address that holds the request —
// so a batch of single-block allocations walks up one run and transfers as
// one vectored submit, and taking a block reslices nothing. COW means a block
// is never rewritten once it holds committed data; blocks return to the map
// only when no retained checkpoint can still see them.

// promoteReleased merges queued releases whose omitting superblock
// has completed (virtual time passed its transfer) into the free map, one
// pass per batch. Before that instant a power cut could still recover the
// index that references them, so the allocator must not hand them out.
// Queue entries carry monotonically increasing stamps, so a prefix scan
// suffices.
func (s *Store) promoteReleased() {
	now := s.clk.Now()
	i := 0
	for ; i < len(s.releaseQ) && s.releaseQ[i].at <= now; i++ {
		s.spare = mergeRuns(s.spare[:0], s.free, s.releaseQ[i].runs)
		s.free, s.spare = s.spare, s.free
	}
	if i > 0 {
		s.releaseQ = append(s.releaseQ[:0], s.releaseQ[i:]...)
	}
}

// allocRun returns n contiguous free blocks, born in the current interval:
// the low end of the lowest run that holds them.
func (s *Store) allocRun(n int64) (int64, error) {
	s.promoteReleased()
	for i := len(s.free) - 1; i >= 0; i-- {
		r := &s.free[i]
		if r.n < n {
			continue
		}
		addr := r.addr
		r.addr, r.n = r.addr+n*BlockSize, r.n-n
		if r.n == 0 {
			s.free = slices.Delete(s.free, i, i+1)
		}
		s.stats.BlocksAllocated += n
		s.bear(addr, n)
		return addr, nil
	}
	return 0, ErrFull
}

// findRun is the index of the first run of the free map at or below addr.
func (s *Store) findRun(addr int64) int {
	i, _ := slices.BinarySearchFunc(s.free, addr, func(r blockRun, a int64) int { return cmp.Compare(a, r.addr) })
	return i
}

// freeRun returns the n blocks from addr to the free map at once, merged with
// the runs either side of them.
func (s *Store) freeRun(addr, n int64) {
	i := s.findRun(addr)
	below := i < len(s.free) && s.free[i].end() == addr
	above := i > 0 && addr+n*BlockSize == s.free[i-1].addr
	switch {
	case above && below:
		s.free[i-1] = blockRun{s.free[i].addr, s.free[i].n + n + s.free[i-1].n}
		s.free = slices.Delete(s.free, i, i+1)
	case above:
		s.free[i-1] = blockRun{addr, n + s.free[i-1].n}
	case below:
		s.free[i].n += n
	default:
		s.free = slices.Insert(s.free, i, blockRun{addr, n})
	}
}

// claimRun takes the n blocks from addr out of the free map. It reports
// false, with the map unchanged, unless one free run holds them all.
func (s *Store) claimRun(addr, n int64) bool {
	i := s.findRun(addr)
	if n <= 0 || addr%BlockSize != 0 || i == len(s.free) || n > (s.free[i].end()-addr)/BlockSize {
		return false
	}
	r := s.free[i]
	lo := blockRun{r.addr, (addr - r.addr) / BlockSize}
	s.free[i] = blockRun{addr + n*BlockSize, r.n - n - lo.n} // what is left above
	if lo.n > 0 {
		s.free = slices.Insert(s.free, i+1, lo)
	}
	if s.free[i].n == 0 {
		s.free = slices.Delete(s.free, i, i+1)
	}
	return true
}

// mergeRuns appends the union of the descending run lists a and b to dst,
// descending, with adjacent runs merged. dst may be a[:0] when b is empty.
func mergeRuns(dst, a, b []blockRun) []blockRun {
	for len(a) > 0 || len(b) > 0 {
		var r blockRun
		if len(b) == 0 || len(a) > 0 && a[0].addr > b[0].addr {
			r, a = a[0], a[1:]
		} else {
			r, b = b[0], b[1:]
		}
		if n := len(dst); n > 0 && r.end() == dst[n-1].addr {
			dst[n-1] = blockRun{r.addr, dst[n-1].n + r.n}
		} else {
			dst = append(dst, r)
		}
	}
	return dst
}

// coalesce sorts runs descending and merges adjacent ones, in place.
func coalesce(runs []blockRun) []blockRun {
	slices.SortFunc(runs, func(x, y blockRun) int { return cmp.Compare(y.addr, x.addr) })
	return mergeRuns(runs[:0], runs, nil)
}

// bear records the n blocks from addr as born in the current interval,
// growing the birth table to cover them.
func (s *Store) bear(addr, n int64) {
	first := addr / BlockSize
	if end := int(first + n); end > len(s.birthOf) {
		s.birthOf = slices.Grow(s.birthOf, end-len(s.birthOf))[:end]
	}
	for i := first; i < first+n; i++ {
		s.birthOf[i] = s.curEpoch()
	}
}

// retireBlock marks a block superseded during the current interval. Blocks
// born and retired within the same interval are immediately reusable — this
// is the property that keeps the store free of a garbage-collection pass.
// Blocks born in earlier (committed) epochs join the deadlist and are
// reclaimed once no retained checkpoint can see them.
func (s *Store) retireBlock(addr int64) {
	if addr == 0 {
		return
	}
	var birth Epoch
	if blk := addr / BlockSize; blk < int64(len(s.birthOf)) {
		birth, s.birthOf[blk] = s.birthOf[blk], 0
	}
	cur := s.curEpoch()
	if birth == cur {
		if s.walFrames > 0 {
			// A committed WAL frame of this interval may reference the
			// block: until the fold's superblock is durable, replaying that
			// frame needs it intact. Stage it like a release — serialized
			// as free in the folding index, allocatable only once the fold
			// can no longer be rolled back by a crash.
			s.releasing = append(s.releasing, blockRun{addr, 1})
		} else {
			// Never visible to any checkpoint: reuse at once.
			s.freeRun(addr, 1)
		}
		s.stats.BlocksFreed++
		return
	}
	s.deadlist = append(s.deadlist, deadBlock{addr: addr, birth: birth, freedAt: cur})
}

// retireRun retires n consecutive blocks starting at addr.
func (s *Store) retireRun(addr, n int64) {
	for i := int64(0); i < n; i++ {
		s.retireBlock(addr + i*BlockSize)
	}
}

// sweepDeadlist moves deadlist entries no retained checkpoint can see into
// the release stage; they become allocatable once the next commit is
// durable.
func (s *Store) sweepDeadlist() int {
	// A block with lifetime [birth, freedAt) is still needed iff some
	// retained checkpoint epoch R satisfies birth <= R < freedAt. The live
	// table never references deadlist blocks, so the current epoch is not
	// a holder.
	freed := 0
	kept := s.deadlist[:0]
	for _, db := range s.deadlist {
		held := false
		for _, c := range s.retained {
			if r := c.epoch; r >= db.birth && r < db.freedAt {
				held = true
				break
			}
		}
		if held {
			kept = append(kept, db)
		} else {
			s.releasing = append(s.releasing, blockRun{db.addr, 1})
			s.stats.BlocksFreed++
			freed++
		}
	}
	s.deadlist = kept
	return freed
}

// ReleaseCheckpointsBefore drops history older than epoch and reclaims any
// blocks only that history held — including the released checkpoints' own
// index blocks, whose lifetime is implied by the retained list rather than
// recorded in the deadlist. It returns the number of blocks freed.
//
// The reclaimed blocks are NOT allocatable immediately: until the next
// superblock is durable, a crash still recovers an index that references
// the released history. Frees therefore stage in releasing, move to releaseQ
// at the next commit, and are promoted once virtual time passes that
// commit's superblock completion. The most recent checkpoint can never be
// released.
func (s *Store) ReleaseCheckpointsBefore(epoch Epoch) int {
	freed := 0
	kept := s.retained[:0]
	for _, c := range s.retained {
		if c.epoch >= epoch || c.epoch == s.epoch {
			kept = append(kept, c)
			continue
		}
		s.releasing = append(s.releasing, blockRun{c.indexAddr, blocksFor(c.indexLen)})
		s.stats.BlocksFreed += blocksFor(c.indexLen)
		freed += int(blocksFor(c.indexLen))
	}
	s.retained = kept
	return freed + s.sweepDeadlist()
}

// RetainedCheckpoints lists the epochs whose full state remains restorable.
func (s *Store) RetainedCheckpoints() []Epoch {
	out := make([]Epoch, len(s.retained))
	for i, c := range s.retained {
		out[i] = c.epoch
	}
	return out
}

// FreeRuns reports how many runs the free map holds (for tests and tooling).
func (s *Store) FreeRuns() int {
	s.promoteReleased()
	return len(s.free)
}

// DeadBlocks reports the deadlist length (for tests and tooling).
func (s *Store) DeadBlocks() int { return len(s.deadlist) }
