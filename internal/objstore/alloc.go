package objstore

import "slices"

// Block allocation. The store uses a bump pointer plus a freelist refilled
// by the deadlist scan. COW means a block is never rewritten once it holds
// committed data; blocks become reusable only when no retained checkpoint
// can still see them.

// promoteReleasedLocked moves queued releases whose omitting superblock
// has completed (virtual time passed its transfer) into the allocatable
// pools. Before that instant a power cut could still recover the index
// that references them, so the allocator must not hand them out. Queue
// entries carry monotonically increasing stamps, so a prefix scan
// suffices. Requires mu.
func (s *Store) promoteReleasedLocked() {
	now := s.clk.Now()
	i := 0
	for ; i < len(s.releaseQ) && s.releaseQ[i].at <= now; i++ {
		s.freelist = append(s.freelist, s.releaseQ[i].data...)
		s.metaFree = append(s.metaFree, s.releaseQ[i].meta...)
	}
	if i > 0 {
		s.releaseQ = append(s.releaseQ[:0], s.releaseQ[i:]...)
	}
}

// allocBlock returns one free block address born in the current interval.
// Requires mu.
func (s *Store) allocBlock() (int64, error) {
	s.promoteReleasedLocked()
	if n := len(s.freelist); n > 0 {
		a := s.freelist[n-1]
		s.freelist = s.freelist[:n-1]
		s.stats.BlocksAllocated++
		s.bear(a, 1)
		return a, nil
	}
	a := s.nextBlk * BlockSize
	if a+BlockSize > s.dev.Size() {
		return 0, ErrFull
	}
	s.nextBlk++
	s.stats.BlocksAllocated++
	s.bear(a, 1)
	return a, nil
}

// allocRun returns n contiguous blocks (needed for multi-block records and
// journal extents). Contiguity comes from the bump region, but single-block
// runs recycle through the freelist like any block — otherwise a
// long-running store's per-checkpoint metadata (records, indexes) would
// only ever bump while their freed predecessors pile up in the freelist,
// which is itself serialized into every index: the store would grow
// quadratically while idle. Requires mu.
func (s *Store) allocRun(n int64) (int64, error) {
	if n == 1 {
		return s.allocBlock()
	}
	a := s.nextBlk * BlockSize
	if a+n*BlockSize > s.dev.Size() {
		return 0, ErrFull
	}
	s.nextBlk += n
	s.stats.BlocksAllocated += n
	s.bear(a, n)
	return a, nil
}

// allocMetaRun returns n contiguous blocks for checkpoint indexes,
// preferring the recycled metadata pool over the bump region. Requires mu.
func (s *Store) allocMetaRun(n int64) (int64, error) {
	s.promoteReleasedLocked()
	for i, r := range s.metaFree {
		if r.n >= n {
			addr := r.addr
			if r.n == n {
				s.metaFree = append(s.metaFree[:i], s.metaFree[i+1:]...)
			} else {
				s.metaFree[i] = blockRun{addr: r.addr + n*BlockSize, n: r.n - n}
			}
			s.stats.BlocksAllocated += n
			s.bear(addr, n)
			return addr, nil
		}
	}
	return s.allocRun(n)
}

// bear records the n blocks from addr as born in the current interval,
// growing the birth table to cover them. Requires mu.
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
// reclaimed once no retained checkpoint can see them. Requires mu.
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
		if s.walSeq > 0 || s.claimed != nil {
			// A committed WAL frame of this interval may reference the
			// block: until the fold's superblock is durable, replaying that
			// frame needs it intact. Stage it like a release — serialized
			// as free in the folding index, allocatable only once the fold
			// can no longer be rolled back by a crash.
			s.releasing = append(s.releasing, addr)
		} else {
			// Never visible to any checkpoint: reuse at once.
			s.freelist = append(s.freelist, addr)
		}
		s.stats.BlocksFreed++
		return
	}
	s.deadlist = append(s.deadlist, deadBlock{addr: addr, birth: birth, freedAt: cur})
}

// retireRun retires n consecutive blocks starting at addr. Requires mu.
func (s *Store) retireRun(addr, n int64) {
	for i := int64(0); i < n; i++ {
		s.retireBlock(addr + i*BlockSize)
	}
}

// sweepDeadlist moves deadlist entries no retained checkpoint can see into
// the release stage; they become allocatable once the next commit is
// durable. Requires mu.
func (s *Store) sweepDeadlist() int {
	if len(s.deadlist) == 0 {
		return 0
	}
	// A block with lifetime [birth, freedAt) is still needed iff some
	// retained checkpoint epoch R satisfies birth <= R < freedAt. The live
	// table never references deadlist blocks, so the current epoch is not
	// a holder.
	retained := make([]Epoch, 0, len(s.retained))
	for _, c := range s.retained {
		retained = append(retained, c.epoch)
	}
	freed := 0
	kept := s.deadlist[:0]
	for _, db := range s.deadlist {
		held := false
		for _, r := range retained {
			if r >= db.birth && r < db.freedAt {
				held = true
				break
			}
		}
		if held {
			kept = append(kept, db)
		} else {
			s.releasing = append(s.releasing, db.addr)
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
// the released history. Frees therefore stage in releasing/releasingMeta,
// move to releaseQ at the next commit, and are promoted once virtual time
// passes that commit's superblock completion. The most recent checkpoint
// can never be released.
func (s *Store) ReleaseCheckpointsBefore(epoch Epoch) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.releaseBeforeLocked(epoch)
}

// releaseBeforeLocked is the one release body (the call above, commit step 2); requires mu.
func (s *Store) releaseBeforeLocked(epoch Epoch) int {
	freed := 0
	kept := s.retained[:0]
	for _, c := range s.retained {
		if c.epoch >= epoch || c.epoch == s.epoch {
			kept = append(kept, c)
			continue
		}
		// Index runs recycle through the in-memory metadata pool, never
		// the serialized freelist (see metaFree).
		s.releasingMeta = append(s.releasingMeta, blockRun{addr: c.indexAddr, n: blocksFor(c.indexLen)})
		s.stats.BlocksFreed += blocksFor(c.indexLen)
		freed += int(blocksFor(c.indexLen))
		delete(s.durableAt, c.epoch)
	}
	s.retained = kept
	return freed + s.sweepDeadlist()
}

// RetainedCheckpoints lists the epochs whose full state remains restorable.
func (s *Store) RetainedCheckpoints() []Epoch {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Epoch, len(s.retained))
	for i, c := range s.retained {
		out[i] = c.epoch
	}
	return out
}

// FreeBlocks reports the current freelist length (for tests and tooling).
func (s *Store) FreeBlocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.promoteReleasedLocked()
	return len(s.freelist)
}

// DeadBlocks reports the deadlist length (for tests and tooling).
func (s *Store) DeadBlocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.deadlist)
}
