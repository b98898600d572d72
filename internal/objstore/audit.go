package objstore

import (
	"cmp"
	"fmt"
	"slices"
)

// AuditLive checks the store's in-memory structures against each other —
// the free map versus allocated extents, retained-checkpoint ordering,
// durability monotonicity — and returns one message per violation. Unlike
// Fsck, which reads the committed on-device state, AuditLive inspects the
// running store without IO, so the invariant watchdog can call it on a
// cadence. An empty result means every rule held.
func (s *Store) AuditLive() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var problems []string
	prob := func(format string, args ...any) {
		problems = append(problems, "store: "+fmt.Sprintf(format, args...))
	}

	// Claims: every record run, journal extent, block-map chunk block,
	// retained index, free run, staged or queued release and deadlist block,
	// inside the data region and overlapping no other. Data pages are not
	// claimed: they are Fsck's job. Machine.Restore runs this audit inside
	// the restore that the benchmark times, and the free map spans the whole
	// unused device, so claims stay runs: sorted once, swept once.
	limit := s.dev.Size()
	dataStart := s.dataStart()
	type claimed struct {
		blockRun
		what string
	}
	var claims []claimed
	claim := func(addr, n int64, what string) {
		if addr < dataStart || addr%BlockSize != 0 || n <= 0 || n > (limit-addr)/BlockSize {
			prob("%s claims out-of-range run [%d,+%d blocks)", what, addr, n)
			return
		}
		claims = append(claims, claimed{blockRun{addr, n}, what})
	}

	for _, oid := range s.oids() {
		o := s.objects[oid]
		if o.recordAddr != 0 {
			claim(o.recordAddr, blocksFor(o.recordLen), fmt.Sprintf("record of oid %d", oid))
		}
		if o.journal != nil {
			claim(o.journal.extentAddr, o.journal.capBlocks, fmt.Sprintf("journal extent of oid %d", oid))
		}
		for _, ci := range sortedChunkIdxs(o) {
			if c := o.chunks[ci]; c.addr != 0 {
				claim(c.addr, 1, fmt.Sprintf("chunk %d of oid %d", ci, oid))
			}
		}
		if o.size < 0 {
			prob("oid %d has negative size %d", oid, o.size)
		}
	}

	for i, ck := range s.retained {
		claim(ck.indexAddr, blocksFor(ck.indexLen), fmt.Sprintf("index of epoch %d", ck.epoch))
		if i > 0 && ck.epoch <= s.retained[i-1].epoch {
			prob("retained epochs out of order: %d then %d", s.retained[i-1].epoch, ck.epoch)
		}
	}
	if n := len(s.retained); n > 0 && s.retained[n-1].epoch != s.epoch {
		prob("newest retained epoch %d != committed epoch %d", s.retained[n-1].epoch, s.epoch)
	}

	for i, r := range s.free {
		claim(r.addr, r.n, "free map")
		if i > 0 && r.end() >= s.free[i-1].addr {
			prob("free map out of order or unmerged at run %d", i)
		}
	}
	for _, r := range s.releasing {
		claim(r.addr, r.n, "staged release")
	}
	for qi, q := range s.releaseQ {
		for _, r := range q.runs {
			claim(r.addr, r.n, "release queue")
		}
		if qi > 0 && q.at < s.releaseQ[qi-1].at {
			prob("release queue stamps out of order at entry %d", qi)
		}
	}

	// Deadlist entries are history-only: superseded blocks some retained
	// checkpoint may still see, never referenced by the live table above.
	for _, db := range s.deadlist {
		claim(db.addr, 1, "deadlist")
		if db.birth >= db.freedAt {
			prob("deadlist block %d has lifetime [%d,%d)", db.addr, db.birth, db.freedAt)
		}
	}
	slices.SortFunc(claims, func(x, y claimed) int { return cmp.Compare(x.addr, y.addr) })
	var reach claimed // the claim reaching furthest so far
	for _, c := range claims {
		if c.addr < reach.end() {
			prob("block %d claimed by both %s and %s", c.addr, reach.what, c.what)
		}
		if c.end() > reach.end() {
			reach = c
		}
	}

	// Durability times must be monotone in epoch: a later checkpoint can
	// never become durable before an earlier one (an ordered Submit puts
	// every superblock behind its interval).
	epochs := make([]Epoch, 0, len(s.durableAt))
	for e := range s.durableAt {
		epochs = append(epochs, e)
	}
	slices.Sort(epochs)
	for i := 1; i < len(epochs); i++ {
		if s.durableAt[epochs[i]] < s.durableAt[epochs[i-1]] {
			prob("epoch %d durable at %v before epoch %d at %v",
				epochs[i], s.durableAt[epochs[i]], epochs[i-1], s.durableAt[epochs[i-1]])
		}
	}
	if len(epochs) > 0 && epochs[len(epochs)-1] > s.epoch {
		prob("durability recorded for uncommitted epoch %d (committed %d)", epochs[len(epochs)-1], s.epoch)
	}

	// WAL ring geometry: the head stays inside the reserved region on a
	// sector boundary, and committed frames imply a nonzero head.
	if s.walBlocks > 0 {
		if s.walHead < 0 || s.walHead > s.walBlocks*BlockSize {
			prob("wal head %d outside region of %d blocks", s.walHead, s.walBlocks)
		}
		if s.walHead%walSector != 0 {
			prob("wal head %d not sector aligned", s.walHead)
		}
		if s.walSeq > 0 && s.walHead == 0 {
			prob("wal seq %d with empty ring", s.walSeq)
		}
	}
	return problems
}
