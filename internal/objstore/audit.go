package objstore

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// AuditLive checks the store's in-memory structures against each other —
// the free map versus allocated extents, retained-checkpoint ordering,
// durability monotonicity — and returns one message per violation. It is
// Fsck's claim walk without the data pages: it reads nothing from the device,
// so the invariant audit can run it on a live machine. An empty result means
// every rule held.
func (s *Store) AuditLive() []string { return s.walkClaims(&s.audit, nil) }

// walkClaims is the one claim walk, run in a. Every record run, journal
// extent, block-map chunk block, retained index, free run, staged or queued
// release and deadlist block must lie inside the data region and overlap no
// other. Machine.Restore runs AuditLive inside the restore that the benchmark
// times, so each claim is marked in a bitmap of the data region a word at a
// time, and only a claim that lands on a marked block costs a search (see
// auditScratch).
//
// With page nil the walk claims no data page and faults in no chunk. With
// page set it faults in each chunk, claims each live data page and hands it
// to page, and then every block of the bitmap must be held: conservation,
// checked only when every chunk loaded, since an unreadable chunk's pages are
// unknown.
func (s *Store) walkClaims(a *auditScratch, page func(oid OID, pg, addr int64, sum uint32)) []string {
	var problems []string
	prob := func(format string, args ...any) {
		problems = append(problems, "store: "+fmt.Sprintf(format, args...))
	}
	a.reset(s)
	claimRun := func(c claim) bool {
		if !a.mark(c) {
			prob("%s claims out-of-range run [%d,+%d blocks)", c, c.addr, c.n)
			return false
		}
		return true
	}

	loaded := true
	for _, o := range s.objects.All() {
		if o.recordAddr != 0 {
			claimRun(claim{blockRun{o.recordAddr, blocksFor(o.recordLen)}, claimRecord, int64(o.oid), 0})
		}
		if o.journal != nil {
			claimRun(claim{blockRun{o.journal.extentAddr, o.journal.capBlocks}, claimJournal, int64(o.oid), 0})
		}
		for ci, c := range o.chunks.All() {
			if c.addr != 0 {
				claimRun(claim{blockRun{c.addr, 1}, claimChunk, int64(o.oid), ci})
			}
			if page == nil {
				continue
			}
			if err := s.faultChunk(ci, c); err != nil {
				prob("oid %d: %v", o.oid, err)
				loaded = false
				continue
			}
			for slot, addr := range c.addrs {
				pg := ci*ChunkFanout + int64(slot)
				if addr != 0 && claimRun(claim{blockRun{addr, 1}, claimPage, int64(o.oid), pg}) {
					page(o.oid, pg, addr, c.sums[slot])
				}
			}
		}
		if o.size < 0 {
			prob("oid %d has negative size %d", o.oid, o.size)
		}
	}

	// Durability times must be monotone in epoch too: a later checkpoint can
	// never become durable before an earlier one (an ordered Submit puts
	// every superblock behind its interval).
	for i, ck := range s.retained {
		claimRun(claim{blockRun{ck.indexAddr, blocksFor(ck.indexLen)}, claimIndex, int64(ck.epoch), 0})
		if i == 0 {
			continue
		}
		if prev := s.retained[i-1]; ck.epoch <= prev.epoch {
			prob("retained epochs out of order: %d then %d", prev.epoch, ck.epoch)
		} else if ck.durable < prev.durable {
			prob("epoch %d durable at %v before epoch %d at %v", ck.epoch, ck.durable, prev.epoch, prev.durable)
		}
	}
	if n := len(s.retained); n > 0 && s.retained[n-1].epoch != s.epoch {
		prob("newest retained epoch %d != committed epoch %d", s.retained[n-1].epoch, s.epoch)
	}

	for i, r := range s.free {
		claimRun(claim{blockRun: r, kind: claimFree})
		if i > 0 && r.end() >= s.free[i-1].addr {
			prob("free map out of order or unmerged at run %d", i)
		}
	}
	for _, r := range s.releasing {
		claimRun(claim{blockRun: r, kind: claimStaged})
	}
	for qi, q := range s.releaseQ {
		for _, r := range q.runs {
			claimRun(claim{blockRun: r, kind: claimQueued})
		}
		if qi > 0 && q.at < s.releaseQ[qi-1].at {
			prob("release queue stamps out of order at entry %d", qi)
		}
	}

	// Deadlist entries are history-only: superseded blocks some retained
	// checkpoint may still see, never referenced by the live table above.
	for _, db := range s.deadlist {
		claimRun(claim{blockRun: blockRun{db.addr, 1}, kind: claimDead})
		if db.birth >= db.freedAt {
			prob("deadlist block %d has lifetime [%d,%d)", db.addr, db.birth, db.freedAt)
		}
	}
	a.doubleClaims(func(block int64, x, y claim) {
		prob("block %d claimed by both %s and %s", block, x, y)
	})
	if page != nil && loaded {
		if n, first := a.unheld(); n > 0 {
			prob("%d blocks held by nothing, the first at %d", n, first)
		}
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
		if s.walFrames > 0 && s.walHead == 0 {
			prob("wal seq %d with empty ring", s.walFrames)
		}
	}
	return problems
}

// claimKind says what holds a claimed run.
type claimKind uint8

const (
	claimRecord claimKind = iota
	claimJournal
	claimChunk
	claimPage
	claimIndex
	claimFree
	claimStaged
	claimQueued
	claimDead
)

// claimNames names each kind of claim. The first five format the claim's
// (id, ci) by explicit index, so each names only the ids it needs: fmt
// reports no unused argument once a format indexes them.
var claimNames = [...]string{"record of oid %[1]d", "journal extent of oid %[1]d", "chunk %[2]d of oid %[1]d",
	"page %[2]d of oid %[1]d", "index of epoch %[1]d", "free map", "staged release", "release queue", "deadlist"}

// claim is one run the walk accounts for and what holds it: id is the OID of
// a record, journal extent, chunk or page (ci the chunk or page index) and
// the epoch of an index. It is named only when a report needs it.
type claim struct {
	blockRun
	kind   claimKind
	id, ci int64
}

func (c claim) String() string {
	if c.kind < claimFree {
		return fmt.Sprintf(claimNames[c.kind], c.id, c.ci)
	}
	return claimNames[c.kind]
}

// auditScratch is the claim walk's working memory. AuditLive's is kept on
// the store and reused, so an audit of a clean store allocates nothing.
//
// marks holds one bit per block of [lo, hi). hi is the data region's end,
// unless the free map's highest run reaches the device end — as it does on a
// store that has not filled its device — in which case hi is that run's start
// and the run, the top claim, is never marked: any other claim reaching past
// hi overlaps it. The bitmap thus spans the blocks in use, not the device.
type auditScratch struct {
	lo, hi, limit int64
	top           int  // the top claim's index, or -1
	pastTop       bool // some other claim reaches past hi
	claims        []claim
	marks         []uint64
	clashes       []int // claims sharing a block with another, by index
}

// reset readies a for an audit of s, sized for every claim s can make.
func (a *auditScratch) reset(s *Store) {
	a.lo, a.limit = s.dataStart(), s.dev.Size()
	a.hi, a.top, a.pastTop = a.limit, -1, false
	if len(s.free) > 0 && s.free[0].end() == a.limit && a.inRange(s.free[0]) {
		a.hi = s.free[0].addr
	}
	n := len(s.retained) + len(s.free) + len(s.releasing) + len(s.deadlist)
	for _, q := range s.releaseQ {
		n += len(q.runs)
	}
	for _, o := range s.objects.All() {
		n += 2 + o.chunks.Len()
	}
	a.claims = slices.Grow(a.claims[:0], n)
	a.clashes = a.clashes[:0]
	words := int(max(a.hi-a.lo, 0)/BlockSize+63) / 64
	a.marks = slices.Grow(a.marks[:0], words)[:words]
	clear(a.marks)
}

// inRange reports whether r is a nonempty run of whole blocks inside the
// data region.
func (a *auditScratch) inRange(r blockRun) bool {
	return r.addr >= a.lo && r.addr%BlockSize == 0 && r.n > 0 && r.n <= (a.limit-r.addr)/BlockSize
}

// mark records claim c and sets its blocks' bits. A bit already set notes c
// and every earlier claim it overlaps as clashing; so does reaching past hi,
// with the top claim. mark reports false, and records nothing, for a run
// outside the data region.
func (a *auditScratch) mark(c claim) bool {
	if !a.inRange(c.blockRun) {
		return false
	}
	i, end := len(a.claims), c.end()
	a.claims = append(a.claims, c)
	if end > a.hi {
		if a.top < 0 && c.kind == claimFree && c.addr == a.hi {
			a.top = i
			return true
		}
		a.clashes = append(a.clashes, i)
		a.pastTop = true
	}
	if markRun(a.marks, (c.addr-a.lo)/BlockSize, (min(end, a.hi)-a.lo)/BlockSize) {
		for j, p := range a.claims[:i] {
			if p.addr < end && c.addr < p.end() {
				a.clashes = append(a.clashes, j, i)
			}
		}
	}
	return true
}

// markRun sets bits [from, to) of m, a word at a time, and reports whether
// any of them was set already.
func markRun(m []uint64, from, to int64) bool {
	var seen uint64
	for from < to {
		w, b := from/64, from%64
		mask := ^uint64(0) >> (64 - min(64-b, to-from)) << b
		seen |= m[w] & mask
		m[w] |= mask
		from += 64 - b
	}
	return seen != 0
}

// unheld counts the blocks of [lo, hi) no claim marked and finds the first.
func (a *auditScratch) unheld() (n, first int64) {
	nbits := max(a.hi-a.lo, 0) / BlockSize
	for w, m := range a.marks {
		free := ^m
		if tail := nbits - int64(w)*64; tail < 64 {
			free &= 1<<tail - 1
		}
		if free != 0 && n == 0 {
			first = a.lo + (int64(w)*64+int64(bits.TrailingZeros64(free)))*BlockSize
		}
		n += int64(bits.OnesCount64(free))
	}
	return n, first
}

// doubleClaims reports each clashing claim that starts inside one before it
// in address order (ties in claim order), against the one of those reaching
// furthest, at the claim's first block: a sweep of every claim sorted by
// address reports exactly these, since a claim overlapping none can be
// neither reported nor the furthest-reaching partner of one that is.
func (a *auditScratch) doubleClaims(report func(block int64, x, y claim)) {
	if a.pastTop {
		a.clashes = append(a.clashes, a.top)
	}
	slices.SortFunc(a.clashes, func(i, j int) int {
		return cmp.Or(cmp.Compare(a.claims[i].addr, a.claims[j].addr), cmp.Compare(i, j))
	})
	a.clashes = slices.Compact(a.clashes)
	var reach claim // the claim reaching furthest so far
	for _, i := range a.clashes {
		c := a.claims[i]
		if c.addr < reach.end() {
			report(c.addr, reach, c)
		}
		if c.end() > reach.end() {
			reach = c
		}
	}
}
