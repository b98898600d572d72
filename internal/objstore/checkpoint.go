package objstore

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"aurora/internal/flight"
	"aurora/internal/radix"
	"aurora/internal/trace"
)

// Checkpointing: the commit path, crash recovery, and read-only views of
// retained history.

// CheckpointStats describes one committed checkpoint.
type CheckpointStats struct {
	Epoch        Epoch
	DirtyObjects int
	MetaBytes    int64
	DurableAt    time.Duration // virtual time the commit is durable
}

// Checkpoint is CheckpointRetaining with no bound: all history stays.
func (s *Store) Checkpoint() (CheckpointStats, error) { return s.CheckpointRetaining(0) }

// CheckpointRetaining commits all modifications since the previous checkpoint
// as a new epoch. Data blocks were already submitted asynchronously by the
// write paths; the commit writes block-map chunks, object records for dirty
// objects, the index, and finally the superblock. The superblock is ordered
// after everything else is durable, so a crash at any point leaves the
// previous checkpoint intact.
//
// The call itself is cheap in virtual time (metadata submission); the
// returned stats carry the virtual durability time, which callers such as
// the orchestrator wait on before externalizing effects.
//
// retain bounds history inside the commit: all but the retain newest epochs
// (this one included) are released before the index is encoded. The epoch
// before this one always stays — a failed commit falls back to it — so a
// bound of 1 keeps 2, and 0 keeps everything.
func (s *Store) CheckpointRetaining(retain int) (st CheckpointStats, err error) {
	// When WAL frames are outstanding this checkpoint is their fold: record
	// it before the flight ring is cut so the index carries the fold that
	// absorbed the frames. Events recorded during the commit itself land in
	// the next commit's ring.
	if n := s.walFrames; n > 0 {
		s.fl.Record(int64(s.clk.Now()), flight.EvWALFold, int64(s.curEpoch()), int64(n), 0, "")
	}
	ring, ringSeq := s.fl.Since(&s.ring, 0)
	cur := s.curEpoch()
	st = CheckpointStats{Epoch: cur}
	commitSpan := s.tr.Begin(trace.TrackObjstore, "commit")
	phase := commitSpan.Child("meta")
	// A failed commit stays on the timeline: the phase it died in and the
	// commit itself end with the error.
	defer func() {
		if err != nil {
			failed := trace.S("err", err.Error())
			phase.End(failed)
			commitSpan.End(failed)
		}
	}()

	// 1. Flush dirty chunks and records of dirty objects, in OID (and
	// chunk-index) order: a given logical state must always produce the
	// identical submit sequence, because the crash-exploration harness
	// replays checkpoints by submit index.
	for _, o := range s.objects.All() {
		if !o.dirty {
			continue
		}
		st.DirtyObjects++
		for _, c := range o.chunks.All() {
			if !c.dirty {
				continue
			}
			addr, err := s.allocRun(1)
			if err != nil {
				return st, err
			}
			if err := s.submitNew(encodeChunk(c), addr); err != nil {
				return st, err
			}
			s.retireBlock(c.addr)
			c.addr = addr
			c.dirty = false
			st.MetaBytes += BlockSize
		}
		// The old record retires only once its replacement is written, as a
		// chunk does, so a retried commit retires it once.
		rec := encodeRecord(o)
		addr, err := s.allocRun(blocksFor(int64(len(rec))))
		if err != nil {
			return st, err
		}
		if err := s.submitNew(rec, addr); err != nil {
			return st, err
		}
		if o.recordAddr != 0 {
			s.retireRun(o.recordAddr, blocksFor(o.recordLen))
		}
		o.recordAddr = addr
		o.recordLen = int64(len(rec))
		o.dirty = false
		st.MetaBytes += int64(len(rec))
	}
	phase.End(trace.I("dirty_objects", int64(st.DirtyObjects)), trace.I("meta_bytes", st.MetaBytes))
	phase = commitSpan.Child("release")

	// 2. Retention: history beyond the bound leaves the retained list and the
	// deadlist BEFORE the index is encoded, so one commit per boot converges.
	// The blocks stage until this superblock is durable (step 6).
	nRet, released := len(s.retained), 0
	if retain > 0 && cur > Epoch(retain) {
		released = s.ReleaseCheckpointsBefore(cur - Epoch(retain) + 1)
	}
	phase.End(trace.I("epochs", int64(nRet-len(s.retained))), trace.I("blocks", int64(released)))
	phase = commitSpan.Child("index")

	// 3. Build and write the index. Its map is encoded BEFORE the index's
	// own run is carved out of it, so the index never describes its own
	// storage and its size is known before it is placed: the superblock
	// names the run, and loadIndex takes it back out of the map it loads.
	s.releasing = coalesce(s.releasing)
	idx := s.indexState(cur)
	idx.flight = ring
	e := encodeIndex(idx)
	idxLen := int64(e.Len()) + 4
	idxAddr, err := s.allocRun(blocksFor(idxLen))
	if err != nil {
		return st, err
	}
	if err := s.submitNew(e.Seal(), idxAddr); err != nil {
		return st, err
	}
	st.MetaBytes += idxLen
	phase.End(trace.I("index_bytes", idxLen))
	phase = commitSpan.Child("super")

	// 4. Commit: the superblock is submitted with an ordering constraint —
	// its transfer may not begin before every interval write has completed.
	// This is a real device-level barrier, not an accounting fiction: under
	// power loss a plain submit could land while a dependency on another
	// stripe member was still queued, and recovery would follow a valid
	// superblock into rolled-back metadata.
	sb := encodeSuperblock(superblock{
		epoch: cur, indexAddr: idxAddr, indexLen: idxLen,
		walBase: s.walBase, walBlocks: s.walBlocks,
	})
	slotOff := int64(s.superSlot) * BlockSize
	sbDone, err := s.submit(sb, slotOff, s.pendingDurable)
	if err != nil {
		s.releasing = append(s.releasing, blockRun{idxAddr, blocksFor(idxLen)})
		return st, err
	}
	s.superSlot = 1 - s.superSlot
	s.flSeq = ringSeq // WAL frames carry the events after it (see WALCommit)
	phase.End(trace.I("epoch", int64(cur)))

	// 5. The committed checkpoint joins retained history. Its index
	// blocks are deliberately NOT deadlisted: their lifetime is implied
	// by the retained list itself (released with the checkpoint).
	s.retained = append(s.retained, ckptInfo{epoch: cur, indexAddr: idxAddr, indexLen: idxLen, durable: sbDone})
	s.epoch = cur
	s.stats.Checkpoints++
	s.stats.MetaBytes += st.MetaBytes

	// 6. Queue staged releases behind this commit's durability horizon.
	// The superblock that no longer references the released history is on
	// the wire, but a power cut before its transfer completes would recover
	// the previous index — which still needs these blocks intact. They
	// become allocatable only once virtual time passes sbDone (see
	// promoteReleased), though this index's map already lists them.
	if len(s.releasing) > 0 {
		s.releaseQ = append(s.releaseQ, stagedRelease{at: sbDone, runs: s.releasing})
		s.releasing = nil
	}
	s.promoteReleased()

	// 7. This commit folds any outstanding WAL frames into base state: the
	// new index fully describes them, so their generation is dead. The head
	// reset itself waits until virtual time passes sbDone — a crash before
	// that instant recovers the previous superblock, whose epoch still
	// matches the old frames (see maybeResetWAL).
	if s.walBlocks > 0 {
		clear(s.walPending) // no frame holds these ops: the next interval reuses the array
		s.walPending = s.walPending[:0]
		if s.walFrames > 0 {
			s.walFrames = 0
			if s.tr != nil {
				s.tr.Count("objstore.wal_folds", 1)
			}
		}
	}
	s.observeDurable(sbDone)

	st.DurableAt = sbDone
	if s.tr != nil {
		// The commit window stretches from submission to the superblock's
		// durability point — the drain that overlaps resumed execution.
		s.tr.Range(trace.TrackObjstore, "commit.window", commitSpan.Start(), sbDone,
			trace.I("epoch", int64(cur)))
		s.tr.Gauge("objstore.releaseq", int64(len(s.releasing))+int64(len(s.releaseQ)))
		s.tr.Count("objstore.commits", 1)
		s.tr.Count("objstore.meta.bytes", st.MetaBytes)
	}
	commitSpan.End(trace.I("meta_bytes", st.MetaBytes))
	return st, nil
}

// submitNew writes p to the run at addr that the commit just allocated. A
// failed submit stages the run for release, as a failed superblock submit
// stages the index run: nothing the store keeps references it, but a write
// that reported failure may still have landed, so the run is reusable only
// behind the next commit's superblock.
func (s *Store) submitNew(p []byte, addr int64) error {
	_, err := s.submit(p, addr, 0)
	if err != nil {
		s.releasing = append(s.releasing, blockRun{addr, blocksFor(int64(len(p)))})
	}
	return err
}

// indexState snapshots the free map, and names the object table, for
// encoding. Queued
// and staged (coalesced) releases are free in this epoch's map — if this
// commit's superblock lands they are genuinely unreferenced, and if it
// doesn't, recovery reads an older index that never listed them — even
// though the allocator cannot touch them yet.
func (s *Store) indexState(cur Epoch) *indexState {
	idx := &indexState{
		epoch:    cur,
		nextOID:  s.nextOID,
		free:     s.free,
		deadlist: s.deadlist,
		retained: s.retained,
		live:     &s.objects,
	}
	if len(s.releaseQ) > 0 || len(s.releasing) > 0 {
		q := append(s.scratch[:0], s.releasing...)
		for _, r := range s.releaseQ {
			q = append(q, r.runs...)
		}
		s.scratch = coalesce(q)
		s.spare = mergeRuns(s.spare[:0], s.free, s.scratch)
		idx.free = s.spare
	}
	return idx
}

// WaitDurable blocks (in virtual time) until epoch's commit is durable. Any
// retained epoch can be waited on; one loaded from media is durable already.
func (s *Store) WaitDurable(epoch Epoch) error {
	c, err := s.retainedInfo(epoch)
	if err != nil {
		return err
	}
	t, first := c.durable, !c.settled
	c.settled = true
	s.dev.WaitUntil(t)
	if first {
		s.fl.Record(int64(s.clk.Now()), flight.EvDevSettle, int64(epoch), int64(t), 0, "")
	}
	// Waiting past a folding commit's superblock completes its deferred WAL
	// head reset — callers that barrier on the fold see the log reclaimed.
	s.maybeResetWAL()
	return nil
}

// readSuperblocks picks the valid superblock with the highest epoch,
// returning it and its slot.
func (s *Store) readSuperblocks() (superblock, int, error) {
	var best superblock
	slot := -1
	buf := make([]byte, BlockSize)
	for i := 0; i < 2; i++ {
		if _, err := s.dev.ReadAt(buf, int64(i)*BlockSize); err != nil {
			return superblock{}, 0, err
		}
		if sb, ok := decodeSuperblock(buf); ok && (slot == -1 || sb.epoch > best.epoch) {
			best, slot = sb, i
		}
	}
	if slot == -1 {
		return superblock{}, 0, fmt.Errorf("%w: no valid superblock", ErrCorrupt)
	}
	return best, slot, nil
}

// loadIndex replaces the store's live state with the image whose index is at
// addr. Requires the caller to hold no references into the old state.
func (s *Store) loadIndex(addr, length int64, sp trace.Span) error {
	idx, im, err := s.openImage(addr, length, sp)
	if err != nil {
		return err
	}
	s.nextOID = idx.nextOID
	s.free = idx.free
	if !s.claimRun(addr, blocksFor(length)) {
		return fmt.Errorf("%w: index at %#x is not free in its own map", ErrCorrupt, addr)
	}
	s.deadlist = idx.deadlist
	s.retained = append(idx.retained, ckptInfo{epoch: idx.epoch, indexAddr: addr, indexLen: length})
	s.image = im
	if idx.flight != nil {
		s.recovered = [][]byte{idx.flight}
	}
	return nil
}

// openImage reads the checkpoint image whose index is at addr: the index,
// then every object record it lists as one batch at device queue depth. A
// record that fails its seal, magic or bounds, or is not the object its entry
// names, fails the whole open — there is no partial table. The two phases are
// recorded as children of sp.
func (s *Store) openImage(addr, length int64, sp trace.Span) (*indexState, image, error) {
	idxSpan := sp.Child("index")
	idx, err := s.fetchIndex(addr, length)
	idxSpan.End(trace.I("bytes", length))
	if err != nil {
		return nil, image{}, err
	}
	recSpan := sp.Child("records")
	exts := make([]extent, len(idx.objects))
	for i, ent := range idx.objects {
		exts[i] = extent{ent.addr, ent.len}
	}
	im := image{s: s}
	err = s.readBatch(exts, func(i int, b []byte) error {
		o, err := decodeRecord(b)
		if err == nil && o.oid != idx.objects[i].oid {
			err = fmt.Errorf("%w: it is object %d's", ErrCorrupt, o.oid)
		}
		if err != nil {
			return fmt.Errorf("record of object %d at %#x: %w", idx.objects[i].oid, exts[i].addr, err)
		}
		o.recordAddr, o.recordLen = exts[i].addr, exts[i].n
		im.objects.Set(oidKey(o.oid), o)
		return nil
	})
	recSpan.End(trace.I("objects", int64(len(exts))))
	if err != nil {
		return nil, image{}, err
	}
	return idx, im, nil
}

// fetchIndex reads and decodes an index.
func (s *Store) fetchIndex(addr, length int64) (*indexState, error) {
	buf, err := s.readExtent(addr, length)
	if err != nil {
		return nil, err
	}
	return decodeIndex(buf, s.dataStart(), s.dev.Size())
}

// fetchRecord reads and decodes an object record.
func (s *Store) fetchRecord(addr, length int64) (*object, error) {
	buf, err := s.readExtent(addr, length)
	if err != nil {
		return nil, err
	}
	return decodeRecord(buf)
}

// retainedInfo finds a retained epoch's entry, the current epoch's included,
// by binary search: retained is sorted by epoch.
func (s *Store) retainedInfo(epoch Epoch) (*ckptInfo, error) {
	i, ok := slices.BinarySearchFunc(s.retained, epoch, func(c ckptInfo, e Epoch) int { return cmp.Compare(c.epoch, e) })
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoEpoch, epoch)
	}
	return &s.retained[i], nil
}

// View is a read-only image of one retained checkpoint, used for restoring
// history ("sls restore" of a named checkpoint, time-travel debugging). Its
// read methods are the embedded image's — the ones the Store has, over the
// epoch's object table instead of the live one (read.go).
type View struct{ image }

// RestoreView opens a read-only view of epoch. The current epoch and any
// retained epoch are viewable.
func (s *Store) RestoreView(epoch Epoch) (*View, error) {
	info, err := s.retainedInfo(epoch)
	if err != nil {
		return nil, err
	}
	_, im, err := s.openImage(info.indexAddr, info.indexLen, trace.Span{})
	if err != nil {
		return nil, err
	}
	return &View{image: im}, nil
}

// DiffPages reports the page indexes of oid whose stored block differs
// between retained epoch old and the current committed state — the changed
// set a pre-copy migration round must resend. An object absent at the old
// epoch diffs in full. Of the old image it reads the index and the one
// record it compares; ErrNoEpoch means old is no longer retained.
func (s *Store) DiffPages(oid OID, old Epoch) ([]int64, error) {
	info, err := s.retainedInfo(old)
	if err != nil {
		return nil, err
	}
	cur, err := s.lookup(oid)
	if err != nil {
		return nil, err
	}
	idx, err := s.fetchIndex(info.indexAddr, info.indexLen)
	if err != nil {
		return nil, err
	}
	oldObj := &object{} // absent at old: no chunks, so every stored page diffs
	for _, ent := range idx.objects {
		if ent.oid == oid {
			if oldObj, err = s.fetchRecord(ent.addr, ent.len); err != nil {
				return nil, err
			}
			break
		}
	}
	// Walk the union of both objects' chunks in index order: the per-chunk
	// loadChunk reads must hit the device (and the trace) in a deterministic
	// sequence.
	var union radix.Table[struct{}]
	for _, chunks := range []*radix.Table[*chunk]{cur.chunks, oldObj.chunks} {
		for ci := range chunks.All() {
			union.Set(ci, struct{}{})
		}
	}
	var out []int64
	for ci := range union.All() {
		curC, err := s.loadChunk(cur, ci*ChunkFanout, false)
		if err != nil {
			return nil, err
		}
		oldC, err := s.loadChunk(oldObj, ci*ChunkFanout, false)
		if err != nil {
			return nil, err
		}
		if curC == nil {
			continue // nothing stored in it now, nothing to resend
		}
		for slot, a := range curC.addrs {
			if a != 0 && (oldC == nil || oldC.addrs[slot] != a) {
				out = append(out, ci*ChunkFanout+int64(slot))
			}
		}
	}
	return out, nil
}
