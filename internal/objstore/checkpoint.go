package objstore

import (
	"fmt"
	"slices"
	"time"

	"aurora/internal/clock"
	"aurora/internal/flight"
	"aurora/internal/trace"
)

// Checkpointing: the commit path, crash recovery, and read-only views of
// retained history.

// CheckpointStats describes one committed checkpoint.
type CheckpointStats struct {
	Epoch         Epoch
	DirtyObjects  int
	MetaBytes     int64
	DurableAt     time.Duration // virtual time the commit is durable
	CommitCharged time.Duration // virtual time charged synchronously
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
	// it before the flight ring is serialized so the committing snapshot
	// carries the fold that absorbed the frames.
	s.mu.Lock()
	foldBase, foldFrames := s.curEpoch(), s.walSeq
	s.mu.Unlock()
	if foldFrames > 0 {
		s.fl.Record(int64(s.clk.Now()), flight.EvWALFold, int64(foldBase), int64(foldFrames), 0, "")
	}
	s.persistFlight()
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := clock.StartStopwatch(s.clk)
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
	for _, oid := range s.oids() {
		o := s.objects[oid]
		if !o.dirty {
			continue
		}
		st.DirtyObjects++
		for _, ci := range sortedChunkIdxs(nil, o) {
			c := o.chunks[ci]
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
	s.deleted = make(map[OID]bool)
	phase.End(trace.I("dirty_objects", int64(st.DirtyObjects)), trace.I("meta_bytes", st.MetaBytes))
	phase = commitSpan.Child("release")

	// 2. Retention: history beyond the bound leaves the retained list and the
	// deadlist BEFORE the index is encoded, so one commit per boot converges.
	// The blocks stage until this superblock is durable (step 6).
	nRet, released := len(s.retained), 0
	if retain > 0 && cur > Epoch(retain) {
		released = s.releaseBeforeLocked(cur - Epoch(retain) + 1)
	}
	phase.End(trace.I("epochs", int64(nRet-len(s.retained))), trace.I("blocks", int64(released)))
	phase = commitSpan.Child("index")

	// 3. Build and write the index. Its map is encoded BEFORE the index's
	// own run is carved out of it, so the index never describes its own
	// storage and its size is known before it is placed: the superblock
	// names the run, and loadIndex takes it back out of the map it loads.
	s.releasing = coalesce(s.releasing)
	e := encodeIndex(s.indexState(cur))
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
	sbDone, err := s.submitLocked(sb, slotOff, s.pendingDurable)
	if err != nil {
		s.releasing = append(s.releasing, blockRun{idxAddr, blocksFor(idxLen)})
		return st, err
	}
	s.superSlot = 1 - s.superSlot
	phase.End(trace.I("epoch", int64(cur)))

	// 5. The committed checkpoint joins retained history. Its index
	// blocks are deliberately NOT deadlisted: their lifetime is implied
	// by the retained list itself (released with the checkpoint).
	s.retained = append(s.retained, ckptInfo{epoch: cur, indexAddr: idxAddr, indexLen: idxLen})
	s.epoch = cur
	s.durableAt[cur] = sbDone
	s.stats.Checkpoints++
	s.stats.MetaBytes += st.MetaBytes

	// 6. Queue staged releases behind this commit's durability horizon.
	// The superblock that no longer references the released history is on
	// the wire, but a power cut before its transfer completes would recover
	// the previous index — which still needs these blocks intact. They
	// become allocatable only once virtual time passes sbDone (see
	// promoteReleasedLocked), though this index's map already lists them.
	if len(s.releasing) > 0 {
		s.releaseQ = append(s.releaseQ, stagedRelease{at: sbDone, runs: s.releasing})
		s.releasing = nil
	}
	s.promoteReleasedLocked()

	// 7. This commit folds any outstanding WAL frames into base state: the
	// new index fully describes them, so their generation is dead. The head
	// reset itself is deferred until virtual time passes sbDone — a crash
	// before that instant recovers the previous superblock, whose epoch
	// still matches the old frames (see maybeResetWALLocked).
	if s.walBlocks > 0 {
		clear(s.walPending) // no frame holds these ops: the next interval reuses the array
		s.walPending = s.walPending[:0]
		if s.walSeq > 0 || s.walHead > 0 {
			s.pendingWALReset = true
			s.walResetAt = sbDone
		}
		if s.walSeq > 0 {
			s.walSeq = 0
			s.walDurable = make(map[uint64]time.Duration)
			if s.tr != nil {
				s.tr.Count("objstore.wal_folds", 1)
			}
		}
	}
	s.observeDurableLocked(sbDone)

	st.DurableAt = sbDone
	st.CommitCharged = sw.Elapsed()
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
// behind the next commit's superblock. Requires mu.
func (s *Store) submitNew(p []byte, addr int64) error {
	_, err := s.submitLocked(p, addr, 0)
	if err != nil {
		s.releasing = append(s.releasing, blockRun{addr, blocksFor(int64(len(p)))})
	}
	return err
}

// persistFlight serializes the flight ring into the reserved FlightOID so
// the committing checkpoint carries the event history that led up to it.
// It runs before the commit takes s.mu (PutRecord locks internally); events
// recorded during the commit itself land in the next epoch's snapshot.
func (s *Store) persistFlight() {
	if s.fl == nil {
		return
	}
	snap, seq := s.fl.Since(0)
	// The ring is bounded (flight.DefaultCap events, capped details), so
	// the snapshot stays an inline record — one contiguous write per epoch.
	_ = s.PutRecord(FlightOID, flight.UType, snap)
	s.mu.Lock()
	s.flSeq = seq // WAL frames carry the events after it (see WALCommit)
	s.mu.Unlock()
}

// indexState snapshots the free map and object table for encoding. Queued
// and staged (coalesced) releases are free in this epoch's map — if this
// commit's superblock lands they are genuinely unreferenced, and if it
// doesn't, recovery reads an older index that never listed them — even
// though the allocator cannot touch them yet. Requires mu.
func (s *Store) indexState(cur Epoch) *indexState {
	idx := &indexState{
		epoch:    cur,
		nextOID:  s.nextOID,
		free:     s.free,
		deadlist: s.deadlist,
		retained: s.retained,
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
	for _, oid := range s.oids() {
		o := s.objects[oid]
		idx.objects = append(idx.objects, indexEntry{oid: oid, addr: o.recordAddr, len: o.recordLen})
	}
	return idx
}

// WaitDurable blocks (in virtual time) until epoch's commit is durable.
func (s *Store) WaitDurable(epoch Epoch) error {
	s.mu.Lock()
	t, ok := s.durableAt[epoch]
	first := false
	if ok && !s.settled[epoch] {
		s.settled[epoch] = true
		first = true
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoEpoch, epoch)
	}
	s.dev.WaitUntil(t)
	if first {
		s.fl.Record(int64(s.clk.Now()), flight.EvDevSettle, int64(epoch), int64(t), 0, "")
	}
	// Waiting past a folding commit's superblock completes its deferred WAL
	// head reset — callers that barrier on the fold see the log reclaimed.
	s.mu.Lock()
	s.maybeResetWALLocked()
	s.mu.Unlock()
	return nil
}

// DurableAt returns the virtual time epoch became durable.
func (s *Store) DurableAt(epoch Epoch) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.durableAt[epoch]
	return t, ok
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
	idx, objects, err := s.openImage(addr, length, sp)
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
	s.image = image{s: s, objects: objects}
	return nil
}

// openImage reads the checkpoint image whose index is at addr: the index,
// then every object record it lists as one batch at device queue depth. A
// record that fails its seal, magic or bounds fails the whole open — there is
// no partial table. The two phases are recorded as children of sp.
func (s *Store) openImage(addr, length int64, sp trace.Span) (*indexState, map[OID]*object, error) {
	idxSpan := sp.Child("index")
	idx, err := s.fetchIndex(addr, length)
	idxSpan.End(trace.I("bytes", length))
	if err != nil {
		return nil, nil, err
	}
	recSpan := sp.Child("records")
	exts := make([]extent, len(idx.objects))
	for i, ent := range idx.objects {
		exts[i] = extent{ent.addr, ent.len}
	}
	objects := make(map[OID]*object, len(exts))
	err = s.readBatch(exts, func(i int, b []byte) error {
		o, err := decodeRecord(b)
		if err != nil {
			return fmt.Errorf("record of object %d at %#x: %w", idx.objects[i].oid, exts[i].addr, err)
		}
		o.recordAddr, o.recordLen = exts[i].addr, exts[i].n
		objects[o.oid] = o
		return nil
	})
	recSpan.End(trace.I("objects", int64(len(exts))))
	if err != nil {
		return nil, nil, err
	}
	return idx, objects, nil
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

// retainedInfo finds a viewable epoch: the current one or any retained.
// Requires mu.
func (s *Store) retainedInfo(epoch Epoch) (ckptInfo, error) {
	for _, c := range s.retained {
		if c.epoch == epoch {
			return c, nil
		}
	}
	return ckptInfo{}, fmt.Errorf("%w: %d", ErrNoEpoch, epoch)
}

// View is a read-only image of one retained checkpoint, used for restoring
// history ("sls restore" of a named checkpoint, time-travel debugging). Its
// read methods are the embedded image's — the ones the Store has, over the
// epoch's object table instead of the live one (read.go).
type View struct {
	image
	epoch Epoch
}

// RestoreView opens a read-only view of epoch. The current epoch and any
// retained epoch are viewable.
func (s *Store) RestoreView(epoch Epoch) (*View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, err := s.retainedInfo(epoch)
	if err != nil {
		return nil, err
	}
	_, objects, err := s.openImage(info.indexAddr, info.indexLen, trace.Span{})
	if err != nil {
		return nil, err
	}
	return &View{image: image{s: s, objects: objects}, epoch: epoch}, nil
}

// Epoch returns the epoch the view images.
func (v *View) Epoch() Epoch { return v.epoch }

// DiffPages reports the page indexes of oid whose stored block differs
// between retained epoch old and the current committed state — the changed
// set a pre-copy migration round must resend. An object absent at the old
// epoch diffs in full. Of the old image it reads the index and the one
// record it compares; ErrNoEpoch means old is no longer retained.
func (s *Store) DiffPages(oid OID, old Epoch) ([]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	var oldObj *object
	for _, ent := range idx.objects {
		if ent.oid == oid {
			if oldObj, err = s.fetchRecord(ent.addr, ent.len); err != nil {
				return nil, err
			}
			break
		}
	}
	// Walk the union of both objects' chunks in sorted order: the per-chunk
	// loadChunk reads must hit the device (and the trace) in a deterministic
	// sequence.
	cidxs := chunkIdxs(cur)
	if oldObj != nil {
		cidxs = append(cidxs, chunkIdxs(oldObj)...)
	}
	slices.Sort(cidxs)
	cidxs = slices.Compact(cidxs)
	var out []int64
	for _, ci := range cidxs {
		curC, err := s.loadChunk(cur, ci*ChunkFanout, false)
		if err != nil {
			return nil, err
		}
		var oldC *chunk
		if oldObj != nil {
			oldC, err = s.loadChunk(oldObj, ci*ChunkFanout, false)
			if err != nil {
				return nil, err
			}
		}
		for slot := int64(0); slot < ChunkFanout; slot++ {
			var ca, oa int64
			if curC != nil {
				ca = curC.addrs[slot]
			}
			if oldC != nil {
				oa = oldC.addrs[slot]
			}
			if ca != oa && ca != 0 {
				out = append(out, ci*ChunkFanout+slot)
			}
		}
	}
	return out, nil
}
