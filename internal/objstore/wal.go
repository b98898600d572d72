package objstore

// WAL-first incremental commit. A reserved region of the device directly
// after the superblocks holds a ring of CRC-framed delta records: each
// WALCommit serializes the interval's logical mutations (page publishes,
// inline puts, size changes, deletes, journal state changes) into one frame
// and appends it with a device-level ordering constraint, making the store
// durable without rewriting object records or the index. A later fold — an
// ordinary Checkpoint — absorbs the frames into base objects, after which
// the frame generation is dead; the head resets (log-structured GC) once
// the folding superblock is durable, so a crash before that instant still
// finds every frame the recoverable superblock needs.
//
// Recovery first loads the newest superblock's index, then scans the WAL
// region: frames whose base epoch matches the recovered epoch replay in
// sequence order, torn or stale tails terminate the scan. Replay runs the
// apply the live mutators run (apply.go) and reconciles the allocator: blocks
// a frame references are claimed out of the free pools, and bump-range blocks
// no committed frame ever referenced return to the freelist.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"aurora/internal/clock"
	"aurora/internal/flight"
	"aurora/internal/rec"
	"aurora/internal/trace"
)

// ErrWALFull is returned by WALCommit when the frame does not fit in the
// reserved region; the caller folds (Fold) to reclaim it and may retry.
var ErrWALFull = errors.New("objstore: wal region full")

// walSector is the append granularity: frames are padded to the 512-byte
// atom the device tears at, so a torn append can never corrupt the frame
// before it.
const walSector = 512

// DefaultWALBlocks caps the reserved region at 4 MiB.
const DefaultWALBlocks = 1024

// walHeaderLen is magic(4) + frameLen(4) + base(8) + seq(8) + nextOID(8) +
// nextBlk(8) + nops(4).
const walHeaderLen = 44

// walBlocksFor sizes the reserved region: an eighth of the device, clamped
// to [4, DefaultWALBlocks] blocks.
func walBlocksFor(devSize int64) int64 {
	n := devSize / BlockSize / 8
	if n < 4 {
		n = 4
	}
	if n > DefaultWALBlocks {
		n = DefaultWALBlocks
	}
	return n
}

// dataStart is the first byte the block allocator may hand out: past the
// superblocks and the reserved WAL region. Requires mu (or a quiescent
// store — the geometry never changes after Format/Recover).
func (s *Store) dataStart() int64 {
	if s.walBlocks > 0 {
		return s.walBase + s.walBlocks*BlockSize
	}
	return 2 * BlockSize
}

// WAL delta-record kinds.
const (
	walOpPut     = 1 // inline record payload (copied)
	walOpPage    = 2 // COW page publish: slot -> already-submitted block
	walOpSize    = 3 // explicit size change (shrink retires tail slots)
	walOpDelete  = 4 // object removal
	walOpJournal = 5 // journal create / truncate (extent + generation)
	walOpFlight  = 6 // flight events since the last persisted ring (flight.Merge)
)

// walOp is one logical mutation captured for replay.
type walOp struct {
	kind  uint8
	oid   OID
	utype uint16
	pg    int64
	addr  int64
	size  int64
	sum   uint32
	gen   uint64
	fseq  uint64
	data  []byte
}

// walFrame is one committed delta record.
type walFrame struct {
	base    Epoch // epoch the deltas apply on top of
	seq     uint64
	nextOID OID
	nextBlk int64
	ops     []walOp
}

// walNote captures op into the pending delta set. Replay records nothing:
// what it applies is in the log already. Requires mu.
func (s *Store) walNote(op *walOp) {
	if s.claimed != nil || s.walBlocks == 0 {
		return
	}
	s.walPending = append(s.walPending, *op)
}

// encodeWALFrame serializes fr, sealed but not sector-padded.
func encodeWALFrame(fr *walFrame) []byte {
	var ops rec.Encoder
	for _, op := range fr.ops {
		ops.U8(op.kind)
		ops.U64(uint64(op.oid))
		switch op.kind {
		case walOpPut:
			ops.U16(op.utype)
			ops.Bytes(op.data)
		case walOpPage:
			ops.U16(op.utype)
			ops.I64(op.pg)
			ops.I64(op.addr)
			ops.U32(op.sum)
		case walOpSize:
			ops.I64(op.size)
		case walOpDelete:
		case walOpJournal:
			ops.U16(op.utype)
			ops.I64(op.addr)
			ops.I64(op.size)
			ops.U64(op.gen)
			ops.U64(op.fseq)
		case walOpFlight:
			ops.I64(op.size) // ring capacity
			ops.Bytes(op.data)
		}
	}
	frameLen := walHeaderLen + ops.Len() + 4
	var e rec.Encoder
	e.U32(magicWAL)
	e.U32(uint32(frameLen))
	e.U64(uint64(fr.base))
	e.U64(fr.seq)
	e.U64(uint64(fr.nextOID))
	e.I64(fr.nextBlk)
	e.U32(uint32(len(fr.ops)))
	e.Append(ops.Raw())
	return e.Seal()
}

// decodeWALFrame parses the frame at the start of b. ok is false for
// anything that is not a complete, checksummed frame (torn tail, stale
// bytes, garbage). padded is the frame's footprint in the ring.
func decodeWALFrame(b []byte) (fr *walFrame, padded int64, ok bool) {
	if len(b) < walHeaderLen+4 {
		return nil, 0, false
	}
	if binary.LittleEndian.Uint32(b) != magicWAL {
		return nil, 0, false
	}
	frameLen := int64(binary.LittleEndian.Uint32(b[4:]))
	if frameLen < walHeaderLen+4 || frameLen > int64(len(b)) {
		return nil, 0, false
	}
	d, err := rec.NewDecoder(b[:frameLen])
	if err != nil {
		return nil, 0, false
	}
	d.U32() // magic
	d.U32() // frameLen
	fr = &walFrame{
		base:    Epoch(d.U64()),
		seq:     d.U64(),
		nextOID: OID(d.U64()),
		nextBlk: d.I64(),
	}
	nops := int(d.U32())
	if nops < 0 || nops > len(b) {
		return nil, 0, false
	}
	for i := 0; i < nops && d.Err() == nil; i++ {
		op := walOp{kind: d.U8(), oid: OID(d.U64())}
		switch op.kind {
		case walOpPut:
			op.utype = d.U16()
			op.data = d.Bytes()
		case walOpPage:
			op.utype = d.U16()
			op.pg = d.I64()
			op.addr = d.I64()
			op.sum = d.U32()
		case walOpSize:
			op.size = d.I64()
		case walOpDelete:
		case walOpJournal:
			op.utype = d.U16()
			op.addr = d.I64()
			op.size = d.I64()
			op.gen = d.U64()
			op.fseq = d.U64()
		case walOpFlight:
			op.size = d.I64()
			op.data = d.Bytes()
		default:
			return nil, 0, false
		}
		fr.ops = append(fr.ops, op)
	}
	if d.Err() != nil {
		return nil, 0, false
	}
	padded = (frameLen + walSector - 1) / walSector * walSector
	return fr, padded, true
}

// WALCommitStats describes one WAL commit.
type WALCommitStats struct {
	Base          Epoch // epoch the frame applies on top of
	Seq           uint64
	Bytes         int64
	DurableAt     time.Duration
	CommitCharged time.Duration
}

// WALCommit makes the interval's mutations durable by appending one delta
// frame to the reserved WAL region instead of running a full checkpoint.
// The frame is ordered behind the interval's write-behind horizon — the
// same barrier discipline as the superblock — so it can never land on media
// that lost a block it references. Dirty state stays dirty: a later fold
// (Checkpoint) absorbs it into base objects. Returns ErrWALFull, with the
// pending deltas intact, when the region cannot take the frame.
func (s *Store) WALCommit() (WALCommitStats, error) {
	// The append event is recorded before the flight tail is cut so frame
	// N's ring carries appends 1..N — the crash-phase evidence the harness
	// checks after replay. The tail is the events FlightOID's ring lacks.
	s.mu.Lock()
	peekBase, peekSeq, flSeq := s.epoch, s.walSeq+1, s.flSeq
	s.mu.Unlock()
	s.fl.Record(int64(s.clk.Now()), flight.EvWALAppend, int64(peekBase), int64(peekSeq), 0, "")
	tail, flSeq := s.fl.Since(flSeq)

	s.mu.Lock()
	defer s.mu.Unlock()
	sw := clock.StartStopwatch(s.clk)
	span := s.tr.Begin(trace.TrackObjstore, "wal.append")
	s.maybeResetWALLocked()
	fr := &walFrame{
		base:    s.epoch,
		seq:     s.walSeq + 1,
		nextOID: s.nextOID,
		nextBlk: s.nextBlk,
		ops:     s.walPending,
	}
	flightOp := walOp{kind: walOpFlight, oid: FlightOID, size: int64(s.fl.Cap()), data: tail}
	if s.fl != nil {
		// Appended to the frame's view only: a failed commit leaves the
		// pending deltas as they were, and the retry cuts a fresh tail.
		fr.ops = append(fr.ops, flightOp)
	}
	st := WALCommitStats{Base: fr.base, Seq: fr.seq}
	body := encodeWALFrame(fr)
	total := (int64(len(body)) + walSector - 1) / walSector * walSector
	if s.walHead+total > s.walBlocks*BlockSize {
		span.End(trace.I("full", 1))
		return st, fmt.Errorf("%w: frame %d bytes, %d free", ErrWALFull,
			total, s.walBlocks*BlockSize-s.walHead)
	}
	vec := [][]byte{body}
	if pad := total - int64(len(body)); pad > 0 {
		vec = append(vec, make([]byte, pad))
	}
	done, err := s.dev.Submit(vec, s.walBase+s.walHead, s.pendingDurable)
	if err != nil {
		span.End()
		return st, err
	}
	if s.fl != nil {
		// The live ring advances exactly as replay will advance it.
		if err := s.apply(&flightOp); err != nil {
			span.End()
			return st, err
		}
		s.flSeq = flSeq
	}
	s.walHead += total
	s.walSeq = fr.seq
	s.walPending = nil
	s.pendingDurable = done
	s.walDurable[fr.seq] = done
	s.observeDurableLocked(done)
	st.Bytes = total
	st.DurableAt = done
	st.CommitCharged = sw.Elapsed()
	if s.tr != nil {
		s.tr.Count("objstore.wal_appends", 1)
		s.tr.Count("objstore.wal.bytes", total)
		s.tr.Gauge("objstore.wal_head", s.walHead)
	}
	span.End(trace.I("seq", int64(fr.seq)), trace.I("bytes", total), trace.I("ops", int64(len(fr.ops))))
	return st, nil
}

// observeDurableLocked feeds the durable-window histogram: the virtual gap
// between consecutive durability points, the store's recovery-loss bound.
// Requires mu.
func (s *Store) observeDurableLocked(done time.Duration) {
	if s.lastDurable > 0 && done > s.lastDurable {
		s.tr.Observe("objstore.durable.gap.ns", int64(done-s.lastDurable))
	}
	s.lastDurable = done
}

// maybeResetWALLocked performs the deferred head reset: once virtual time
// passes the fold's superblock completion, no recoverable superblock can
// need the folded generation's frames, and the ring restarts from zero.
// Requires mu.
func (s *Store) maybeResetWALLocked() {
	if !s.pendingWALReset || s.clk.Now() < s.walResetAt {
		return
	}
	s.pendingWALReset = false
	if s.walHead == 0 {
		return
	}
	reclaimed := s.walHead
	s.walHead = 0
	s.fl.Record(int64(s.clk.Now()), flight.EvWALGC, reclaimed, int64(s.epoch), 0, "")
	if s.tr != nil {
		s.tr.Count("objstore.wal_gc.bytes", reclaimed)
		s.tr.Instant(trace.TrackObjstore, "wal.gc", trace.I("bytes", reclaimed))
	}
}

// Fold runs a full checkpoint, waits for it to become durable, and resets
// the WAL head. It is the guaranteed-progress fallback for ErrWALFull: on
// return the region is empty.
func (s *Store) Fold() (CheckpointStats, error) {
	cst, err := s.Checkpoint()
	if err != nil {
		return cst, err
	}
	if err := s.WaitDurable(cst.Epoch); err != nil {
		return cst, err
	}
	s.mu.Lock()
	s.maybeResetWALLocked()
	s.mu.Unlock()
	return cst, nil
}

// WALSeq returns the sequence number of the last committed WAL frame in the
// current generation (0 right after a fold or when the WAL is unused).
func (s *Store) WALSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walSeq
}

// WALHead returns the byte offset past the last appended frame in the
// reserved region (for tests and tooling).
func (s *Store) WALHead() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walHead
}

// WALRegion returns the reserved region's device offset and size in bytes.
func (s *Store) WALRegion() (base, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walBase, s.walBlocks * BlockSize
}

// WaitWALDurable blocks (in virtual time) until WAL frame seq of the
// current generation is durable. Sequence numbers folded away by a
// checkpoint fall back to the fold's own durability point, which covers
// them by construction.
func (s *Store) WaitWALDurable(seq uint64) error {
	s.mu.Lock()
	t, ok := s.walDurable[seq]
	if !ok {
		t, ok = s.durableAt[s.epoch]
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: wal seq %d", ErrNoEpoch, seq)
	}
	s.dev.WaitUntil(t)
	s.mu.Lock()
	s.maybeResetWALLocked()
	s.mu.Unlock()
	return nil
}

// walRecover replays the WAL chain the crash left on top of the loaded index.
// Called by Recover after loadIndex with s.epoch set; scanned is the bytes it
// read from the region.
func (s *Store) walRecover() (scanned int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	frames, end, scanned, err := s.walScan()
	if err == nil {
		err = s.walReplayLocked(frames, end)
	}
	return scanned, err
}

// walScan reads the reserved region from its start, window by window, up to
// the first frame outside the recovered epoch's chain; it returns the chain
// and the region offset past its last frame. What it reads follows the chain,
// not the region's size: a zeroed region costs one window.
func (s *Store) walScan() (frames []*walFrame, end, scanned int64, err error) {
	sc := frameScan{s: s, addr: s.walBase, size: s.walBlocks * BlockSize}
	for sc.off < sc.size {
		b, err := sc.ahead(walHeaderLen + 4)
		if err != nil {
			return nil, 0, sc.read, err
		}
		// A frame states its length up front; one that overstates it gets
		// the rest of the region and fails to decode.
		if len(b) >= walHeaderLen+4 && binary.LittleEndian.Uint32(b) == magicWAL {
			if b, err = sc.ahead(int64(binary.LittleEndian.Uint32(b[4:]))); err != nil {
				return nil, 0, sc.read, err
			}
		}
		fr, padded, ok := decodeWALFrame(b)
		if !ok || fr.base > s.epoch {
			break // torn tail, stale bytes, or an orphan (fsck's problem)
		}
		if fr.base == s.epoch {
			if fr.seq != uint64(len(frames))+1 {
				break
			}
			frames = append(frames, fr)
			end = sc.off + padded
		} else if len(frames) > 0 {
			break // older-generation leftovers past the current chain
		}
		sc.skip(padded)
	}
	return frames, end, sc.read, nil
}

// walReplayLocked applies the scanned chain, whose last frame ends at region
// offset end. Requires mu.
func (s *Store) walReplayLocked(frames []*walFrame, end int64) error {
	if len(frames) == 0 {
		// No current-generation frames: the ring restarts. Recovery always
		// picks the newest superblock, so older generations are dead.
		s.walHead = 0
		return nil
	}

	s.claimed = make(map[int64]bool)
	defer func() { s.claimed = nil }()
	idxNextBlk := s.nextBlk
	for _, fr := range frames {
		s.walSeq = fr.seq
		if fr.nextOID > s.nextOID {
			s.nextOID = fr.nextOID
		}
		if fr.nextBlk > s.nextBlk {
			s.nextBlk = fr.nextBlk
		}
		for i := range fr.ops {
			if err := s.apply(&fr.ops[i]); err != nil {
				return fmt.Errorf("wal frame %d: %w", fr.seq, err)
			}
		}
	}
	// Bump-range blocks no committed frame referenced were allocated after
	// the last frame (or reserved and never published): nothing on a
	// recoverable path references them, so they return to the free pool.
	for blk := idxNextBlk; blk < s.nextBlk; blk++ {
		if addr := blk * BlockSize; !s.claimed[addr] {
			s.freelist = append(s.freelist, addr)
		}
	}
	s.walHead = end
	s.walReplayed = len(frames)
	return nil
}

// WALReplayed reports how many frames the last Recover replayed.
func (s *Store) WALReplayed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walReplayed
}

// claimWALBlock is what replay adds to apply: it reconciles the allocator
// with a block a replayed frame references, which leaves the free pools and is
// born in the current interval. Live, the mutator allocated the block itself
// and there is nothing to reconcile. Requires mu.
func (s *Store) claimWALBlock(addr int64) {
	if s.claimed == nil {
		return
	}
	for i, a := range s.freelist {
		if a == addr {
			s.freelist = append(s.freelist[:i], s.freelist[i+1:]...)
			break
		}
	}
	for i, a := range s.releasing {
		if a == addr {
			s.releasing = append(s.releasing[:i], s.releasing[i+1:]...)
			break
		}
	}
	s.birthOf[addr] = s.curEpoch()
	s.claimed[addr] = true
}
