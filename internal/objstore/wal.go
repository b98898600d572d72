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
// apply the live mutators run (apply.go), and each block a frame names is
// claimed straight out of the free map the index loaded: a block allocated
// after the last frame, or never published, was never out of it.

import (
	"errors"
	"fmt"
	"time"

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

// walPad is the zeros a frame is padded with to its sector boundary.
var walPad [walSector]byte

// DefaultWALBlocks caps the reserved region at 4 MiB.
const DefaultWALBlocks = 1024

// walLeast is the shortest frame: a log frame of internal/rec whose body is
// base(8) + seq(8) + nextOID(8) + nops(4), no op, and an empty flight tail(4).
const walLeast = rec.FrameOverhead + 32

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
// superblocks and the reserved WAL region. The geometry never changes after
// Format/Recover.
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
	ops     []walOp
	flight  []byte // flight events since the last accepted commit (Recorder.Since); empty without a recorder
}

// walNote captures op into the pending delta set. Replay records nothing:
// what it applies is in the log already.
func (s *Store) walNote(op *walOp) {
	if s.replaying || s.walBlocks == 0 {
		return
	}
	s.walPending = append(s.walPending, *op)
}

// encodeWALFrame serializes fr as a log frame, not sector-padded.
func encodeWALFrame(e *rec.Encoder, fr *walFrame) []byte {
	e.Reset()
	mark := e.BeginFrame(magicWAL)
	e.U64(uint64(fr.base))
	e.U64(fr.seq)
	e.U64(uint64(fr.nextOID))
	e.U32(uint32(len(fr.ops)))
	for _, op := range fr.ops {
		e.U8(op.kind)
		e.U64(uint64(op.oid))
		switch op.kind {
		case walOpPut:
			e.U16(op.utype)
			e.Bytes(op.data)
		case walOpPage:
			e.U16(op.utype)
			e.I64(op.pg)
			e.I64(op.addr)
			e.U32(op.sum)
		case walOpSize:
			e.I64(op.size)
		case walOpDelete:
		case walOpJournal:
			e.U16(op.utype)
			e.I64(op.addr)
			e.I64(op.size)
			e.U64(op.gen)
			e.U64(op.fseq)
		}
	}
	e.Bytes(fr.flight)
	e.EndFrame(mark)
	return e.Raw()
}

// decodeWALFrame is the WAL's scan step: the frame at the scan position,
// decoded, and its footprint in the ring, or nil for anything that is not a
// whole frame of exactly the header and the ops it counts (torn tail, stale
// bytes, garbage). It does not move the scan.
func decodeWALFrame(sc *frameScan) (fr *walFrame, padded int64, err error) {
	frame, err := sc.frame(magicWAL, walLeast, nil)
	if frame == nil || err != nil {
		return nil, 0, err
	}
	d := rec.NewRawDecoder(rec.FrameBody(frame))
	fr = &walFrame{
		base:    Epoch(d.U64()),
		seq:     d.U64(),
		nextOID: OID(d.U64()),
	}
	for i, nops := 0, int(d.U32()); i < nops && d.Err() == nil; i++ {
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
		default:
			return nil, 0, nil
		}
		fr.ops = append(fr.ops, op)
	}
	fr.flight = d.Bytes()
	if d.Err() != nil || d.Remaining() != 0 {
		return nil, 0, nil
	}
	return fr, (int64(len(frame)) + walSector - 1) / walSector * walSector, nil
}

// WALCommitStats describes one WAL commit.
type WALCommitStats struct {
	Base      Epoch // epoch the frame applies on top of
	Seq       uint64
	DurableAt time.Duration
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
	// checks after replay. The tail is the events the last accepted commit
	// lacks.
	s.fl.Record(int64(s.clk.Now()), flight.EvWALAppend, int64(s.epoch), int64(s.walFrames)+1, 0, "")
	tail, flSeq := s.fl.Since(&s.ring, s.flSeq)

	span := s.tr.Begin(trace.TrackObjstore, "wal.append")
	s.maybeResetWAL()
	fr := walFrame{
		base:    s.epoch,
		seq:     uint64(s.walFrames) + 1,
		nextOID: s.nextOID,
		ops:     s.walPending,
		flight:  tail,
	}
	st := WALCommitStats{Base: fr.base, Seq: fr.seq}
	body := encodeWALFrame(&s.frame, &fr)
	total := (int64(len(body)) + walSector - 1) / walSector * walSector
	if s.walHead+total > s.walBlocks*BlockSize {
		span.End(trace.I("full", 1))
		return st, fmt.Errorf("%w: frame %d bytes, %d free", ErrWALFull,
			total, s.walBlocks*BlockSize-s.walHead)
	}
	s.vec[0] = body
	vec := s.vec[:1]
	if pad := total - int64(len(body)); pad > 0 {
		s.vec[1] = walPad[:pad] // the device copies what it is given: one zero sector serves every frame
		vec = s.vec[:2]
	}
	done, err := s.dev.Submit(vec, s.walBase+s.walHead, s.pendingDurable)
	if err != nil {
		span.End()
		return st, err
	}
	s.flSeq = flSeq // a failed commit keeps it, and the retry cuts the tail again
	s.walHead += total
	s.walFrames++
	clear(s.walPending) // the submitted frame carries these ops: the next interval reuses the array
	s.walPending = s.walPending[:0]
	s.pendingDurable = done
	s.observeDurable(done)
	st.DurableAt = done
	if s.tr != nil {
		s.tr.Count("objstore.wal_appends", 1)
		s.tr.Count("objstore.wal.bytes", total)
		s.tr.Gauge("objstore.wal_head", s.walHead)
	}
	span.End(trace.I("seq", int64(fr.seq)), trace.I("bytes", total), trace.I("ops", int64(len(fr.ops))))
	return st, nil
}

// observeDurable feeds the durable-window histogram: the virtual gap
// between consecutive durability points, the store's recovery-loss bound.
func (s *Store) observeDurable(done time.Duration) {
	if s.lastDurable > 0 && done > s.lastDurable {
		s.tr.Observe("objstore.durable.gap.ns", int64(done-s.lastDurable))
	}
	s.lastDurable = done
}

// maybeResetWAL performs the deferred head reset, the log-structured
// GC of a folded generation. The ring restarts from zero when it holds
// frames, none of them the current generation's, and virtual time has passed
// the newest commit's superblock completion: no recoverable superblock can
// need the folded frames then. A frame appended behind a fold that is not
// yet durable lands past the folded generation, which therefore stays the
// prefix the recovery scan walks through until the next fold.
func (s *Store) maybeResetWAL() {
	if s.walHead == 0 || s.walFrames > 0 || s.clk.Now() < s.retained[len(s.retained)-1].durable {
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

// WALSeq returns the sequence number of the last committed WAL frame in the
// current generation (0 right after a fold or when the WAL is unused).
func (s *Store) WALSeq() uint64 { return uint64(s.walFrames) }

// WALHead returns the byte offset past the last appended frame in the
// reserved region (for tests and tooling).
func (s *Store) WALHead() int64 { return s.walHead }

// WaitDurableAt blocks (in virtual time) until at, the DurableAt a WAL
// commit returned, and then completes a fold's deferred WAL head reset if
// the fold has landed by then. A frame's sequence number names no frame
// once a fold has folded it away (the next generation counts from 1
// again), so the wait is on the commit's own time, never on its seq.
func (s *Store) WaitDurableAt(at time.Duration) {
	s.dev.WaitUntil(at)
	s.maybeResetWAL()
}

// walRecover replays the WAL chain the crash left on top of the loaded index.
// Called by Recover after loadIndex with s.epoch set; scanned is the bytes it
// read from the region.
func (s *Store) walRecover() (scanned int64, err error) {
	frames, end, scanned, err := s.walScan()
	if err == nil {
		err = s.walReplay(frames, end)
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
		fr, padded, err := decodeWALFrame(&sc)
		if err != nil {
			return nil, 0, sc.read, err
		}
		if fr == nil || fr.base > s.epoch {
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

// walReplay applies the scanned chain, whose last frame ends at region
// offset end.
func (s *Store) walReplay(frames []*walFrame, end int64) error {
	if len(frames) == 0 {
		// No current-generation frames: the ring restarts. Recovery always
		// picks the newest superblock, so older generations are dead.
		s.walHead = 0
		return nil
	}

	s.replaying = true
	defer func() { s.replaying = false }()
	for _, fr := range frames {
		// A frame's ops ran live before it committed: retires judge reuse
		// against the frames committed before it, as they did then. The
		// frame joins the generation once applied, landed already.
		if fr.nextOID > s.nextOID {
			s.nextOID = fr.nextOID
		}
		for i := range fr.ops {
			if err := s.apply(&fr.ops[i]); err != nil {
				return fmt.Errorf("wal frame %d: %w", fr.seq, err)
			}
		}
		if fr.flight != nil {
			s.recovered = append(s.recovered, fr.flight)
		}
		s.walFrames++
	}
	s.walHead = end
	s.walReplayed = len(frames)
	return nil
}

// WALReplayed reports how many frames the last Recover replayed.
func (s *Store) WALReplayed() int { return s.walReplayed }

// claimWALBlock is what replay adds to apply: the n blocks from addr that a
// replayed frame names leave the free map and are born in the current
// interval. Live, the mutator allocated them itself and there is nothing to
// claim.
func (s *Store) claimWALBlock(addr, n int64) error {
	if !s.replaying {
		return nil
	}
	if !s.claimRun(addr, n) {
		return fmt.Errorf("%w: frame names blocks [%#x,+%d) that are not free", ErrCorrupt, addr, n)
	}
	s.bear(addr, n)
	return nil
}
