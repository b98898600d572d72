package objstore

import (
	"errors"
	"fmt"

	"aurora/internal/clock"
	"aurora/internal/rec"
)

// Journal objects are the store's one non-COW path, backing the sls_journal
// API (§7, "Non-COW Objects for the Aurora API"): a preallocated extent
// updated in place with synchronous appends, giving custom applications a
// write-ahead log with microsecond latency. The paper reports a 4 KiB
// synchronous append in 28 µs; the cost model is solved from Table 5.
//
// Frames carry a generation and a sequence number. Truncate bumps the
// generation and records the flushed-through sequence; neither takes effect
// durably until the covering checkpoint commits, so recovery replays
// exactly the frames that post-date the restored checkpoint's truncation
// point (replay is at-least-once; consumers replay idempotently).

// ErrJournalFull is returned when an append exceeds the extent.
var ErrJournalFull = errors.New("objstore: journal full")

// frameOverhead is what a frame adds to its payload, and its least length.
const frameOverhead = rec.FrameOverhead + 16

// journalState is the journal-shaped part of an object.
type journalState struct {
	extentAddr int64
	capBlocks  int64
	generation uint64
	flushedSeq uint64

	// Runtime fields (rebuilt by scan after recovery).
	tail    int64
	lastSeq uint64
	scanned bool
}

// Journal is a handle to a journal object.
type Journal struct {
	s *Store
	o *object
}

// Entry is one recovered journal record.
type Entry struct {
	Seq     uint64
	Payload []byte
}

// CreateJournal creates oid as a journal with the given byte capacity
// (rounded up to whole blocks, preallocated and never moved).
func (s *Store) CreateJournal(oid OID, utype uint16, capacity int64) (*Journal, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.get(oid) != nil {
		return nil, fmt.Errorf("objstore: object %d already exists", oid)
	}
	o, err := s.createJournalLocked(oid, utype, max(blocksFor(capacity), 1), 1, 0)
	if err != nil {
		return nil, err
	}
	return &Journal{s: s, o: o}, nil
}

// createJournalLocked makes oid a journal over a fresh extent of the given
// blocks, at generation gen flushed through fseq. Requires mu.
func (s *Store) createJournalLocked(oid OID, utype uint16, blocks int64, gen, fseq uint64) (*object, error) {
	addr, err := s.allocRun(blocks)
	if err != nil {
		return nil, err
	}
	op := &walOp{kind: walOpJournal, oid: oid, utype: utype, addr: addr, size: blocks, gen: gen, fseq: fseq}
	if err := s.mutate(op); err != nil {
		return nil, err
	}
	o := s.get(oid)
	o.journal.scanned = true // the extent is new: there is no tail to find
	o.journal.lastSeq = fseq
	return o, nil
}

// OpenJournal opens an existing journal, scanning the extent to find the
// durable tail (the recovery path).
func (s *Store) OpenJournal(oid OID) (*Journal, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, err := s.lookup(oid)
	if err != nil {
		return nil, err
	}
	if o.journal == nil {
		return nil, ErrNotJournal
	}
	j := &Journal{s: s, o: o}
	if !o.journal.scanned {
		if _, err := j.scanLocked(); err != nil {
			return nil, err
		}
	}
	return j, nil
}

// OID returns the journal's object identifier.
func (j *Journal) OID() OID { return j.o.oid }

// Capacity returns the extent size in bytes.
func (j *Journal) Capacity() int64 { return j.o.journal.capBlocks * BlockSize }

// Used returns the bytes consumed by the current generation's frames.
func (j *Journal) Used() int64 {
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	return j.o.journal.tail
}

// Append synchronously writes one record. On return the record is durable:
// the caller's virtual clock has advanced past the transfer. It returns the
// record's sequence number.
func (j *Journal) Append(payload []byte) (uint64, error) {
	j.s.mu.Lock()
	js := j.o.journal
	need := int64(frameOverhead + len(payload))
	if js.tail+need > j.Capacity() {
		j.s.mu.Unlock()
		return 0, fmt.Errorf("%w: need %d bytes, %d free", ErrJournalFull, need, j.Capacity()-js.tail)
	}
	js.lastSeq++
	seq := js.lastSeq
	encodeFrame(&j.s.frame, js.generation, seq, payload)
	off := js.extentAddr + js.tail
	js.tail += need
	j.o.size = js.tail
	// The frame joins the interval's durability horizon: the next
	// superblock must not be able to land on media that lost this append,
	// or recovery to that epoch would find a gap in the extent.
	done, err := j.s.submitLocked(j.s.frame.Raw(), off, 0)
	if err != nil {
		j.s.mu.Unlock()
		return 0, err
	}
	dev, clk, costs := j.s.dev, j.s.clk, j.s.costs
	j.s.mu.Unlock()
	// The journal path is synchronous: charge the full calibrated latency,
	// then wait out the device transfer itself. Without the wait the frame
	// could still sit in a member queue when power is cut, violating the
	// durable-on-return contract above.
	clk.Advance(clock.XferTime(costs.JournalLatency, costs.JournalBps, need))
	dev.WaitUntil(done)
	return seq, nil
}

// encodeFrame encodes the frame of payload at generation gen and seq into e,
// in place of what e held: a log frame of internal/rec ("ARFM") whose body is
// gen u64 | seq u64 | payload.
func encodeFrame(e *rec.Encoder, gen, seq uint64, payload []byte) {
	e.Reset()
	mark := e.BeginFrame(magicFrame)
	e.U64(gen)
	e.U64(seq)
	e.Append(payload)
	e.EndFrame(mark)
}

// Truncate logically empties the journal: it bumps the generation and
// records that every sequence so far is flushed. The truncation becomes
// durable at the next checkpoint; call it only after the checkpoint that
// captures the journaled data has committed (the RocksDB pattern: fill WAL,
// trigger checkpoint, barrier, truncate).
func (j *Journal) Truncate() {
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	js := j.o.journal
	// The truncate branch of apply cannot fail.
	_ = j.s.mutate(&walOp{kind: walOpJournal, oid: j.o.oid, utype: j.o.utype,
		addr: js.extentAddr, size: js.capBlocks, gen: js.generation + 1, fseq: js.lastSeq})
}

// Entries scans the extent and returns the records that post-date the
// committed truncation point, in sequence order. This is the recovery
// replay path.
func (j *Journal) Entries() ([]Entry, error) {
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	return j.scanLocked()
}

// scanLocked walks frames from the extent head through a frameScan (a frame
// larger than the read-ahead window is read whole) by the frame rule, the
// generation floor rising with the frames it accepts; leftovers from older
// generations terminate the scan. Requires mu.
func (j *Journal) scanLocked() ([]Entry, error) {
	js := j.o.journal
	var (
		entries []Entry
		sc      = frameScan{s: j.s, addr: js.extentAddr, size: js.capBlocks * BlockSize}
		gen     = js.generation
		lastSeq uint64
	)
	for {
		frame, fgen, fseq, err := nextFrame(&sc, gen, lastSeq)
		if err != nil {
			return nil, err
		}
		if frame == nil {
			break
		}
		if gen, lastSeq = fgen, fseq; lastSeq > js.flushedSeq {
			entries = append(entries, Entry{Seq: lastSeq, Payload: rec.FrameBody(frame)[16:]})
		}
	}
	js.tail = sc.off
	if lastSeq > js.lastSeq {
		js.lastSeq = lastSeq
	}
	js.generation = gen
	js.scanned = true
	j.o.size = sc.off
	return entries, nil
}

// nextFrame is the journal's one frame rule: the recovery scan, a replica's
// read and a standby's write all walk frames by it. On top of the scan step
// (frameScan.frame) it asks, of the header before the frame is read, that the
// generation be at least gen and the seq follow seq (any seq follows 0). It
// returns the frame, its generation and seq, and moves the scan past it, or
// nil, not moving, where the rule ends the walk.
func nextFrame(sc *frameScan, gen, seq uint64) (frame []byte, fgen, fseq uint64, err error) {
	frame, err = sc.frame(magicFrame, frameOverhead, func(head []byte) bool {
		d := rec.NewRawDecoder(rec.FrameBody(head[:frameOverhead]))
		fgen, fseq = d.U64(), d.U64()
		return fgen >= gen && (fseq > seq || seq == 0)
	})
	if frame == nil || err != nil {
		return nil, 0, 0, err
	}
	sc.skip(int64(len(frame)))
	return frame, fgen, fseq, nil
}

// Journal replication. A standby holds exactly the frames its source shipped,
// at the source's offsets, so a sync need only name a position in them and
// send what lies past it: ReadFrames on the source, WriteFrames on the
// standby.

// ErrFrames refuses a frame run that a journal cannot take as sent.
var ErrFrames = errors.New("objstore: journal frames refused")

// JournalMark is a position in a journal's frames: the extent and generation
// they belong to, the byte offset just past them, and the seq the next frame
// must follow. A replica keeps one per journal, as of the ship its standby
// last committed.
type JournalMark struct {
	Extent int64 // device address of the extent
	Gen    uint64
	Off    int64
	Seq    uint64
}

// FrameRun is a stretch of a journal as replication moves it: whole frames of
// generation Gen, laid out as the source's extent holds them from byte Off,
// and the generation's flushed-through seq.
type FrameRun struct {
	Off        int64
	Gen        uint64
	FlushedSeq uint64
	Frames     []byte
}

// ReadFrames reads the frames between from and the tail — all of the current
// generation's when from names another extent or generation — through a
// frameScan, and returns them as runs of whole frames, each at most limit
// bytes unless one frame alone is longer, with the mark at the tail. There is always
// a run, empty when nothing is new: it carries the generation. A frame below
// the tail that fails the frame rule is an error, never a frame to ship.
func (j *Journal) ReadFrames(from JournalMark, limit int64) ([]FrameRun, JournalMark, error) {
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	js := j.o.journal
	at := JournalMark{Extent: js.extentAddr, Gen: js.generation}
	if from.Extent == at.Extent && from.Gen == at.Gen && from.Off <= js.tail {
		at.Off, at.Seq = from.Off, from.Seq
	}
	newRun := func() FrameRun {
		return FrameRun{Off: at.Off, Gen: at.Gen, FlushedSeq: js.flushedSeq,
			Frames: make([]byte, 0, min(limit, js.tail-at.Off))}
	}
	runs := []FrameRun{newRun()}
	sc := frameScan{s: j.s, addr: js.extentAddr, size: js.tail, off: at.Off}
	for sc.off < sc.size {
		frame, gen, seq, err := nextFrame(&sc, at.Gen, at.Seq)
		if err != nil {
			return nil, from, err
		}
		if frame == nil || gen != at.Gen {
			return nil, from, fmt.Errorf("%w: journal %d: no frame of generation %d at byte %d, below the tail %d",
				ErrCorrupt, j.o.oid, at.Gen, at.Off, js.tail)
		}
		if run := &runs[len(runs)-1]; len(run.Frames) > 0 && int64(len(run.Frames)+len(frame)) > limit {
			runs = append(runs, newRun())
		}
		run := &runs[len(runs)-1]
		run.Frames = append(run.Frames, frame...)
		at.Off, at.Seq = sc.off, seq
	}
	return runs, at, nil
}

// WriteFrames lands run in journal oid as its source holds it: one submit at
// the run's offset in the extent, joining the interval's durability horizon
// like any store write rather than paying a synchronous append per frame, and
// the tail after it. A run of the generation oid holds (same capacity and
// flushed point) may start anywhere up to the tail, so a retry rewrites the
// same bytes at the same offsets. Any other run starts its generation at the
// head of a fresh extent and replaces whatever oid was: the frames the last
// commit holds stay where they are until the commit that drops them. Every
// check — capacity, offset, the frame rule over every byte — runs before the
// store changes; a refusal wraps ErrFrames.
func (s *Store) WriteFrames(oid OID, utype uint16, capacity int64, run FrameRun) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	refuse := func(format string, args ...any) error {
		return fmt.Errorf("%w: journal %d: %s", ErrFrames, oid, fmt.Sprintf(format, args...))
	}
	if capacity <= 0 || capacity > s.dev.Size() {
		return refuse("capacity %d", capacity)
	}
	blocks := blocksFor(capacity)
	end := run.Off + int64(len(run.Frames))
	if run.Off < 0 || end > blocks*BlockSize {
		return refuse("%d bytes at byte %d overrun the %d-byte extent", len(run.Frames), run.Off, blocks*BlockSize)
	}
	var held *journalState // the generation the run continues, if oid holds it
	if o := s.get(oid); o != nil && o.journal != nil {
		if !o.journal.scanned {
			if _, err := (&Journal{s: s, o: o}).scanLocked(); err != nil {
				return err
			}
		}
		if js := o.journal; js.capBlocks == blocks && js.generation == run.Gen && js.flushedSeq == run.FlushedSeq {
			held = js
		}
	}
	after := uint64(0) // the seq the run's first frame must follow
	switch {
	case held == nil && run.Off != 0:
		return refuse("frames at byte %d of generation %d, which it does not hold", run.Off, run.Gen)
	case held != nil && run.Off > held.tail:
		return refuse("frames at byte %d, past the tail %d", run.Off, held.tail)
	case held != nil && run.Off == held.tail:
		after = held.lastSeq
	}
	sc := frameScan{size: int64(len(run.Frames)), win: run.Frames} // in memory: ahead never reads
	last := after
	for sc.off < sc.size {
		at := run.Off + sc.off
		frame, gen, seq, err := nextFrame(&sc, run.Gen, last)
		switch {
		case err != nil:
			return err
		case frame == nil:
			return refuse("bytes from %d are not a frame following seq %d", at, last)
		case gen != run.Gen:
			return refuse("frame at byte %d is of generation %d, the run's is %d", at, gen, run.Gen)
		}
		last = seq
	}

	o := s.get(oid)
	if held == nil {
		if o != nil {
			if err := s.mutate(&walOp{kind: walOpDelete, oid: oid}); err != nil {
				return err
			}
		}
		var err error
		if o, err = s.createJournalLocked(oid, utype, blocks, run.Gen, run.FlushedSeq); err != nil {
			return err
		}
		held = o.journal
	}
	if len(run.Frames) > 0 {
		if _, err := s.submitLocked(run.Frames, held.extentAddr+run.Off, 0); err != nil {
			return err
		}
		held.lastSeq = last
	}
	held.tail, o.size = end, end
	return nil
}
