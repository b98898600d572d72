package objstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"aurora/internal/clock"
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

// frameHeaderLen is magic(4) + gen(8) + seq(8) + len(4) + crc(4).
const frameHeaderLen = 28

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
	if _, ok := s.objects[oid]; ok {
		return nil, fmt.Errorf("objstore: object %d already exists", oid)
	}
	blocks := blocksFor(capacity)
	if blocks == 0 {
		blocks = 1
	}
	addr, err := s.allocRun(blocks)
	if err != nil {
		return nil, err
	}
	op := &walOp{kind: walOpJournal, oid: oid, utype: utype, addr: addr, size: blocks, gen: 1}
	if err := s.mutate(op); err != nil {
		return nil, err
	}
	o := s.objects[oid]
	o.journal.scanned = true // the extent is new: there is no tail to find
	return &Journal{s: s, o: o}, nil
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
	frame := make([]byte, frameHeaderLen+len(payload))
	need := int64(len(frame))
	if js.tail+need > j.Capacity() {
		j.s.mu.Unlock()
		return 0, fmt.Errorf("%w: need %d bytes, %d free", ErrJournalFull, need, j.Capacity()-js.tail)
	}
	js.lastSeq++
	seq := js.lastSeq
	binary.LittleEndian.PutUint32(frame[0:], magicFrame)
	binary.LittleEndian.PutUint64(frame[4:], js.generation)
	binary.LittleEndian.PutUint64(frame[12:], seq)
	binary.LittleEndian.PutUint32(frame[20:], uint32(len(payload)))
	copy(frame[frameHeaderLen:], payload)
	binary.LittleEndian.PutUint32(frame[24:], frameCRC(frame))
	off := js.extentAddr + js.tail
	js.tail += need
	j.o.size = js.tail
	// The frame joins the interval's durability horizon: the next
	// superblock must not be able to land on media that lost this append,
	// or recovery to that epoch would find a gap in the extent.
	done, err := j.s.submitLocked(frame, off, 0)
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

// frameCRC computes the checksum over a frame with its CRC field zeroed.
func frameCRC(frame []byte) uint32 {
	h := crc32.NewIEEE()
	h.Write(frame[:24])
	h.Write([]byte{0, 0, 0, 0})
	h.Write(frame[frameHeaderLen:])
	return h.Sum32()
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
// larger than the read-ahead window is read whole). Frames are accepted while
// the checksum holds, the generation is at least the committed generation and
// non-decreasing, and sequence numbers ascend; leftovers from older
// generations terminate the scan. Requires mu.
func (j *Journal) scanLocked() ([]Entry, error) {
	js := j.o.journal
	capBytes := js.capBlocks * BlockSize
	var (
		entries []Entry
		sc      = frameScan{s: j.s, addr: js.extentAddr, size: capBytes}
		maxGen  = js.generation
		lastSeq uint64
	)
	for sc.off+frameHeaderLen <= capBytes {
		win, err := sc.ahead(frameHeaderLen)
		if err != nil {
			return nil, err
		}
		if binary.LittleEndian.Uint32(win[0:]) != magicFrame {
			break
		}
		gen := binary.LittleEndian.Uint64(win[4:])
		seq := binary.LittleEndian.Uint64(win[12:])
		size := frameHeaderLen + int64(binary.LittleEndian.Uint32(win[20:]))
		if gen < maxGen || sc.off+size > capBytes {
			break
		}
		if win, err = sc.ahead(size); err != nil {
			return nil, err
		}
		frame := win[:size:size]
		if binary.LittleEndian.Uint32(frame[24:]) != frameCRC(frame) {
			break
		}
		if seq <= lastSeq && lastSeq != 0 {
			break
		}
		maxGen = gen
		lastSeq = seq
		if seq > js.flushedSeq {
			entries = append(entries, Entry{Seq: seq, Payload: frame[frameHeaderLen:]})
		}
		sc.skip(size)
	}
	js.tail = sc.off
	if lastSeq > js.lastSeq {
		js.lastSeq = lastSeq
	}
	js.generation = maxGen
	js.scanned = true
	j.o.size = sc.off
	return entries, nil
}
