// Package objstore implements the Aurora object store (§7 of the paper): a
// copy-on-write store designed for high-frequency, low-latency checkpoints.
//
// Objects are named by 64-bit object identifiers (OIDs) and represent POSIX
// objects, memory objects, or files — all identically, which is what lets
// Aurora preserve relationships between them. Data is never modified in
// place (the one exception is journal objects, which exist precisely to give
// the Aurora API a synchronous non-COW path). A checkpoint becomes visible
// only when its superblock is durably written, so recovery always lands on
// the last complete checkpoint. Retained checkpoints form the application's
// execution history; releasing history is a deadlist scan, not a
// log-structured cleaning pass.
//
// On-device layout:
//
//	block 0,1:  alternating superblocks (commit points)
//	block 2..:  reserved WAL region (walBlocksFor blocks) — a ring of
//	            CRC-framed delta records for WAL-first commits (see wal.go)
//	after WAL:  COW blocks — data pages, block-map chunks, object records,
//	            checkpoint indexes — plus preallocated journal extents
//
// Each checkpoint writes: new data blocks (already submitted asynchronously
// during the interval), block-map chunks for modified objects, one record
// per modified object, and one index enumerating every object record and
// the allocator state. The superblock points at the index. Between
// checkpoints, WALCommit makes the interval durable early by appending one
// delta frame to the WAL region; a later checkpoint folds the frames away.
package objstore

import (
	"errors"
	"sync"
	"time"

	"aurora/internal/clock"
	"aurora/internal/flight"
	"aurora/internal/mem"
	"aurora/internal/trace"
)

// OID names an object in the store.
type OID uint64

// FlightOID is the reserved object holding the serialized flight-recorder
// ring. It sits at the top of the OID space, out of reach of the bump
// allocator, and is rewritten on every checkpoint (see Checkpoint).
const FlightOID = OID(flight.StoreOID)

// Epoch numbers checkpoints; epoch 0 is the formatted-empty state.
type Epoch uint64

// BlockSize is the store's allocation unit, one page.
const BlockSize = mem.PageSize

// ChunkFanout is the number of page slots per block-map chunk. Each slot
// carries an 8-byte block address plus a 4-byte CRC of the page's content
// (so fsck can detect torn or rotted data pages), and the chunk ends in a
// 4-byte whole-chunk CRC: 341 twelve-byte slots plus the seal fill one
// 4096-byte block exactly.
const ChunkFanout = BlockSize / 12

// InlineMax is the largest object record payload kept inline in the record
// instead of in data blocks. POSIX object records — including outliers like
// a kqueue with a thousand registered events (~35 KiB) — stay inline, so a
// record is always one contiguous read.
const InlineMax = 64 << 10

// Errors returned by the store.
var (
	ErrNoObject   = errors.New("objstore: no such object")
	ErrNoEpoch    = errors.New("objstore: no such checkpoint")
	ErrCorrupt    = errors.New("objstore: corrupt metadata")
	ErrNotJournal = errors.New("objstore: object is not a journal")
	ErrIsJournal  = errors.New("objstore: object is a journal")
	ErrFull       = errors.New("objstore: device full")
	ErrPageSum    = errors.New("objstore: page does not match its committed sum")
)

// BlockDev is the storage a store runs on; *device.Stripe and *device.Device
// both satisfy it.
type BlockDev interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Submit(bufs [][]byte, off int64, after time.Duration) (time.Duration, error)
	SubmitRead(p []byte, off int64) (time.Duration, error)
	WaitUntil(t time.Duration)
	Flush()
	Size() int64
}

// deadBlock is a block awaiting garbage collection: it was born at (first
// referenced by) checkpoint birth and superseded at freedAt; it may be
// reused once no retained checkpoint epoch falls in [birth, freedAt).
type deadBlock struct {
	addr    int64
	birth   Epoch
	freedAt Epoch
}

// blockRun is a contiguous run of blocks in the metadata pool.
type blockRun struct {
	addr int64
	n    int64
}

// stagedRelease is one commit's worth of released blocks, allocatable once
// virtual time reaches at (the releasing superblock's completion).
type stagedRelease struct {
	at   time.Duration
	data []int64
	meta []blockRun
}

// ckptInfo describes one retained checkpoint.
type ckptInfo struct {
	epoch     Epoch
	indexAddr int64
	indexLen  int64
}

// object is the live, in-memory state of one store object.
type object struct {
	oid   OID
	utype uint16
	size  int64

	// Exactly one of these shapes applies:
	inline  []byte           // small record payload
	chunks  map[int64]*chunk // block-map chunks by chunk index
	journal *journalState    // non-COW journal extent

	dirty      bool  // modified since last checkpoint
	birth      Epoch // epoch the object was created in
	recordAddr int64 // where the last committed record lives
	recordLen  int64
}

// chunk is one cached/modified block-map chunk.
type chunk struct {
	addrs  [ChunkFanout]int64  // 0 = hole
	sums   [ChunkFanout]uint32 // CRC-32 of each slot's page content
	dirty  bool
	loaded bool  // addrs valid (vs. lazily loadable from addr)
	addr   int64 // committed location; 0 if never written
}

// Stats summarizes store activity.
type Stats struct {
	Checkpoints     int64
	ObjectsLive     int64
	BlocksAllocated int64
	BlocksFreed     int64
	MetaBytes       int64
	DataBytes       int64
}

// image is an object table read through a store's device: the live table of
// the Store that embeds it, or a retained epoch's in a View. The read methods
// both offer are declared on it, once (see read.go).
type image struct {
	s       *Store // whose device the table's blocks are on, and whose lock guards it
	objects map[OID]*object
}

// Store is the Aurora object store.
type Store struct {
	image // the live object table
	mu    sync.Mutex
	dev   BlockDev
	clk   clock.Clock
	costs *clock.Costs
	tr    *trace.Tracer
	fl    *flight.Recorder

	// settled notes epochs whose durability has been waited on, so the
	// flight ring records one settle event per epoch, not one per wait.
	settled map[Epoch]bool

	epoch    Epoch // last committed epoch
	nextOID  OID
	nextBlk  int64
	freelist []int64
	deadlist []deadBlock
	retained []ckptInfo

	// birthOf tracks the epoch in which blocks allocated during this
	// session were born; blocks loaded from committed metadata default to
	// birth 0 (conservatively "as old as any retained checkpoint").
	birthOf map[int64]Epoch

	// metaFree recycles released checkpoints' index runs. It is kept in
	// memory only, NEVER serialized: an index must not describe its own
	// storage, or the metadata describing the free space grows with the
	// free space and compounds exponentially. After a crash the pool is
	// simply empty (a bounded, documented leak of a few dozen blocks).
	metaFree []blockRun

	// releasing/releasingMeta stage blocks freed by ReleaseCheckpointsBefore
	// until the next superblock lands. Handing them straight to the
	// allocator would let this interval overwrite blocks that a crash —
	// recovering to the still-on-device previous superblock, whose retained
	// list references the released history — needs intact. The next commit
	// serializes `releasing` into its freelist and moves both lists onto
	// releaseQ, stamped with the committing superblock's durability time.
	releasing     []int64
	releasingMeta []blockRun

	// releaseQ holds releases whose omitting superblock has been submitted
	// but may still sit in a device queue. Only once virtual time passes the
	// superblock's completion can a power cut no longer resurrect the old
	// index that references these blocks — promotion to the allocatable
	// pools (freelist/metaFree) is gated on that instant, not on submit.
	releaseQ []stagedRelease

	deleted map[OID]bool // deleted since last checkpoint (must leave index)

	// pendingDurable is the completion time of the latest submitted write
	// belonging to the in-progress interval; the next commit waits for it.
	pendingDurable time.Duration
	one            [1][]byte // submitLocked's vector, so single-buffer writes allocate none
	// durableAt maps committed epochs to their durability times.
	durableAt map[Epoch]time.Duration

	superSlot int // which superblock slot the next commit uses

	// WAL-first commit state (see wal.go). walBase/walBlocks fix the
	// reserved region's geometry at Format time; walHead is the append
	// offset within it; walSeq numbers this generation's committed frames
	// (reset to 0 by every fold); walPending accumulates the interval's
	// delta ops; walDurable maps frame seqs to durability times.
	walBase     int64
	walBlocks   int64
	walHead     int64
	walSeq      uint64
	walPending  []walOp
	walDurable  map[uint64]time.Duration
	walReplayed int // frames replayed by the last Recover

	// flSeq is the recorder sequence number the ring in FlightOID reaches:
	// set by every full snapshot and every frame tail, 0 after Recover (a
	// boot starts a fresh recorder, whose first tail is its whole ring).
	flSeq uint64

	// pendingWALReset defers the head reset (log-structured GC of the
	// folded generation) until virtual time passes walResetAt, the folding
	// superblock's completion: before that instant a crash can still
	// recover to the previous superblock, which needs the old frames.
	pendingWALReset bool
	walResetAt      time.Duration

	// claimed is non-nil while walRecover replays the chain: the blocks its
	// frames reference (see claimWALBlock). Replay runs the apply the live
	// mutators run; while it does, walNote records nothing.
	claimed map[int64]bool

	// lastDurable is the previous durability point (WAL frame or
	// superblock), feeding the durable-window histogram.
	lastDurable time.Duration

	stats Stats
}

// blankStore is a store over dev with nothing formatted or loaded.
func blankStore(dev BlockDev, clk clock.Clock, costs *clock.Costs, tr *trace.Tracer) *Store {
	s := &Store{
		dev:        dev,
		clk:        clk,
		costs:      costs,
		tr:         tr,
		deleted:    make(map[OID]bool),
		durableAt:  make(map[Epoch]time.Duration),
		walDurable: make(map[uint64]time.Duration),
		birthOf:    make(map[int64]Epoch),
		settled:    make(map[Epoch]bool),
	}
	s.image = image{s: s, objects: make(map[OID]*object)}
	return s
}

// Format initializes an empty store on dev, committing epoch 0.
func Format(dev BlockDev, clk clock.Clock, costs *clock.Costs) (*Store, error) {
	s := blankStore(dev, clk, costs, nil)
	s.nextOID = 1
	s.walBase = 2 * BlockSize // blocks 0,1 are superblocks
	s.walBlocks = walBlocksFor(dev.Size())
	s.nextBlk = s.dataStart() / BlockSize
	if _, err := s.Checkpoint(); err != nil {
		return nil, err
	}
	// mkfs returns only once the empty filesystem is durable: a power cut
	// the instant after Format must still find a valid superblock.
	if err := s.WaitDurable(s.epoch); err != nil {
		return nil, err
	}
	return s, nil
}

// Recover opens the store from the last complete checkpoint on dev. All
// uncommitted state (the paper's crash case) is invisible.
func Recover(dev BlockDev, clk clock.Clock, costs *clock.Costs) (*Store, error) {
	return RecoverTraced(dev, clk, costs, nil)
}

// RecoverTraced is Recover with the tracer attached before the first read,
// so recovery itself lands on the timeline: one objstore "recover" span whose
// children super, index, records and wal tile it exactly.
func RecoverTraced(dev BlockDev, clk clock.Clock, costs *clock.Costs, tr *trace.Tracer) (*Store, error) {
	s := blankStore(dev, clk, costs, tr)
	sp := tr.Begin(trace.TrackObjstore, "recover")
	superSpan := sp.Child("super")
	sb, slot, err := s.readSuperblocks()
	superSpan.End()
	if err != nil {
		return nil, err
	}
	s.superSlot = 1 - slot // next commit goes to the other slot
	s.walBase = sb.walBase
	s.walBlocks = sb.walBlocks
	if err := s.loadIndex(sb.indexAddr, sb.indexLen, sp); err != nil {
		return nil, err
	}
	s.epoch = sb.epoch
	// Replay any WAL frames committed on top of the recovered checkpoint:
	// they are durable state the superblock alone does not describe.
	walSpan := sp.Child("wal")
	scanned, err := s.walRecover()
	walSpan.End(trace.I("frames", int64(s.walReplayed)), trace.I("bytes", scanned))
	tr.Count("objstore.wal_recover.bytes", scanned)
	if err != nil {
		return nil, err
	}
	sp.End(trace.I("epoch", int64(s.epoch)), trace.I("objects", int64(len(s.objects))))
	return s, nil
}

// SetTracer attaches tr to the store; nil disables tracing. Wire it at
// build time — it is not synchronized against in-flight operations.
func (s *Store) SetTracer(tr *trace.Tracer) { s.tr = tr }

// SetFlight attaches the flight recorder; nil disables it. Each Checkpoint
// serializes the ring into FlightOID before committing, so the recent event
// history persists and replicates with the rest of the store. Wire it at
// build time, like the tracer.
func (s *Store) SetFlight(fl *flight.Recorder) { s.fl = fl }

// Flight returns the attached flight recorder (nil if none).
func (s *Store) Flight() *flight.Recorder { return s.fl }

// RecoveredFlight decodes the flight ring persisted by the last committed
// checkpoint: the pre-crash forensic timeline after a recovery. It returns
// the events oldest-first plus the recorder's sequence number at snapshot
// time; ok is false if no flight object was ever committed.
func (s *Store) RecoveredFlight() (evs []flight.Event, seq uint64, ok bool, err error) {
	s.mu.Lock()
	_, exists := s.objects[FlightOID]
	s.mu.Unlock()
	if !exists {
		return nil, 0, false, nil
	}
	buf, err := s.GetRecord(FlightOID)
	if err != nil {
		return nil, 0, true, err
	}
	evs, seq, err = flight.Decode(buf)
	return evs, seq, true, err
}

// Epoch returns the last committed checkpoint epoch.
func (s *Store) Epoch() Epoch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// curEpoch is the epoch the in-progress interval will commit as. Requires mu.
func (s *Store) curEpoch() Epoch { return s.epoch + 1 }

// PendingDurable reports the virtual completion time of the latest
// asynchronous write submitted to the device — the write-behind horizon.
// Callers use it for flow control (bounding dirty data in flight).
func (s *Store) PendingDurable() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingDurable
}

// submitLocked queues p at off, its transfer not starting before after, and
// folds the completion time into the interval's durability horizon — which
// the next commit point is in turn ordered behind. Requires mu.
func (s *Store) submitLocked(p []byte, off int64, after time.Duration) (time.Duration, error) {
	s.one[0] = p
	done, err := s.dev.Submit(s.one[:], off, after)
	s.one[0] = nil
	if err == nil && done > s.pendingDurable {
		s.pendingDurable = done
	}
	return done, err
}

// NewOID allocates a fresh object identifier.
func (s *Store) NewOID() OID {
	s.mu.Lock()
	defer s.mu.Unlock()
	oid := s.nextOID
	s.nextOID++
	return oid
}

// Stats returns a snapshot of store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.ObjectsLive = int64(len(s.objects))
	return st
}

// ensure returns the object, creating it if absent. Requires mu.
func (s *Store) ensure(oid OID, utype uint16) *object {
	o, ok := s.objects[oid]
	if !ok {
		o = &object{oid: oid, utype: utype, birth: s.curEpoch()}
		s.objects[oid] = o
		// Reserved OIDs at the very top of the space (FlightOID) must not
		// bump the allocator: oid+1 would wrap to 0 and restart allocation
		// over live objects.
		if oid >= s.nextOID && oid+1 != 0 {
			s.nextOID = oid + 1
		}
		delete(s.deleted, oid)
	}
	o.dirty = true
	return o
}
