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
// the free map. The superblock points at the index. Between
// checkpoints, WALCommit makes the interval durable early by appending one
// delta frame to the WAL region; a later checkpoint folds the frames away.
package objstore

import (
	"errors"
	"time"

	"aurora/internal/clock"
	"aurora/internal/flight"
	"aurora/internal/mem"
	"aurora/internal/radix"
	"aurora/internal/rec"
	"aurora/internal/trace"
)

// OID names an object in the store.
type OID uint64

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

// BlockDev is the storage a store runs on, exactly what the store calls:
// every write is a Submit, ordered behind its dependencies through after, and
// durability is a WaitUntil on a completion time. *device.Stripe and
// *faultdev.Dev satisfy it.
type BlockDev interface {
	ReadAt(p []byte, off int64) (int, error)
	Submit(bufs [][]byte, off int64, after time.Duration) (time.Duration, error)
	SubmitRead(p []byte, off int64) (time.Duration, error)
	WaitUntil(t time.Duration)
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

// blockRun is the n contiguous blocks from byte address addr.
type blockRun struct {
	addr int64
	n    int64
}

// end is the byte address just past the run.
func (r blockRun) end() int64 { return r.addr + r.n*BlockSize }

// stagedRelease is one commit's worth of released runs, coalesced,
// allocatable once virtual time reaches at (the releasing superblock's
// completion).
type stagedRelease struct {
	at   time.Duration
	runs []blockRun
}

// ckptInfo describes one retained checkpoint. The index stores its first
// three fields; durable is when the commit's superblock lands, 0 for an entry
// loaded from media, which is durable already, and settled notes that a wait
// on the epoch recorded its settle event in the flight ring, which happens
// once per epoch.
type ckptInfo struct {
	epoch     Epoch
	indexAddr int64
	indexLen  int64
	durable   time.Duration
	settled   bool
}

// object is the live, in-memory state of one store object.
type object struct {
	oid   OID
	utype uint16
	size  int64

	// Exactly one of these shapes applies:
	inline  []byte               // small record payload
	chunks  *radix.Table[*chunk] // block-map chunks by chunk index; nil unless paged
	journal *journalState        // non-COW journal extent

	dirty      bool  // modified since last checkpoint
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
	s       *Store               // whose device the table's blocks are on
	objects radix.Table[*object] // by oidKey, so it walks in ascending OID order
}

// Store is the Aurora object store.
type Store struct {
	image // the live object table
	dev   BlockDev
	clk   clock.Clock
	costs *clock.Costs
	tr    *trace.Tracer
	fl    *flight.Recorder

	epoch    Epoch // last committed epoch
	nextOID  OID
	deadlist []deadBlock
	retained []ckptInfo

	// free is the free map: every allocatable block, as disjoint runs in
	// descending address order with no two adjacent (see alloc.go). spare
	// is the buffer a promotion merges into, swapped with free after, and
	// the commit's index map is built in; scratch gathers its releases.
	free, spare, scratch []blockRun

	// birthOf is the epoch in which each block allocated during this session
	// was born, by block number; 0 — a block loaded from committed metadata,
	// or one past the slice — is "as old as any retained checkpoint".
	birthOf []Epoch

	// releasing stages runs freed by a release (and same-interval blocks a
	// WAL frame may reference) until the next superblock lands, appended
	// unsorted. Handing them straight to the allocator would let this
	// interval overwrite blocks that a crash — recovering to the
	// still-on-device previous superblock, whose retained list references
	// the released history — needs intact. The next commit coalesces them,
	// serializes them as free in its map and moves them onto releaseQ,
	// stamped with the committing superblock's durability time.
	releasing []blockRun

	// releaseQ holds releases whose omitting superblock has been submitted
	// but may still sit in a device queue. Only once virtual time passes the
	// superblock's completion can a power cut no longer resurrect the old
	// index that references these blocks — promotion into the free map is
	// gated on that instant, not on submit.
	releaseQ []stagedRelease

	// pendingDurable is the completion time of the latest submitted write
	// belonging to the in-progress interval; the next commit waits for it.
	pendingDurable time.Duration
	one            [1][]byte    // submit's vector, so single-buffer writes allocate none
	pages          pageScratch  // writePages's, for the same reason
	audit          auditScratch // AuditLive's, for the same reason
	frame          rec.Encoder  // Journal.Append's, for the same reason

	superSlot int // which superblock slot the next commit uses

	// WAL-first commit state (see wal.go). walBase/walBlocks fix the
	// reserved region's geometry at Format time; walHead is the append
	// offset within it; walFrames counts this generation's committed frames
	// (zeroed by every fold), so it is the last frame's seq; walPending
	// accumulates the interval's delta ops.
	walBase     int64
	walBlocks   int64
	walHead     int64
	walFrames   int
	walPending  []walOp
	walReplayed int // frames replayed by the last Recover

	// flSeq is the recorder sequence number the flight ring reaches in the
	// last accepted commit: the index's whole ring or a frame's tail. It
	// moves only once the superblock or frame is submitted, and is 0 after
	// Recover (a boot starts a fresh recorder, whose first tail is its whole
	// ring).
	flSeq uint64

	// recovered is the flight ring Recover read: the index's ring, then each
	// replayed frame's tail, in order (see RecoveredFlight). nil on a
	// formatted store, or one whose commits carried no ring.
	recovered [][]byte

	// replaying is set while walRecover replays the chain. Replay runs the
	// apply the live mutators run; while it does, walNote records nothing
	// and claimWALBlock takes the blocks frames name out of the free map.
	replaying bool

	// lastDurable is the previous durability point (WAL frame or
	// superblock), feeding the durable-window histogram.
	lastDurable time.Duration

	stats Stats
}

// blankStore is a store over dev with nothing formatted or loaded.
func blankStore(dev BlockDev, clk clock.Clock, costs *clock.Costs, tr *trace.Tracer) *Store {
	s := &Store{
		dev:   dev,
		clk:   clk,
		costs: costs,
		tr:    tr,
	}
	s.image = image{s: s}
	return s
}

// Format initializes an empty store on dev, committing epoch 0.
func Format(dev BlockDev, clk clock.Clock, costs *clock.Costs) (*Store, error) {
	s := blankStore(dev, clk, costs, nil)
	s.nextOID = 1
	s.walBase = 2 * BlockSize // blocks 0,1 are superblocks
	s.walBlocks = walBlocksFor(dev.Size())
	if n := (dev.Size() - s.dataStart()) / BlockSize; n > 0 {
		s.free = []blockRun{{s.dataStart(), n}}
	}
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
// uncommitted state (the paper's crash case) is invisible. A non-nil tr is
// attached before the first read, so recovery itself lands on the timeline:
// one objstore "recover" span whose children super, index, records and wal
// tile it exactly.
func Recover(dev BlockDev, clk clock.Clock, costs *clock.Costs, tr *trace.Tracer) (*Store, error) {
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
	sp.End(trace.I("epoch", int64(s.epoch)), trace.I("objects", int64(s.objects.Len())))
	return s, nil
}

// SetTracer attaches tr to the store; nil disables tracing. Wire it at
// build time — it is not synchronized against in-flight operations.
func (s *Store) SetTracer(tr *trace.Tracer) { s.tr = tr }

// SetFlight attaches the flight recorder; nil disables it. Each checkpoint
// index carries the whole ring and each WAL frame the events since the last
// accepted commit, so the recent event history survives a crash (see
// RecoveredFlight). It stays on this machine: replication ships objects,
// and the ring is none. Wire it at build time, like the tracer.
func (s *Store) SetFlight(fl *flight.Recorder) { s.fl = fl }

// Flight returns the attached flight recorder (nil if none).
func (s *Store) Flight() *flight.Recorder { return s.fl }

// RecoveredFlight decodes the flight ring Recover read: the pre-crash
// forensic timeline, as of the commit recovery landed on. Later commits of
// this boot do not change it. It returns the events oldest-first plus the
// recorder's sequence number at that commit; ok is false on a store Format
// created, or one whose image carried no ring.
//
// The pieces join in order: a frame's tail whose first event follows the
// ring so far is appended, any other replaces it (the ring wrapped between
// commits, or a new boot's recorder cut it), and the result keeps the newest
// flight.DefaultCap events, as the recorder did.
func (s *Store) RecoveredFlight() (evs []flight.Event, seq uint64, ok bool, err error) {
	for _, b := range s.recovered {
		tail, tseq, err := flight.Decode(b)
		if err != nil {
			return nil, 0, true, err
		}
		if tseq-uint64(len(tail)) != seq {
			evs = evs[:0]
		}
		evs, seq = append(evs, tail...), tseq
	}
	if n := len(evs) - flight.DefaultCap; n > 0 {
		evs = evs[n:]
	}
	return evs, seq, s.recovered != nil, nil
}

// Epoch returns the last committed checkpoint epoch.
func (s *Store) Epoch() Epoch { return s.epoch }

// curEpoch is the epoch the in-progress interval will commit as.
func (s *Store) curEpoch() Epoch { return s.epoch + 1 }

// PendingDurable reports the virtual completion time of the latest
// asynchronous write submitted to the device — the write-behind horizon.
// Callers use it for flow control (bounding dirty data in flight).
func (s *Store) PendingDurable() time.Duration { return s.pendingDurable }

// submit queues p at off, its transfer not starting before after, and
// folds the completion time into the interval's durability horizon — which
// the next commit point is in turn ordered behind.
func (s *Store) submit(p []byte, off int64, after time.Duration) (time.Duration, error) {
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
	oid := s.nextOID
	s.nextOID++
	return oid
}

// Stats returns a snapshot of store counters.
func (s *Store) Stats() Stats {
	st := s.stats
	st.ObjectsLive = int64(s.objects.Len())
	return st
}

// ensure returns the object, creating it if absent.
func (s *Store) ensure(oid OID, utype uint16) *object {
	o := s.get(oid)
	if o == nil {
		o = &object{oid: oid, utype: utype}
		s.objects.Set(oidKey(oid), o)
		// A caller can name the top OID (PutRecord takes any): it must not
		// bump the allocator, since oid+1 would wrap to 0 and restart
		// allocation over live objects.
		if oid >= s.nextOID && oid+1 != 0 {
			s.nextOID = oid + 1
		}
	}
	o.dirty = true
	return o
}
