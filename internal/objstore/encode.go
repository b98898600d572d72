package objstore

// Binary encoding for on-device metadata: object records, checkpoint
// indexes, and superblocks, in the sealed-record wire form of internal/rec.
// All integers are little-endian; every structure ends in a CRC-32 so
// recovery can reject torn or stale metadata.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"aurora/internal/radix"
	"aurora/internal/rec"
)

// Magic numbers for the on-device structures. IndexMagic, the first word of
// every checkpoint index, is the one tools (and tests) look for on raw media.
const (
	magicSuper  = 0x41525342 // "ARSB"
	IndexMagic  = 0x4152494F // "ARIO": an index that carries the flight ring after its object table
	magicRecord = 0x41524F42 // "AROB"
	magicFrame  = 0x4152464D // "ARFM"
	magicWAL    = 0x4152574D // "ARWM": a frame whose flight tail is a field, not an op
)

// Object shapes stored in records.
const (
	shapeInline  = 1
	shapeChunks  = 2
	shapeJournal = 3
)

// openSealed verifies b's trailing CRC and returns a decoder over the body.
func openSealed(b []byte) (*rec.Decoder, error) {
	d, err := rec.NewDecoder(b)
	if err != nil {
		return nil, corrupt(err)
	}
	return d, nil
}

// corrupt reports a codec failure as the store's ErrCorrupt.
func corrupt(err error) error { return fmt.Errorf("%w: %v", ErrCorrupt, err) }

// encodeRecord serializes one object's committed state.
func encodeRecord(o *object) []byte {
	var e rec.Encoder
	e.U32(magicRecord)
	e.U64(uint64(o.oid))
	e.U16(o.utype)
	e.I64(o.size)
	switch {
	case o.journal != nil:
		e.U8(shapeJournal)
		e.I64(o.journal.extentAddr)
		e.I64(o.journal.capBlocks)
		e.U64(o.journal.generation)
		e.U64(o.journal.flushedSeq)
	case o.chunks != nil:
		e.U8(shapeChunks)
		e.U32(uint32(o.chunks.Len()))
		for ci, c := range o.chunks.All() {
			e.I64(ci)
			e.I64(c.addr)
		}
	default:
		e.U8(shapeInline)
		e.Bytes(o.inline)
	}
	return e.Seal()
}

// decodeRecord parses an object record. Chunk contents load lazily.
func decodeRecord(b []byte) (*object, error) {
	d, err := openSealed(b)
	if err != nil {
		return nil, err
	}
	if d.U32() != magicRecord {
		return nil, fmt.Errorf("%w: bad record magic", ErrCorrupt)
	}
	o := &object{
		oid:   OID(d.U64()),
		utype: d.U16(),
		size:  d.I64(),
	}
	switch shape := d.U8(); shape {
	case shapeJournal:
		o.journal = &journalState{
			extentAddr: d.I64(),
			capBlocks:  d.I64(),
			generation: d.U64(),
			flushedSeq: d.U64(),
		}
	case shapeChunks:
		n := int(d.U32())
		if n > d.Remaining()/16 {
			// A corrupt count must not drive the loop.
			return nil, fmt.Errorf("%w: %d chunk roots in %d bytes", ErrCorrupt, n, d.Remaining())
		}
		o.chunks = new(radix.Table[*chunk])
		// Roots are strictly ascending: a duplicate would drop a chunk's block.
		for i, prev := 0, int64(-1); i < n && d.Err() == nil; i++ {
			ci, addr := d.I64(), d.I64()
			if ci <= prev {
				return nil, fmt.Errorf("%w: chunk root %d after %d", ErrCorrupt, ci, prev)
			}
			o.chunks.Set(ci, &chunk{addr: addr, loaded: false})
			prev = ci
		}
	case shapeInline:
		o.inline = d.Bytes()
	default:
		return nil, fmt.Errorf("%w: unknown shape %d", ErrCorrupt, shape)
	}
	if err := d.Err(); err != nil {
		return nil, corrupt(err)
	}
	return o, nil
}

// encodeChunk serializes a block-map chunk into exactly one block: the
// address array, the per-slot page checksums, and a whole-chunk CRC in the
// final four bytes so recovery and fsck can reject a torn or rotted chunk
// outright.
func encodeChunk(c *chunk) []byte {
	b := make([]byte, BlockSize)
	for i, a := range c.addrs {
		binary.LittleEndian.PutUint64(b[i*8:], uint64(a))
	}
	sumsOff := ChunkFanout * 8
	for i, s := range c.sums {
		binary.LittleEndian.PutUint32(b[sumsOff+i*4:], s)
	}
	binary.LittleEndian.PutUint32(b[BlockSize-4:], crc32.ChecksumIEEE(b[:BlockSize-4]))
	return b
}

// decodeChunk fills a chunk's address and checksum arrays from one block,
// rejecting it if the chunk CRC does not match.
func decodeChunk(c *chunk, b []byte) error {
	if want := binary.LittleEndian.Uint32(b[BlockSize-4:]); crc32.ChecksumIEEE(b[:BlockSize-4]) != want {
		return fmt.Errorf("%w: chunk checksum mismatch", ErrCorrupt)
	}
	for i := range c.addrs {
		c.addrs[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	sumsOff := ChunkFanout * 8
	for i := range c.sums {
		c.sums[i] = binary.LittleEndian.Uint32(b[sumsOff+i*4:])
	}
	c.loaded = true
	return nil
}

// indexState is the decoded form of a checkpoint index.
type indexState struct {
	epoch    Epoch
	nextOID  OID
	free     []blockRun // the free map, its own run included (see loadIndex)
	deadlist []deadBlock
	retained []ckptInfo
	objects  []indexEntry
	flight   []byte // the flight ring the commit carries (flight.Decode); empty without a recorder
}

type indexEntry struct {
	oid  OID
	addr int64
	len  int64
}

// encodeIndex serializes a checkpoint index, returning the unsealed body.
func encodeIndex(st *indexState) *rec.Encoder {
	var e rec.Encoder
	e.Grow(int(indexLen(len(st.free), len(st.deadlist), len(st.retained), len(st.objects), len(st.flight))))
	e.U32(IndexMagic)
	e.U64(uint64(st.epoch))
	e.U64(uint64(st.nextOID))
	e.U32(uint32(len(st.free)))
	for _, r := range st.free {
		e.I64(r.addr)
		e.I64(r.n)
	}
	e.U32(uint32(len(st.deadlist)))
	for _, db := range st.deadlist {
		e.I64(db.addr)
		e.U64(uint64(db.birth))
		e.U64(uint64(db.freedAt))
	}
	e.U32(uint32(len(st.retained)))
	for _, c := range st.retained {
		e.U64(uint64(c.epoch))
		e.I64(c.indexAddr)
		e.I64(c.indexLen)
	}
	e.U32(uint32(len(st.objects)))
	for _, o := range st.objects {
		e.U64(uint64(o.oid))
		e.I64(o.addr)
		e.I64(o.len)
	}
	e.Bytes(st.flight)
	return &e
}

// indexLen is the sealed size of an index with the given list lengths and
// flight ring bytes: the fixed header, four counted lists, the counted ring
// and the CRC.
func indexLen(runs, dead, retained, objects, ring int) int64 {
	return 4 + 2*8 + 5*4 + 16*int64(runs) + 24*int64(dead+retained+objects) + int64(ring) + 4
}

// decodeIndex parses a checkpoint index of a store whose data region is
// [lo, hi). Its free map must be aligned, non-empty runs inside the region,
// in descending order with a gap between each two; its retained epochs and
// its objects' OIDs must ascend strictly.
func decodeIndex(b []byte, lo, hi int64) (*indexState, error) {
	d, err := openSealed(b)
	if err != nil {
		return nil, err
	}
	if d.U32() != IndexMagic {
		return nil, fmt.Errorf("%w: bad index magic", ErrCorrupt)
	}
	st := &indexState{
		epoch:   Epoch(d.U64()),
		nextOID: OID(d.U64()),
	}
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		r := blockRun{addr: d.I64(), n: d.I64()}
		if d.Err() == nil && (r.addr%BlockSize != 0 || r.n <= 0 || r.addr < lo || r.n > (hi-r.addr)/BlockSize) {
			return nil, fmt.Errorf("%w: free run %d [%#x,+%d blocks) is unaligned, empty, out of order, adjacent or outside [%#x,%#x)",
				ErrCorrupt, i, r.addr, r.n, lo, hi)
		}
		hi = r.addr - BlockSize // the next run ends below this one: adjacent runs are merged
		st.free = append(st.free, r)
	}
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		st.deadlist = append(st.deadlist, deadBlock{
			addr: d.I64(), birth: Epoch(d.U64()), freedAt: Epoch(d.U64()),
		})
	}
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		c := ckptInfo{epoch: Epoch(d.U64()), indexAddr: d.I64(), indexLen: d.I64()}
		if d.Err() == nil && (c.epoch >= st.epoch || i > 0 && c.epoch <= st.retained[i-1].epoch) {
			// The store finds retained epochs by binary search.
			return nil, fmt.Errorf("%w: retained epoch %d out of order", ErrCorrupt, c.epoch)
		}
		st.retained = append(st.retained, c)
	}
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		e := indexEntry{oid: OID(d.U64()), addr: d.I64(), len: d.I64()}
		if d.Err() == nil && i > 0 && e.oid <= st.objects[i-1].oid {
			// The commit lists each object once, ascending.
			return nil, fmt.Errorf("%w: object %d listed out of order", ErrCorrupt, e.oid)
		}
		st.objects = append(st.objects, e)
	}
	st.flight = d.Bytes()
	if err := d.Err(); err != nil {
		return nil, corrupt(err)
	}
	return st, nil
}

// superblock is the commit point. It also fixes the WAL region geometry,
// so recovery never has to re-derive it from the device size.
type superblock struct {
	epoch     Epoch
	indexAddr int64
	indexLen  int64
	walBase   int64
	walBlocks int64
}

// encodeSuperblock fills one block.
func encodeSuperblock(sb superblock) []byte {
	var e rec.Encoder
	e.U32(magicSuper)
	e.U64(uint64(sb.epoch))
	e.I64(sb.indexAddr)
	e.I64(sb.indexLen)
	e.I64(sb.walBase)
	e.I64(sb.walBlocks)
	body := e.Seal()
	out := make([]byte, BlockSize)
	copy(out, body)
	return out
}

// decodeSuperblock parses a superblock slot; ok is false for blank or
// corrupt slots.
func decodeSuperblock(b []byte) (superblock, bool) {
	const bodyLen = 4 + 8 + 8 + 8 + 8 + 8 + 4
	if len(b) < bodyLen {
		return superblock{}, false
	}
	d, err := openSealed(b[:bodyLen])
	if err != nil {
		return superblock{}, false
	}
	if d.U32() != magicSuper {
		return superblock{}, false
	}
	// The sealed body is exactly the five fields past the magic, so no read
	// runs short.
	return superblock{
		epoch:     Epoch(d.U64()),
		indexAddr: d.I64(),
		indexLen:  d.I64(),
		walBase:   d.I64(),
		walBlocks: d.I64(),
	}, true
}
