package objstore

// Binary encoding for on-device metadata: object records, checkpoint
// indexes, and superblocks, in the sealed-record wire form of internal/rec.
// All integers are little-endian; every structure ends in a CRC-32 so
// recovery can reject torn or stale metadata.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"aurora/internal/rec"
)

// Magic numbers for the on-device structures.
const (
	magicSuper  = 0x41525342 // "ARSB"
	magicIndex  = 0x41524958 // "ARIX"
	magicRecord = 0x41524F42 // "AROB"
	magicFrame  = 0x4152464D // "ARFM"
	magicWAL    = 0x4152574C // "ARWL"
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
		// Chunk roots, sorted for determinism.
		idxs := sortedChunkIdxs(o)
		e.U32(uint32(len(idxs)))
		for _, ci := range idxs {
			e.I64(ci)
			e.I64(o.chunks[ci].addr)
		}
	default:
		e.U8(shapeInline)
		e.Bytes(o.inline)
	}
	return e.Seal()
}

// sortedChunkIdxs lists the object's chunks in index order. A chunk with no
// address that is not dirty was reserved by a batch that failed before
// publishing into it: it holds nothing, and a record naming it would root a
// chunk at address 0.
func sortedChunkIdxs(o *object) []int64 {
	idxs := make([]int64, 0, len(o.chunks))
	for ci, c := range o.chunks {
		if c.addr != 0 || c.dirty {
			idxs = append(idxs, ci)
		}
	}
	slices.Sort(idxs)
	return idxs
}

// chunkIdxs lists every chunk of the object in index order: the order a walk
// that retires blocks or faults chunks must keep, because the first feeds the
// freelist and the second hits the device and the trace.
func chunkIdxs(o *object) []int64 {
	idxs := make([]int64, 0, len(o.chunks))
	for ci := range o.chunks {
		idxs = append(idxs, ci)
	}
	slices.Sort(idxs)
	return idxs
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
			// A corrupt count must not size the map or drive the loop.
			return nil, fmt.Errorf("%w: %d chunk roots in %d bytes", ErrCorrupt, n, d.Remaining())
		}
		o.chunks = make(map[int64]*chunk, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			ci := d.I64()
			addr := d.I64()
			o.chunks[ci] = &chunk{addr: addr, loaded: false}
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
	nextBlk  int64
	freelist []int64
	deadlist []deadBlock
	retained []ckptInfo
	objects  []indexEntry
}

type indexEntry struct {
	oid  OID
	addr int64
	len  int64
}

// encodeIndex serializes a checkpoint index, returning the unsealed body.
// The caller encodes from post-allocation state (the index's own blocks are
// allocated before the final encode), so no field patching is needed.
func encodeIndex(st *indexState) *rec.Encoder {
	var e rec.Encoder
	e.U32(magicIndex)
	e.U64(uint64(st.epoch))
	e.U64(uint64(st.nextOID))
	e.I64(st.nextBlk)
	e.U32(uint32(len(st.freelist)))
	for _, a := range st.freelist {
		e.I64(a)
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
	return &e
}

// indexLen is the sealed size of an index with the given list lengths: the
// fixed header, four counted lists and the CRC.
func indexLen(free, dead, retained, objects int) int64 {
	return 4 + 3*8 + 4*4 + 8*int64(free) + 24*int64(dead+retained+objects) + 4
}

// decodeIndex parses a checkpoint index.
func decodeIndex(b []byte) (*indexState, error) {
	d, err := openSealed(b)
	if err != nil {
		return nil, err
	}
	if d.U32() != magicIndex {
		return nil, fmt.Errorf("%w: bad index magic", ErrCorrupt)
	}
	st := &indexState{
		epoch:   Epoch(d.U64()),
		nextOID: OID(d.U64()),
		nextBlk: d.I64(),
	}
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		st.freelist = append(st.freelist, d.I64())
	}
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		st.deadlist = append(st.deadlist, deadBlock{
			addr: d.I64(), birth: Epoch(d.U64()), freedAt: Epoch(d.U64()),
		})
	}
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		st.retained = append(st.retained, ckptInfo{
			epoch: Epoch(d.U64()), indexAddr: d.I64(), indexLen: d.I64(),
		})
	}
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		st.objects = append(st.objects, indexEntry{
			oid: OID(d.U64()), addr: d.I64(), len: d.I64(),
		})
	}
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
	sb := superblock{
		epoch:     Epoch(d.U64()),
		indexAddr: d.I64(),
		indexLen:  d.I64(),
		walBase:   d.I64(),
		walBlocks: d.I64(),
	}
	if d.Err() != nil {
		return superblock{}, false
	}
	return sb, true
}
