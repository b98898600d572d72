package objstore

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"aurora/internal/radix"
	"aurora/internal/rec"
)

func TestRecordCodecInline(t *testing.T) {
	o := &object{oid: 42, utype: 7, size: 11, inline: []byte("hello world")}
	b := encodeRecord(o)
	got, err := decodeRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.oid != 42 || got.utype != 7 || got.size != 11 || string(got.inline) != "hello world" {
		t.Fatalf("decoded %+v", got)
	}
}

func TestRecordCodecChunks(t *testing.T) {
	o := &object{
		oid:   7,
		utype: 2,
		size:  1 << 30,
		chunks: chunkTable(map[int64]*chunk{
			0:  {addr: 4096},
			3:  {addr: 8192},
			10: {addr: 12288},
		}),
	}
	b := encodeRecord(o)
	got, err := decodeRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.chunks.Len() != 3 || chunkOf(got, 3).addr != 8192 {
		t.Fatalf("chunk roots %v", chunkRoots(got))
	}
	if chunkOf(got, 3).loaded {
		t.Fatal("decoded chunk claims to be loaded")
	}
}

func TestRecordCodecJournal(t *testing.T) {
	o := &object{
		oid:   9,
		utype: 9,
		journal: &journalState{
			extentAddr: 1 << 20,
			capBlocks:  256,
			generation: 5,
			flushedSeq: 1234,
		},
	}
	b := encodeRecord(o)
	got, err := decodeRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	js := got.journal
	if js == nil || js.extentAddr != 1<<20 || js.capBlocks != 256 || js.generation != 5 || js.flushedSeq != 1234 {
		t.Fatalf("journal %+v", js)
	}
}

func TestRecordCodecRejectsCorruption(t *testing.T) {
	flipped := encodeRecord(&object{oid: 1, utype: 1, inline: []byte("x")})
	flipped[5] ^= 0xFF
	// Validly sealed, but the chunk count promises four billion roots the
	// record does not hold: it must fail before sizing a map off the count.
	var huge rec.Encoder
	huge.U32(magicRecord)
	huge.U64(7)
	huge.U16(2)
	huge.I64(1 << 30)
	huge.U8(shapeChunks)
	huge.U32(0xFFFFFFFF)
	huge.I64(0)
	huge.I64(4096)
	// Resealed one root short of the count it states.
	chunked := encodeRecord(&object{oid: 7, utype: 2, chunks: chunkTable(map[int64]*chunk{0: {addr: 4096}, 3: {addr: 8192}})})
	// Validly sealed, with the chunk roots in the order given.
	roots := func(cis ...int64) []byte {
		var e rec.Encoder
		e.U32(magicRecord)
		e.U64(7)
		e.U16(2)
		e.I64(1 << 30)
		e.U8(shapeChunks)
		e.U32(uint32(len(cis)))
		for i, ci := range cis {
			e.I64(ci)
			e.I64(int64(i+1) * 4096)
		}
		return e.Seal()
	}

	// Validly sealed and well formed, under another magic.
	var alien rec.Encoder
	alien.U32(magicRecord ^ 1)
	alien.U64(1)
	alien.U16(1)
	alien.I64(1)
	alien.U8(shapeInline)
	alien.Bytes([]byte("x"))

	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"flipped byte", flipped},
		{"bad magic", alien.Seal()},
		{"nil", nil},
		{"short buffer", []byte{1, 2, 3}},
		{"huge chunk count", huge.Seal()},
		{"chunk count past the record", resealed(chunked[:len(chunked)-4-16])},
		{"duplicate chunk root", roots(0, 3, 3)},
		{"descending chunk roots", roots(3, 0)},
		{"negative chunk root", roots(-1, 0)},
	} {
		if _, err := decodeRecord(tc.b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// chunkTable builds a block map holding chunks.
func chunkTable(chunks map[int64]*chunk) *radix.Table[*chunk] {
	t := new(radix.Table[*chunk])
	for ci, c := range chunks {
		t.Set(ci, c)
	}
	return t
}

// chunkOf returns o's chunk ci, nil if it has none.
func chunkOf(o *object, ci int64) *chunk {
	c, _ := o.chunks.Get(ci)
	return c
}

// resealed puts a valid CRC on body, so only the decoder's structural checks
// stand between a damaged record and the caller.
func resealed(body []byte) []byte {
	var e rec.Encoder
	e.Append(body)
	return e.Seal()
}

func TestSuperblockCodec(t *testing.T) {
	sb := superblock{epoch: 17, indexAddr: 4096, indexLen: 999}
	b := encodeSuperblock(sb)
	if len(b) != BlockSize {
		t.Fatalf("superblock size %d", len(b))
	}
	got, ok := decodeSuperblock(b)
	if !ok || got != sb {
		t.Fatalf("decoded %+v ok=%v", got, ok)
	}
	// Blank and corrupt slots are rejected, not misread.
	if _, ok := decodeSuperblock(make([]byte, BlockSize)); ok {
		t.Fatal("blank slot decoded")
	}
	b[8] ^= 1
	if _, ok := decodeSuperblock(b); ok {
		t.Fatal("corrupt slot decoded")
	}
}

func TestIndexCodecRoundTrip(t *testing.T) {
	st := &indexState{
		epoch:    5,
		nextOID:  100,
		free:     []blockRun{{40960, 3}, {8192, 1}},
		deadlist: []deadBlock{{addr: 12288, birth: 2, freedAt: 4}},
		retained: []ckptInfo{{epoch: 3, indexAddr: 16384, indexLen: 100, durable: time.Second, settled: true}},
		objects:  []indexEntry{{oid: 9, addr: 20480, len: 50}},
	}
	e := encodeIndex(st)
	got, err := decodeIndex(e.Seal(), 8192, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got.epoch != 5 || got.nextOID != 100 {
		t.Fatalf("header %+v", got)
	}
	if !slices.Equal(got.free, st.free) || len(got.deadlist) != 1 || len(got.retained) != 1 || len(got.objects) != 1 {
		t.Fatalf("lists %+v", got)
	}
	if got.deadlist[0] != st.deadlist[0] || got.objects[0] != st.objects[0] {
		t.Fatal("entries mismatch")
	}
	// A retained entry's landing time lives in memory only: the index holds
	// epoch, address and length, and an entry read back is durable already.
	if want := (ckptInfo{epoch: 3, indexAddr: 16384, indexLen: 100}); got.retained[0] != want {
		t.Fatalf("retained entry %+v, want %+v", got.retained[0], want)
	}
}

// TestDecodeIndexRefusesBadRuns: an index's free map is outside input. A run
// that is unaligned, empty, overlapping or out of order, or outside the data
// region, fails the decode as ErrCorrupt; so does a retained list that is not
// strictly ascending below the index's own epoch, and an index of an older
// format, on its magic.
func TestDecodeIndexRefusesBadRuns(t *testing.T) {
	const lo, hi = 8192, 1 << 20
	for _, tc := range []struct {
		name string
		free []blockRun
	}{
		{"unaligned", []blockRun{{40961, 1}}},
		{"empty", []blockRun{{40960, 0}}},
		{"negative", []blockRun{{40960, -1}}},
		{"overlapping", []blockRun{{40960, 3}, {36864, 2}}},
		{"out of order", []blockRun{{8192, 1}, {40960, 1}}},
		{"adjacent", []blockRun{{40960, 1}, {36864, 1}}},
		{"below the region", []blockRun{{4096, 1}}},
		{"past the end", []blockRun{{hi - BlockSize, 2}}},
		{"overflowing", []blockRun{{40960, 1 << 62}}},
	} {
		if _, err := decodeIndex(encodeIndex(&indexState{free: tc.free}).Seal(), lo, hi); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decode = %v, want ErrCorrupt", tc.name, err)
		}
	}
	for _, retained := range [][]ckptInfo{{{epoch: 3}, {epoch: 2}}, {{epoch: 3}, {epoch: 3}}, {{epoch: 5}}} {
		idx := &indexState{epoch: 5, retained: retained}
		if _, err := decodeIndex(encodeIndex(idx).Seal(), lo, hi); !errors.Is(err, ErrCorrupt) {
			t.Errorf("retained %v under epoch 5: decode = %v, want ErrCorrupt", retained, err)
		}
	}
	for _, oids := range [][]OID{{3, 3}, {4, 3}, {1 << 63, 1}} {
		idx := &indexState{}
		for _, oid := range oids {
			idx.objects = append(idx.objects, indexEntry{oid: oid, addr: lo, len: 1})
		}
		if _, err := decodeIndex(encodeIndex(idx).Seal(), lo, hi); !errors.Is(err, ErrCorrupt) {
			t.Errorf("objects %v: decode = %v, want ErrCorrupt", oids, err)
		}
	}
	for _, magic := range []uint32{
		0x41524958, // "ARIX", the per-block freelist's index
		0x4152494D, // "ARIM", the free map's, beside journal frames of their own layout
	} {
		var old rec.Encoder
		old.U32(magic)
		old.U64(5)
		if _, err := decodeIndex(old.Seal(), lo, hi); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("old-format index %#x: decode = %v, want ErrCorrupt on its magic", magic, err)
		}
	}
}

// Property: record codec round-trips arbitrary inline objects.
func TestRecordCodecProperty(t *testing.T) {
	f := func(oid uint64, utype uint16, data []byte) bool {
		if len(data) > InlineMax {
			data = data[:InlineMax]
		}
		o := &object{oid: OID(oid), utype: utype, size: int64(len(data)), inline: data}
		got, err := decodeRecord(encodeRecord(o))
		if err != nil {
			return false
		}
		return got.oid == o.oid && got.utype == o.utype && got.size == o.size &&
			string(got.inline) == string(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
