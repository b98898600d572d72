package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"aurora/internal/device"
	"aurora/internal/rec"
)

func TestFsckCleanStore(t *testing.T) {
	s, dev, clk := newStore(t)
	for i := 0; i < 20; i++ {
		oid := s.NewOID()
		if i%3 == 0 {
			if _, err := s.CreateJournal(oid, 9, 64<<10); err != nil {
				t.Fatal(err)
			}
			continue
		}
		s.Ensure(oid, 2)
		page := make([]byte, BlockSize)
		for pg := int64(0); pg < 8; pg++ {
			s.WritePage(oid, pg, page)
		}
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rep := s.Fsck()
	if !rep.OK() {
		t.Fatalf("clean store has problems: %v", rep.Problems)
	}
	if rep.Objects != 20 || rep.Journals != 7 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Blocks == 0 {
		t.Fatal("no blocks counted")
	}

	// Survives recovery too.
	s2 := reopen(t, dev, clk)
	rep2 := s2.Fsck()
	if !rep2.OK() {
		t.Fatalf("recovered store has problems: %v", rep2.Problems)
	}
}

func TestFsckAfterHeavyChurn(t *testing.T) {
	s, _, _ := newStore(t)
	oid := s.NewOID()
	s.Ensure(oid, 2)
	page := make([]byte, BlockSize)
	for e := 0; e < 20; e++ {
		for pg := int64(0); pg < 32; pg++ {
			page[0] = byte(e)
			s.WritePage(oid, pg, page)
		}
		if e%4 == 3 {
			other := s.NewOID()
			s.PutRecord(other, 1, []byte(fmt.Sprintf("churn-%d", e)))
			if e%8 == 7 {
				s.Delete(other)
			}
		}
		if _, err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if e%5 == 4 {
			s.ReleaseCheckpointsBefore(s.Epoch())
		}
	}
	rep := s.Fsck()
	if !rep.OK() {
		t.Fatalf("post-churn problems: %v", rep.Problems)
	}
}

func TestFsckDetectsCorruptRecord(t *testing.T) {
	s, dev, _ := newStore(t)
	oid := s.NewOID()
	s.PutRecord(oid, 1, []byte("to be corrupted"))
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Smash the record's committed blocks directly on the device.
	addr := s.get(oid).recordAddr
	garbage := make([]byte, BlockSize)
	for i := range garbage {
		garbage[i] = 0x5A
	}
	dev.PokeAt(garbage, addr)
	rep := s.Fsck()
	if rep.OK() {
		t.Fatal("fsck missed a corrupted record")
	}
}

// pageAddr digs out the committed device address of one page, for tests
// that corrupt media underneath fsck.
func pageAddr(t *testing.T, s *Store, oid OID, pg int64) int64 {
	t.Helper()
	o := s.get(oid)
	if o == nil || o.chunks == nil {
		t.Fatalf("object %d not paged", oid)
	}
	c, err := s.loadChunk(o, pg, false)
	if err != nil {
		t.Fatal(err)
	}
	addr := c.addrs[pg%ChunkFanout]
	if addr == 0 {
		t.Fatalf("page %d is a hole", pg)
	}
	return addr
}

func TestFsckScrubCountsPages(t *testing.T) {
	s, _, _ := newStore(t)
	oid := s.NewOID()
	s.Ensure(oid, 2)
	page := make([]byte, BlockSize)
	for pg := int64(0); pg < 5; pg++ {
		page[0] = byte(pg + 1)
		if err := s.WritePage(oid, pg, page); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rep := s.Fsck()
	if !rep.OK() {
		t.Fatalf("problems: %v", rep.Problems)
	}
	if rep.ScrubbedPages != 5 {
		t.Fatalf("scrubbed %d pages, want 5", rep.ScrubbedPages)
	}
}

func TestFsckDetectsBitRot(t *testing.T) {
	// One flipped bit in a committed data page — silent media decay — must
	// fail the scrub against the chunk's per-slot checksum.
	s, dev, _ := newStore(t)
	oid := s.NewOID()
	s.Ensure(oid, 2)
	page := make([]byte, BlockSize)
	for i := range page {
		page[i] = byte(i)
	}
	if err := s.WritePage(oid, 3, page); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	addr := pageAddr(t, s, oid, 3)
	rot := make([]byte, 1)
	dev.PeekAt(rot, addr+100)
	rot[0] ^= 0x40
	dev.PokeAt(rot, addr+100)

	rep := s.Fsck()
	if rep.OK() {
		t.Fatal("fsck missed a single flipped bit in a data page")
	}
	found := false
	for _, p := range rep.Problems {
		if strings.Contains(p, "torn or rotted") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no scrub problem reported: %v", rep.Problems)
	}
}

func TestFsckDetectsTornPage(t *testing.T) {
	// A page whose first sector holds different (e.g. stale or half-
	// written) content is torn; the whole-page checksum catches it even
	// though every sector is individually plausible.
	s, dev, _ := newStore(t)
	oid := s.NewOID()
	s.Ensure(oid, 2)
	page := make([]byte, BlockSize)
	for i := range page {
		page[i] = 0x3C
	}
	if err := s.WritePage(oid, 0, page); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	addr := pageAddr(t, s, oid, 0)
	dev.PokeAt(make([]byte, 512), addr) // first sector reverts to zeros

	rep := s.Fsck()
	if rep.OK() {
		t.Fatal("fsck missed a torn page")
	}
}

func TestFsckDetectsCorruptChunkBlock(t *testing.T) {
	// Chunks are lazily loaded after recovery; a corrupted chunk block must
	// fail its whole-block CRC rather than hand out garbage page addresses.
	s, dev, clk := newStore(t)
	oid := s.NewOID()
	s.Ensure(oid, 2)
	if err := s.WritePage(oid, 0, make([]byte, BlockSize)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	chunkAddr := chunkOf(s.get(oid), 0).addr

	s2 := reopen(t, dev, clk) // drop the in-memory chunk cache
	garbage := make([]byte, BlockSize)
	for i := range garbage {
		garbage[i] = 0xDB
	}
	dev.PokeAt(garbage, chunkAddr)

	rep := s2.Fsck()
	if rep.OK() {
		t.Fatal("fsck missed a corrupt chunk block")
	}
	found := false
	for _, p := range rep.Problems {
		if strings.Contains(p, "chunk") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no chunk problem reported: %v", rep.Problems)
	}
}

// TestFsckWALDetectors plants one fault per WAL detector in the committed
// head — frames written straight to the region, and the store told how many
// frames its generation holds — and wants exactly that detector's report.
func TestFsckWALDetectors(t *testing.T) {
	build := func(t *testing.T) (*Store, *device.Stripe) {
		s, dev, _ := newStore(t)
		for i := 0; i < 2; i++ {
			if _, err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		return s, dev
	}
	// plant writes frames from the region's start, one sector each, makes
	// them the committed head and says the generation holds walSeq frames.
	plant := func(s *Store, dev *device.Stripe, walSeq int, frames ...*walFrame) {
		for i, fr := range frames {
			dev.PokeAt(encodeWALFrame(fr), s.walBase+int64(i)*walSector)
		}
		s.walHead, s.walFrames = int64(len(frames))*walSector, walSeq
	}
	cases := []struct {
		name  string
		fault func(s *Store, dev *device.Stripe)
		want  func(s *Store) string
	}{
		{"future epoch inside the head", func(s *Store, dev *device.Stripe) {
			plant(s, dev, 1, &walFrame{base: s.epoch, seq: 1}, &walFrame{base: s.epoch + 2, seq: 2})
		}, func(s *Store) string {
			return fmt.Sprintf("wal: orphaned frame at %#x for future epoch %d (store at %d)", s.walBase+walSector, s.epoch+2, s.epoch)
		}},
		{"sequence gap", func(s *Store, dev *device.Stripe) {
			plant(s, dev, 3, &walFrame{base: s.epoch, seq: 1}, &walFrame{base: s.epoch, seq: 3})
		}, func(s *Store) string {
			return fmt.Sprintf("wal: frame at %#x has seq 3, expected 2", s.walBase+walSector)
		}},
		{"stale generation inside the head", func(s *Store, dev *device.Stripe) {
			plant(s, dev, 1, &walFrame{base: s.epoch, seq: 1}, &walFrame{base: s.epoch - 1, seq: 1})
		}, func(s *Store) string {
			return fmt.Sprintf("wal: stale generation frame at %#x inside committed head", s.walBase+walSector)
		}},
		{"chain short of the store's sequence", func(s *Store, dev *device.Stripe) {
			plant(s, dev, 3, &walFrame{base: s.epoch, seq: 1}, &walFrame{base: s.epoch, seq: 2})
		}, func(*Store) string {
			return "wal: committed chain reaches seq 2, store says 3"
		}},
		{"unreadable region", func(s *Store, _ *device.Stripe) {
			s.dev = walReadFails{s.dev, s.walBase}
		}, func(*Store) string {
			return "wal: region unreadable: planted read error"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, dev := build(t)
			tc.fault(s, dev)
			want := tc.want(s)
			if rep := s.Fsck(); len(rep.Problems) != 1 || rep.Problems[0] != want {
				t.Fatalf("problems %q, want only %q", rep.Problems, want)
			}
		})
	}
}

// walReadFails fails every read that starts at the WAL region's base.
type walReadFails struct {
	BlockDev
	base int64
}

func (d walReadFails) ReadAt(p []byte, off int64) (int, error) {
	if off == d.base {
		return 0, errors.New("planted read error")
	}
	return d.BlockDev.ReadAt(p, off)
}

// TestFsckDetectsRottedRetainedIndex: the index of an epoch the store still
// retains, though no longer the current one, rots on the device.
func TestFsckDetectsRottedRetainedIndex(t *testing.T) {
	s, dev, _ := newStore(t)
	oid := s.NewOID()
	for i := 0; i < 2; i++ {
		if err := s.PutRecord(oid, 1, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	old := s.retained[0]
	if old.epoch == s.epoch {
		t.Fatalf("setup: only epoch %d retained", old.epoch)
	}
	dev.PokeAt(bytes.Repeat([]byte{0x5A}, BlockSize), old.indexAddr)
	rep := s.Fsck()
	if len(rep.Problems) != 1 || !strings.HasPrefix(rep.Problems[0], fmt.Sprintf("retained epoch %d: index unreadable: ", old.epoch)) {
		t.Fatalf("problems %q, want epoch %d's index unreadable", rep.Problems, old.epoch)
	}
}

// TestDecodeSuperblockRefusals: a slot too short for the body, and a sealed
// body that is not a superblock, are refused; the same bytes with the
// superblock's magic are not.
func TestDecodeSuperblockRefusals(t *testing.T) {
	good := encodeSuperblock(superblock{epoch: 7, indexAddr: 1 << 20, indexLen: 4096, walBase: 8192, walBlocks: 16})
	if sb, ok := decodeSuperblock(good); !ok || sb.epoch != 7 || sb.walBlocks != 16 {
		t.Fatalf("a good superblock decodes to %+v, %v", sb, ok)
	}
	if _, ok := decodeSuperblock(good[:40]); ok {
		t.Error("a slot shorter than the body decoded")
	}
	var e rec.Encoder
	e.U32(magicSuper + 1)
	for range 5 {
		e.U64(9)
	}
	if _, ok := decodeSuperblock(e.Seal()); ok {
		t.Error("a sealed body with the wrong magic decoded")
	}
}
