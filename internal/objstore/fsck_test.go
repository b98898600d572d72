package objstore

import (
	"fmt"
	"strings"
	"testing"
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
