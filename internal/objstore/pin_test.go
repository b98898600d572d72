package objstore

// Pins taken before the store's mutators and readers were each stated once:
// the device image a scripted mix of every mutation leaves behind, and the
// agreement of a View with the Store it images, error text included.

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"aurora/internal/clock"
)

// pinBytes is n bytes that differ by tag and position.
func pinBytes(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag ^ byte(i*7) ^ byte(i>>8)
	}
	return b
}

const (
	storeImageSHA   = "4abd5ab9a88a9881876877e1033aefeb544c1ba00f2f7d3b396d31634660339c"
	storeImageState = "{Checkpoints:2 ObjectsLive:7 BlocksAllocated:100 BlocksFreed:4 MetaBytes:33545 DataBytes:294912} free=523166 dead=43 now=229595\n" +
		"{Checkpoints:2 ObjectsLive:6 BlocksAllocated:16 BlocksFreed:87 MetaBytes:11127 DataBytes:16384} free=523237 dead=3 now=1075267"
)

// TestStoreImagePinned drives, on a bare Store, the mutations the root
// TestOnDiskFormatPinned does not reach — unaligned Truncate of a paged
// object down and up again, Delete of a paged object and of a journal, a
// spilled record put back inline, WriteAt across a chunk boundary, a journal
// truncate — over several WAL frames, recovers mid-chain so that replay's
// retire and claim order is on the media, mutates the recovered objects while
// their chunks are still unloaded, and folds with retention. The image, the
// counters, the two pool sizes and the virtual clock are what a refactor must reproduce.
func TestStoreImagePinned(t *testing.T) {
	s, dev, clk := newStore(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	walCommit := func(s *Store) {
		t.Helper()
		_, err := s.WALCommit()
		must(err)
	}
	var inl, pgd, pgd2, pgd3, spill, spill2, jrn, jrn2, bare OID
	for _, p := range []*OID{&inl, &pgd, &pgd2, &pgd3, &spill, &spill2, &jrn, &jrn2, &bare} {
		*p = s.NewOID()
	}

	// The base image: everything below is committed by a full checkpoint.
	must(s.PutRecord(inl, 1, []byte("inline v1")))
	s.Ensure(pgd, 2)
	for _, pg := range []int64{0, 1, 2, 3, 4, 5, ChunkFanout - 1, ChunkFanout, ChunkFanout + 3} {
		must(s.WritePage(pgd, pg, pinBytes(byte(pg), BlockSize)))
	}
	must(s.WriteAt(pgd, ChunkFanout*BlockSize-100, pinBytes(0xA1, 300)))
	for _, oid := range []OID{pgd2, pgd3} {
		s.Ensure(oid, 2)
		var batch []PageWrite
		for pg := int64(ChunkFanout - 4); pg < ChunkFanout+6; pg++ {
			batch = append(batch, PageWrite{Pg: pg, Data: pinBytes(byte(oid)+byte(pg), BlockSize)})
		}
		_, err := s.WritePages(oid, batch)
		must(err)
	}
	must(s.PutRecord(spill, 4, pinBytes(0xB2, InlineMax+2*BlockSize+17)))
	must(s.PutRecord(spill2, 4, pinBytes(0xB3, InlineMax+BlockSize+1)))
	j, err := s.CreateJournal(jrn, 3, 8*BlockSize)
	must(err)
	for i := 0; i < 2; i++ {
		_, err = j.Append(pinBytes(0xC0+byte(i), 700))
		must(err)
	}
	jj, err := s.CreateJournal(jrn2, 3, 2*BlockSize)
	must(err)
	_, err = jj.Append(pinBytes(0xC8, 90))
	must(err)
	_, err = s.Checkpoint()
	must(err)

	// Three WAL frames on top of it.
	must(s.Truncate(pgd, 3*BlockSize+1000)) // drops chunk 1 and pages 4, 5; rewrites page 3
	walCommit(s)
	must(s.Truncate(pgd, ChunkFanout*BlockSize+5000)) // regrow: the tail of page 3 must read zero
	must(s.WritePage(pgd, ChunkFanout+1, pinBytes(0xD4, BlockSize)))
	must(s.PutRecord(spill, 4, []byte("back inline")))
	j.Truncate()
	_, err = j.Append(pinBytes(0xC2, 300))
	must(err)
	walCommit(s)
	must(s.Delete(pgd2))
	must(s.Delete(jrn2))
	s.Ensure(bare, 5)
	must(s.Truncate(inl, 4))
	walCommit(s)
	must(s.PutRecord(inl, 1, []byte("never committed")))
	must(s.WaitWALDurable(s.WALSeq()))
	state := func(s *Store) string {
		return fmt.Sprintf("%+v free=%d dead=%d now=%d", s.Stats(), s.FreeBlocks(), s.DeadBlocks(), clk.Now())
	}
	before := state(s)

	// Reboot with the chain outstanding, then keep going on what replay built.
	s, err = Recover(dev, clk, clock.DefaultCosts(), nil)
	must(err)
	if got := s.WALReplayed(); got != 3 {
		t.Fatalf("replayed %d frames, want 3", got)
	}
	tail := make([]byte, BlockSize)
	if _, err := s.ReadAt(pgd, 3*BlockSize, tail); err != nil || !bytes.Equal(tail[1000:], make([]byte, BlockSize-1000)) {
		t.Fatalf("page 3 past the truncation point is not zero after regrow and replay (err %v)", err)
	}
	must(s.Truncate(pgd, 2*BlockSize+7))
	must(s.PutRecord(spill2, 4, []byte("inline over unloaded chunks")))
	must(s.Delete(pgd3))
	must(s.WriteAt(pgd, ChunkFanout*BlockSize-50, pinBytes(0xE5, 120)))
	j, err = s.OpenJournal(jrn)
	must(err)
	_, err = j.Append(pinBytes(0xC3, 500))
	must(err)
	walCommit(s)
	must(s.Truncate(pgd, ChunkFanout*BlockSize))
	_, err = s.CheckpointRetaining(1)
	must(err)
	must(s.WaitDurable(s.Epoch()))
	must(s.PutRecord(inl, 1, []byte("inline v3")))
	must(s.WritePage(pgd, 7, pinBytes(0xF6, BlockSize)))
	_, err = s.CheckpointRetaining(1)
	must(err)
	must(s.WaitDurable(s.Epoch()))

	if rep := s.Fsck(); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
	if probs := s.AuditLive(); len(probs) != 0 {
		t.Fatalf("audit: %v", probs)
	}
	if got := before + "\n" + state(s); got != storeImageState {
		t.Errorf("store state\n got %s\nwant %s", got, storeImageState)
	}
	if got := fmt.Sprintf("%x", imageHash(t, dev)); got != storeImageSHA {
		t.Errorf("device image\n got %s\nwant %s", got, storeImageSHA)
	}
}

// imageReader is the eight read methods a Store and a View share.
type imageReader interface {
	Objects() []OID
	Exists(OID) bool
	UType(OID) (uint16, error)
	Size(OID) (int64, error)
	GetRecord(OID) ([]byte, error)
	ReadPage(OID, int64, []byte) (bool, error)
	HasPage(OID, int64) (bool, error)
	EachPageBulk(OID, func(int64, []byte) error) (int64, error)
}

// readTranscript renders every answer r gives about oids: values (page and
// record contents by CRC) and the full text of every error.
func readTranscript(r imageReader, oids []OID, pgs []int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "objects %v\n", r.Objects())
	page := make([]byte, BlockSize)
	for _, oid := range oids {
		ut, uerr := r.UType(oid)
		sz, serr := r.Size(oid)
		fmt.Fprintf(&b, "oid %d exists=%v utype=%d (%v) size=%d (%v)\n", oid, r.Exists(oid), ut, uerr, sz, serr)
		rec, err := r.GetRecord(oid)
		fmt.Fprintf(&b, "  record len=%d crc=%08x (%v)\n", len(rec), crc32.ChecksumIEEE(rec), err)
		for _, pg := range pgs {
			found, rerr := r.ReadPage(oid, pg, page)
			has, herr := r.HasPage(oid, pg)
			fmt.Fprintf(&b, "  page %d read=%v crc=%08x (%v) has=%v (%v)\n",
				pg, found, crc32.ChecksumIEEE(page), rerr, has, herr)
		}
		n, err := r.EachPageBulk(oid, func(pg int64, data []byte) error {
			fmt.Fprintf(&b, "  bulk %d crc=%08x\n", pg, crc32.ChecksumIEEE(data))
			return nil
		})
		fmt.Fprintf(&b, "  bulk n=%d (%v)\n", n, err)
	}
	return b.String()
}

// TestViewMatchesStore: a View of the current epoch answers all eight read
// methods exactly as the Store does — inline, paged (with holes, across two
// chunks, chunks not yet faulted in), spilled, journal and absent objects,
// value for value and error text for error text.
func TestViewMatchesStore(t *testing.T) {
	s, dev, clk := newStore(t)
	inl, pgd, spill, jrn, absent := s.NewOID(), s.NewOID(), s.NewOID(), s.NewOID(), OID(99)
	if err := s.PutRecord(inl, 1, pinBytes(0x11, BlockSize+300)); err != nil {
		t.Fatal(err)
	}
	s.Ensure(pgd, 2)
	for _, pg := range []int64{0, 2, ChunkFanout - 1, ChunkFanout + 1} {
		if err := s.WritePage(pgd, pg, pinBytes(byte(pg), BlockSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutRecord(spill, 4, pinBytes(0x22, InlineMax+BlockSize+5)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateJournal(jrn, 3, 2*BlockSize); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s = reopen(t, dev, clk) // both sides fault their chunks from the device
	v, err := s.RestoreView(s.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	oids := []OID{inl, pgd, spill, jrn, absent}
	pgs := []int64{0, 1, 2, ChunkFanout - 1, ChunkFanout, ChunkFanout + 1, 3 * ChunkFanout}
	got, want := readTranscript(v, oids, pgs), readTranscript(s, oids, pgs)
	if got != want {
		t.Fatalf("view and store disagree\n--- view\n%s--- store\n%s", got, want)
	}
	for _, line := range []string{
		"objects [1 2 3 4]\n",
		"oid 99 exists=false utype=0 (objstore: no such object: 99) size=0 (objstore: no such object: 99)\n",
		"  record len=0 crc=00000000 (objstore: no such object: 99)\n",
		"  record len=0 crc=00000000 (objstore: object is a journal)\n",
		"has=false (objstore: object is a journal)\n",
		"  bulk n=0 (objstore: object is a journal)\n",
		"  bulk n=0 (objstore: no such object: 99)\n",
		"  bulk n=4 (<nil>)\n",  // pgd: four stored pages
		"  bulk n=18 (<nil>)\n", // spill: InlineMax+BlockSize+5 bytes
		"  bulk n=2 (<nil>)\n",  // inl: synthesized from the inline payload
	} {
		if !strings.Contains(got, line) {
			t.Errorf("transcript lacks %q\n%s", line, got)
		}
	}
}

const sparseOIDImageSHA = "0035a23890c255b9efd2188ec155107eae1f01ed94dab1f5fc8073aa4e5c4203"

// TestSparseOIDImagePinned places inline, paged and journal objects on both
// sides of the object table's structural boundaries — a 64-slot leaf (63,
// 64), a 4 096-index directory (4 095, 4 096), a far directory (2^40) and the
// sign bit (2^63 − 1, 2^63, 2^63 + 1) — commits, makes a WAL commit, deletes
// one object in a second, recovers through the chain and commits again. The
// table must walk in ascending OID order throughout: Objects(), the last
// index's entries and, through the flush order, the device image.
func TestSparseOIDImagePinned(t *testing.T) {
	s, dev, clk := newStore(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	oids := []OID{1<<63 + 1, 64, 1 << 40, 4095, 1 << 63, 63, 4096, 1<<63 - 1}
	for i, oid := range oids { // created out of order
		switch i % 3 {
		case 0:
			must(s.PutRecord(oid, 1, pinBytes(byte(i), 40+i)))
		case 1:
			s.Ensure(oid, 2)
			for _, pg := range []int64{0, ChunkFanout + 1} {
				must(s.WritePage(oid, pg, pinBytes(byte(i)+byte(pg), BlockSize)))
			}
		case 2:
			j, err := s.CreateJournal(oid, 3, 2*BlockSize)
			must(err)
			_, err = j.Append(pinBytes(byte(i), 300))
			must(err)
		}
	}
	_, err := s.Checkpoint()
	must(err)
	must(s.PutRecord(1<<63+1, 1, []byte("rewritten")))
	must(s.WritePage(64, 2, pinBytes(0xA0, BlockSize)))
	_, err = s.WALCommit()
	must(err)
	must(s.Delete(1 << 63))
	_, err = s.WALCommit()
	must(err)
	must(s.WaitWALDurable(s.WALSeq()))

	const want = "[63 64 4095 4096 1099511627776 9223372036854775807 9223372036854775809]"
	if got := fmt.Sprint(s.Objects()); got != want {
		t.Fatalf("live objects %s, want %s", got, want)
	}
	s = reopen(t, dev, clk)
	if got := s.WALReplayed(); got != 2 {
		t.Fatalf("replayed %d frames, want 2", got)
	}
	if got := fmt.Sprint(s.Objects()); got != want {
		t.Fatalf("recovered objects %s, want %s", got, want)
	}
	_, err = s.Checkpoint()
	must(err)
	must(s.WaitDurable(s.Epoch()))
	info := s.retained[len(s.retained)-1]
	idx, err := s.fetchIndex(info.indexAddr, info.indexLen)
	must(err)
	var listed []OID
	for _, ent := range idx.objects {
		listed = append(listed, ent.oid)
	}
	if got := fmt.Sprint(listed); got != want {
		t.Errorf("index lists %s, want %s", got, want)
	}
	if rep := s.Fsck(); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
	if probs := s.AuditLive(); len(probs) != 0 {
		t.Fatalf("audit: %v", probs)
	}
	if got := fmt.Sprintf("%x", imageHash(t, dev)); got != sparseOIDImageSHA {
		t.Errorf("device image\n got %s\nwant %s", got, sparseOIDImageSHA)
	}
}
