package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"aurora/internal/clock"
	"aurora/internal/device"
	"aurora/internal/flight"
)

func newStore(t *testing.T) (*Store, *device.Stripe, *clock.Virtual) {
	t.Helper()
	clk := clock.NewVirtual()
	dev := device.NewStripe(clk, clock.DefaultCosts(), 4, 64<<10, 512<<20)
	s, err := Format(dev, clk, clock.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	return s, dev, clk
}

func reopen(t *testing.T, dev *device.Stripe, clk *clock.Virtual) *Store {
	t.Helper()
	s, err := Recover(dev, clk, clock.DefaultCosts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFormatCommitsEpochOne(t *testing.T) {
	s, _, _ := newStore(t)
	if got := s.Epoch(); got != 1 {
		t.Fatalf("fresh store epoch = %d, want 1", got)
	}
	if len(s.Objects()) != 0 {
		t.Fatal("fresh store has objects")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	s, _, _ := newStore(t)
	oid := s.NewOID()
	want := []byte("a file descriptor record")
	if err := s.PutRecord(oid, 7, want); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetRecord(oid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
	if ut, _ := s.UType(oid); ut != 7 {
		t.Fatalf("utype = %d, want 7", ut)
	}
	if sz, _ := s.Size(oid); sz != int64(len(want)) {
		t.Fatalf("size = %d, want %d", sz, len(want))
	}
}

func TestLargeRecordSpillsToPages(t *testing.T) {
	s, _, _ := newStore(t)
	oid := s.NewOID()
	want := make([]byte, InlineMax*4)
	for i := range want {
		want[i] = byte(i * 13)
	}
	if err := s.PutRecord(oid, 1, want); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetRecord(oid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("large record corrupted")
	}
}

func TestRecordSurvivesRecovery(t *testing.T) {
	s, dev, clk := newStore(t)
	oid := s.NewOID()
	if err := s.PutRecord(oid, 3, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, dev, clk)
	got, err := s2.GetRecord(oid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "persisted" {
		t.Fatalf("after recovery got %q", got)
	}
	if ut, _ := s2.UType(oid); ut != 3 {
		t.Fatalf("utype lost: %d", ut)
	}
}

func TestUncommittedInvisibleAfterRecovery(t *testing.T) {
	s, dev, clk := newStore(t)
	committed := s.NewOID()
	s.PutRecord(committed, 1, []byte("old"))
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Modify and create without committing.
	s.PutRecord(committed, 1, []byte("new-uncommitted"))
	orphan := s.NewOID()
	s.PutRecord(orphan, 1, []byte("orphan"))

	s2 := reopen(t, dev, clk)
	got, err := s2.GetRecord(committed)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old" {
		t.Fatalf("recovered %q, want pre-crash committed %q", got, "old")
	}
	if s2.Exists(orphan) {
		t.Fatal("uncommitted object visible after recovery")
	}
}

func TestPageRoundTrip(t *testing.T) {
	s, _, _ := newStore(t)
	oid := s.NewOID()
	s.Ensure(oid, 2)
	page := make([]byte, BlockSize)
	for i := range page {
		page[i] = byte(i)
	}
	if err := s.WritePage(oid, 5, page); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, BlockSize)
	found, err := s.ReadPage(oid, 5, got)
	if err != nil || !found {
		t.Fatalf("found=%v err=%v", found, err)
	}
	if !bytes.Equal(got, page) {
		t.Fatal("page corrupted")
	}
	// Hole reads report absence and zeros.
	found, err = s.ReadPage(oid, 4, got)
	if err != nil || found {
		t.Fatalf("hole: found=%v err=%v", found, err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("hole not zeroed")
		}
	}
	if sz, _ := s.Size(oid); sz != 6*BlockSize {
		t.Fatalf("size = %d, want %d", sz, 6*BlockSize)
	}
}

func TestPagesAcrossChunkBoundary(t *testing.T) {
	s, dev, clk := newStore(t)
	oid := s.NewOID()
	s.Ensure(oid, 2)
	page := make([]byte, BlockSize)
	idxs := []int64{0, ChunkFanout - 1, ChunkFanout, 3 * ChunkFanout}
	for _, pg := range idxs {
		page[0] = byte(pg % 251)
		if err := s.WritePage(oid, pg, page); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, dev, clk)
	for _, pg := range idxs {
		found, err := s2.ReadPage(oid, pg, page)
		if err != nil || !found {
			t.Fatalf("page %d: found=%v err=%v", pg, found, err)
		}
		if page[0] != byte(pg%251) {
			t.Fatalf("page %d content = %d", pg, page[0])
		}
	}
}

// TestHugeSparseObjectStaysSmall is the store's twin of vm's: an object of
// 1 TiB with pages written only at its first and last index allocates what
// two chunks need, not what its size would — the block map is sparse at
// every level — and its record names exactly those two chunks through a
// commit and a recovery.
func TestHugeSparseObjectStaysSmall(t *testing.T) {
	const size = int64(1) << 40
	last := size/BlockSize - 1
	s, dev, clk := newStore(t)
	oid := s.NewOID()
	s.Ensure(oid, 2)
	first, tail := bytes.Repeat([]byte{1}, BlockSize), bytes.Repeat([]byte{2}, BlockSize)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := s.WritePages(oid, []PageWrite{{Pg: 0, Data: first}, {Pg: last, Data: tail}}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if n := m1.TotalAlloc - m0.TotalAlloc; n >= 64<<10 {
		t.Fatalf("a 1 TiB object with 2 stored pages allocated %d bytes, want under 64 KiB", n)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s = reopen(t, dev, clk)
	roots := chunkRoots(s.get(oid))
	if len(roots) != 4 || roots[0] != 0 || roots[2] != last/ChunkFanout {
		t.Fatalf("the recovered record roots chunks %v, want chunks 0 and %d", roots, last/ChunkFanout)
	}
	if got, err := s.Size(oid); err != nil || got != size {
		t.Fatalf("recovered size %d (%v), want %d", got, err, size)
	}
	var pgs []int64
	buf := make([]byte, BlockSize)
	if _, err := s.EachPageBulk(oid, func(pg int64, data []byte) error {
		pgs = append(pgs, pg)
		want := first
		if pg == last {
			want = tail
		}
		if !bytes.Equal(data, want) {
			return fmt.Errorf("page %d holds the wrong bytes", pg)
		}
		return nil
	}); err != nil || !slices.Equal(pgs, []int64{0, last}) {
		t.Fatalf("EachPageBulk visited %v (%v), want [0 %d]", pgs, err, last)
	}
	if ok, err := s.ReadPage(oid, last-1, buf); ok || err != nil {
		t.Fatalf("the page before the last reads as stored (%v, %v)", ok, err)
	}
}

func TestWriteAtReadAt(t *testing.T) {
	s, _, _ := newStore(t)
	oid := s.NewOID()
	s.Ensure(oid, 2)
	data := []byte("spans a page boundary for sure")
	off := int64(BlockSize - 10)
	if err := s.WriteAt(oid, off, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	n, err := s.ReadAt(oid, off, got)
	if err != nil || n != len(data) {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
	// Overwrite a middle slice; neighbors must survive (read-modify-write).
	if err := s.WriteAt(oid, off+5, []byte("XYZ")); err != nil {
		t.Fatal(err)
	}
	s.ReadAt(oid, off, got)
	want := append([]byte{}, data...)
	copy(want[5:], "XYZ")
	if !bytes.Equal(got, want) {
		t.Fatalf("after partial overwrite got %q, want %q", got, want)
	}
}

func TestTruncateShrinkAndRegrow(t *testing.T) {
	s, _, _ := newStore(t)
	oid := s.NewOID()
	s.Ensure(oid, 2)
	if err := s.WriteAt(oid, 0, bytes.Repeat([]byte{0xEE}, 3*BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := s.Truncate(oid, BlockSize+100); err != nil {
		t.Fatal(err)
	}
	if sz, _ := s.Size(oid); sz != BlockSize+100 {
		t.Fatalf("size = %d", sz)
	}
	// Regrow: bytes past the old cut must read zero, not stale 0xEE.
	if err := s.Truncate(oid, 2*BlockSize); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 200)
	if _, err := s.ReadAt(oid, BlockSize+50, got); err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 200; i++ {
		if got[i] != 0 {
			t.Fatalf("stale byte at +%d after regrow: %x", i, got[i])
		}
	}
	for i := 0; i < 50; i++ {
		if got[i] != 0xEE {
			t.Fatalf("live byte at +%d lost: %x", i, got[i])
		}
	}
}

func TestDeleteRemovesObject(t *testing.T) {
	s, dev, clk := newStore(t)
	oid := s.NewOID()
	s.PutRecord(oid, 1, []byte("doomed"))
	s.Checkpoint()
	if err := s.Delete(oid); err != nil {
		t.Fatal(err)
	}
	if s.Exists(oid) {
		t.Fatal("object still exists")
	}
	s.Checkpoint()
	s2 := reopen(t, dev, clk)
	if s2.Exists(oid) {
		t.Fatal("deleted object resurrected by recovery")
	}
}

func TestHistoryViews(t *testing.T) {
	s, _, _ := newStore(t)
	oid := s.NewOID()
	s.PutRecord(oid, 1, []byte("epoch2"))
	st2, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	s.PutRecord(oid, 1, []byte("epoch3"))
	other := s.NewOID()
	s.PutRecord(other, 1, []byte("new in 3"))
	st3, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	v2, err := s.RestoreView(st2.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := v2.GetRecord(oid); string(got) != "epoch2" {
		t.Fatalf("view2 record = %q", got)
	}
	if v2.Exists(other) {
		t.Fatal("object from epoch 3 visible in epoch-2 view")
	}

	v3, err := s.RestoreView(st3.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := v3.GetRecord(oid); string(got) != "epoch3" {
		t.Fatalf("view3 record = %q", got)
	}
	if !v3.Exists(other) {
		t.Fatal("epoch-3 object missing from its view")
	}
}

func TestViewOfPagedHistory(t *testing.T) {
	s, _, _ := newStore(t)
	oid := s.NewOID()
	s.Ensure(oid, 2)
	page := make([]byte, BlockSize)
	page[0] = 1
	s.WritePage(oid, 0, page)
	st1, _ := s.Checkpoint()
	page[0] = 2
	s.WritePage(oid, 0, page)
	s.Checkpoint()

	v, err := s.RestoreView(st1.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, BlockSize)
	if _, err := v.ReadPage(oid, 0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("historical page byte = %d, want 1 (old version)", got[0])
	}
	// Live store still sees the new version.
	s.ReadPage(oid, 0, got)
	if got[0] != 2 {
		t.Fatalf("live page byte = %d, want 2", got[0])
	}
}

// TestDiffPagesPinned pins the page lists DiffPages reports against a
// retained epoch, on the live store and again after a recovery (every chunk
// of both images faulted from the device): pages rewritten since the epoch
// in three chunks, one a new chunk; an object inline at the epoch and paged
// now; an object absent at the epoch; and pages truncated away since, which
// are not reported.
func TestDiffPagesPinned(t *testing.T) {
	s, dev, clk := newStore(t)
	page := func(tag byte) []byte { return bytes.Repeat([]byte{tag}, BlockSize) }
	rewritten, inline, truncated, absent := s.NewOID(), s.NewOID(), s.NewOID(), s.NewOID()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	s.Ensure(rewritten, 2)
	for _, pg := range []int64{0, 1, 2, ChunkFanout, ChunkFanout + 1} {
		must(s.WritePage(rewritten, pg, page(1)))
	}
	must(s.PutRecord(inline, 2, []byte("inline at the epoch")))
	s.Ensure(truncated, 2)
	for _, pg := range []int64{0, 1, 2, 3, ChunkFanout + 3} {
		must(s.WritePage(truncated, pg, page(1)))
	}
	old, err := s.Checkpoint()
	must(err)

	for _, pg := range []int64{1, ChunkFanout + 1, 2 * ChunkFanout} {
		must(s.WritePage(rewritten, pg, page(2)))
	}
	must(s.WritePage(inline, 3, page(2))) // converts: the inline bytes become page 0
	s.Ensure(absent, 2)
	for _, pg := range []int64{5, 0, ChunkFanout} {
		must(s.WritePage(absent, pg, page(2)))
	}
	must(s.Truncate(truncated, 2*BlockSize))
	must(s.WritePage(truncated, 1, page(2)))
	_, err = s.Checkpoint()
	must(err)

	want := map[OID][]int64{
		rewritten: {1, 342, 682},
		inline:    {0, 3},
		absent:    {0, 5, 341},
		truncated: {1},
	}
	for _, pass := range []string{"live", "recovered"} {
		if pass == "recovered" {
			s = reopen(t, dev, clk)
		}
		for _, oid := range []OID{rewritten, inline, absent, truncated} {
			got, err := s.DiffPages(oid, old.Epoch)
			must(err)
			if !slices.Equal(got, want[oid]) {
				t.Errorf("%s: DiffPages(oid %d) = %v, want %v", pass, oid, got, want[oid])
			}
		}
	}
}

func TestReleaseHistoryFreesBlocks(t *testing.T) {
	s, _, _ := newStore(t)
	oid := s.NewOID()
	s.Ensure(oid, 2)
	page := make([]byte, BlockSize)
	// Build several epochs each overwriting the same pages.
	for e := 0; e < 5; e++ {
		for pg := int64(0); pg < 8; pg++ {
			page[0] = byte(e)
			s.WritePage(oid, pg, page)
		}
		if _, err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if s.DeadBlocks() == 0 {
		t.Fatal("overwrites produced no dead blocks while history retained")
	}
	freed := s.ReleaseCheckpointsBefore(s.Epoch())
	if freed == 0 {
		t.Fatal("releasing history freed nothing")
	}
	if got := s.RetainedCheckpoints(); len(got) != 1 || got[0] != s.Epoch() {
		t.Fatalf("retained = %v, want only current epoch", got)
	}
	// Released epochs are no longer viewable.
	if _, err := s.RestoreView(2); !errors.Is(err, ErrNoEpoch) {
		t.Fatalf("view of released epoch: err = %v, want ErrNoEpoch", err)
	}
}

func TestSameIntervalOverwriteReusesBlocksImmediately(t *testing.T) {
	s, _, _ := newStore(t)
	oid := s.NewOID()
	s.Ensure(oid, 2)
	page := make([]byte, BlockSize)
	s.WritePage(oid, 0, page) // first version, born this interval
	before := s.FreeBlocks()
	deadBefore := s.DeadBlocks() // index blocks from Format's commit live here
	s.WritePage(oid, 0, page)    // overwrite within the same interval
	// The overwrite takes one block and gives the first version's back.
	if got := s.FreeBlocks(); got != before {
		t.Fatalf("free blocks = %d, want %d (immediate reuse, no GC pass)", got, before)
	}
	if got := s.DeadBlocks(); got != deadBefore {
		t.Fatalf("same-interval overwrite went to deadlist (%d -> %d)", deadBefore, got)
	}
}

func TestIncrementalCheckpointWritesOnlyDirty(t *testing.T) {
	s, _, _ := newStore(t)
	big := s.NewOID()
	s.Ensure(big, 2)
	page := make([]byte, BlockSize)
	for pg := int64(0); pg < 256; pg++ {
		s.WritePage(big, pg, page)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	devBefore := s.Stats().DataBytes
	// Dirty one page; the next checkpoint must not rewrite the other 255.
	s.WritePage(big, 17, page)
	st, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	written := s.Stats().DataBytes - devBefore
	if written != BlockSize {
		t.Fatalf("incremental checkpoint wrote %d data bytes, want one page", written)
	}
	if st.DirtyObjects != 1 {
		t.Fatalf("dirty objects = %d, want 1", st.DirtyObjects)
	}
}

func TestCheckpointDurability(t *testing.T) {
	s, _, clk := newStore(t)
	oid := s.NewOID()
	s.PutRecord(oid, 1, bytes.Repeat([]byte("x"), 1<<20))
	st, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if st.DurableAt <= clk.Now() {
		// A 1 MiB flush takes longer than the synchronous commit charge.
		t.Fatalf("durableAt %v not after now %v", st.DurableAt, clk.Now())
	}
	if err := s.WaitDurable(st.Epoch); err != nil {
		t.Fatal(err)
	}
	if clk.Now() < st.DurableAt {
		t.Fatalf("WaitDurable left clock at %v, want >= %v", clk.Now(), st.DurableAt)
	}
	if err := s.WaitDurable(999); !errors.Is(err, ErrNoEpoch) {
		t.Fatalf("WaitDurable(999) = %v", err)
	}
}

// A recovered store can wait on what it recovered: the current epoch, an
// older retained one and each replayed frame are on the media already, so
// every wait returns at once and DurableAt reports 0.
func TestRecoveredStoreWaitsOnWhatItRecovered(t *testing.T) {
	s, dev, clk := newStore(t)
	oid := s.NewOID()
	if err := s.PutRecord(oid, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRecord(oid, 1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	st, err := s.WALCommit()
	if err != nil {
		t.Fatal(err)
	}
	s.WaitDurableAt(st.DurableAt)
	r := reopen(t, dev, clk)
	if r.Epoch() != 2 || r.WALSeq() != 1 || !slices.Equal(r.RetainedCheckpoints(), []Epoch{1, 2}) {
		t.Fatalf("setup: recovered epoch %d, wal seq %d, retained %v", r.Epoch(), r.WALSeq(), r.RetainedCheckpoints())
	}
	now := clk.Now()
	for _, e := range []Epoch{2, 1} {
		if err := r.WaitDurable(e); err != nil {
			t.Errorf("WaitDurable(%d): %v", e, err)
		}
		if at, ok := r.DurableAt(e); at != 0 || !ok {
			t.Errorf("DurableAt(%d) = %v, %v; want 0, true", e, at, ok)
		}
	}
	if clk.Now() != now {
		t.Errorf("waits on recovered state moved the clock %v -> %v", now, clk.Now())
	}
}

// The flight ring gets one settle event per epoch, however often the epoch
// is waited on; an epoch retention trimmed cannot be waited on; a recovered
// epoch's first wait records its event.
func TestSettleRecordedOncePerEpoch(t *testing.T) {
	s, dev, clk, fl := storeWithFlight(t)
	settles := func(fl *flight.Recorder, e Epoch) (n int) {
		for _, ev := range fl.Events() {
			if ev.Kind == flight.EvDevSettle && ev.A == int64(e) {
				n++
			}
		}
		return n
	}
	cst, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		if err := s.WaitDurable(cst.Epoch); err != nil {
			t.Fatal(err)
		}
	}
	if n := settles(fl, cst.Epoch); n != 1 {
		t.Fatalf("three waits on epoch %d recorded %d settle events, want 1", cst.Epoch, n)
	}
	for range 2 {
		if _, err := s.CheckpointRetaining(1); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WaitDurable(cst.Epoch); !errors.Is(err, ErrNoEpoch) {
		t.Fatalf("wait on trimmed epoch %d = %v, want ErrNoEpoch", cst.Epoch, err)
	}

	r := reopen(t, dev, clk)
	fl2 := flight.NewRecorder(0)
	r.SetFlight(fl2)
	for range 3 {
		if err := r.WaitDurable(r.Epoch()); err != nil {
			t.Fatal(err)
		}
	}
	if n := settles(fl2, r.Epoch()); n != 1 {
		t.Fatalf("three waits on recovered epoch %d recorded %d settle events, want 1", r.Epoch(), n)
	}
}

func TestManyObjectsSurviveRecovery(t *testing.T) {
	s, dev, clk := newStore(t)
	const n = 200
	oids := make([]OID, n)
	for i := range oids {
		oids[i] = s.NewOID()
		s.PutRecord(oids[i], uint16(i%8), []byte(fmt.Sprintf("object-%d", i)))
	}
	s.Checkpoint()
	s2 := reopen(t, dev, clk)
	for i, oid := range oids {
		got, err := s2.GetRecord(oid)
		if err != nil {
			t.Fatalf("object %d: %v", i, err)
		}
		if want := fmt.Sprintf("object-%d", i); string(got) != want {
			t.Fatalf("object %d = %q, want %q", i, got, want)
		}
	}
	// OID allocation resumes without collision.
	fresh := s2.NewOID()
	for _, oid := range oids {
		if fresh == oid {
			t.Fatal("recovered store reissued an existing OID")
		}
	}
}

func TestJournalRejectsPagedOps(t *testing.T) {
	s, _, _ := newStore(t)
	oid := s.NewOID()
	if _, err := s.CreateJournal(oid, 9, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(oid, 0, make([]byte, BlockSize)); !errors.Is(err, ErrIsJournal) {
		t.Fatalf("WritePage on journal: %v", err)
	}
	if _, err := s.GetRecord(oid); !errors.Is(err, ErrIsJournal) {
		t.Fatalf("GetRecord on journal: %v", err)
	}
	other := s.NewOID()
	s.PutRecord(other, 1, []byte("x"))
	if _, err := s.OpenJournal(other); !errors.Is(err, ErrNotJournal) {
		t.Fatalf("OpenJournal on record: %v", err)
	}
}

// Property: a random interleaving of writes, checkpoints and recoveries
// always reads back the data as of the last committed checkpoint.
func TestCommittedStateProperty(t *testing.T) {
	type step struct {
		Write      bool
		Page       uint8
		Val        byte
		Checkpoint bool
		Crash      bool
	}
	f := func(steps []step) bool {
		clk := clock.NewVirtual()
		dev := device.NewStripe(clk, clock.DefaultCosts(), 4, 64<<10, 256<<20)
		s, err := Format(dev, clk, clock.DefaultCosts())
		if err != nil {
			return false
		}
		oid := s.NewOID()
		s.Ensure(oid, 2)
		if _, err := s.Checkpoint(); err != nil {
			return false
		}
		live := map[uint8]byte{}      // state including uncommitted writes
		committed := map[uint8]byte{} // state as of last checkpoint
		page := make([]byte, BlockSize)
		for _, st := range steps {
			switch {
			case st.Crash:
				s2, err := Recover(dev, clk, clock.DefaultCosts(), nil)
				if err != nil {
					return false
				}
				s = s2
				live = map[uint8]byte{}
				for k, v := range committed {
					live[k] = v
				}
			case st.Checkpoint:
				if _, err := s.Checkpoint(); err != nil {
					return false
				}
				committed = map[uint8]byte{}
				for k, v := range live {
					committed[k] = v
				}
			case st.Write:
				pg := int64(st.Page % 16)
				page[0] = st.Val
				if err := s.WritePage(oid, pg, page); err != nil {
					return false
				}
				live[uint8(pg)] = st.Val
			}
		}
		for pg, want := range live {
			found, err := s.ReadPage(oid, int64(pg), page)
			if err != nil {
				return false
			}
			if !found || page[0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// A chunk block that cannot be read must fail whatever drops the object's
// chunks — Delete, an inline PutRecord over it, replay of a logged delete —
// with nothing retired: retiring around the chunk (what the store did before)
// left every block it addressed neither free nor referenced.
func TestDropOverRottedChunkRetiresNothing(t *testing.T) {
	s, dev, clk := newStore(t)
	oid := s.NewOID()
	s.Ensure(oid, 2)
	for _, pg := range []int64{0, 1, ChunkFanout, ChunkFanout + 1} {
		if err := s.WritePage(oid, pg, pinBytes(byte(pg), BlockSize)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitDurable(s.Epoch()); err != nil {
		t.Fatal(err)
	}
	chunkAddr := chunkOf(s.get(oid), 1).addr
	saved := make([]byte, BlockSize)
	if _, err := dev.ReadAt(saved, chunkAddr); err != nil {
		t.Fatal(err)
	}
	rot := func() { dev.PokeAt(bytes.Repeat([]byte{0xDB}, BlockSize), chunkAddr) }

	s = reopen(t, dev, clk) // chunks unloaded
	rot()
	pools := func() string {
		st := s.Stats()
		return fmt.Sprintf("live=%d dead=%d free=%d", st.BlocksAllocated-st.BlocksFreed, s.DeadBlocks(), s.FreeBlocks())
	}
	before := pools()
	for name, drop := range map[string]func() error{
		"Delete":    func() error { return s.Delete(oid) },
		"PutRecord": func() error { return s.PutRecord(oid, 2, []byte("inline now")) },
	} {
		if err := drop(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s over a rotted chunk: err = %v, want ErrCorrupt", name, err)
		}
		if got := pools(); got != before {
			t.Fatalf("%s over a rotted chunk moved the pools: %s, was %s", name, got, before)
		}
		if has, err := s.HasPage(oid, 0); err != nil || !has {
			t.Fatalf("%s over a rotted chunk damaged the object: page 0 has=%v err=%v", name, has, err)
		}
	}

	// Replay: the delete is logged while the chunk is good, the chunk rots
	// before the reboot.
	dev.PokeAt(saved, chunkAddr)
	s = reopen(t, dev, clk)
	if err := s.Delete(oid); err != nil {
		t.Fatal(err)
	}
	st, err := s.WALCommit()
	if err != nil {
		t.Fatal(err)
	}
	s.WaitDurableAt(st.DurableAt)
	rot()
	if _, err := Recover(dev, clk, clock.DefaultCosts(), nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay of a delete over a rotted chunk: err = %v, want ErrCorrupt", err)
	}
	dev.PokeAt(saved, chunkAddr)
	if rep := reopen(t, dev, clk).Fsck(); !rep.OK() {
		t.Fatalf("fsck with the chunk restored: %v", rep.Problems)
	}
}
