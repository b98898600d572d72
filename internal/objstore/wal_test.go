package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"aurora/internal/clock"
	"aurora/internal/device"
	"aurora/internal/flight"
	"aurora/internal/rec"
	"aurora/internal/trace"
)

// walCommit runs WALCommit and returns its stats and the size of the frame
// it appended, read off the objstore.wal.bytes counter of the store's tracer.
func walCommit(t *testing.T, s *Store) (WALCommitStats, int64) {
	t.Helper()
	if s.tr == nil {
		s.SetTracer(trace.New(s.clk))
	}
	before := s.tr.CounterValue("objstore.wal.bytes")
	st, err := s.WALCommit()
	if err != nil {
		t.Fatal(err)
	}
	return st, s.tr.CounterValue("objstore.wal.bytes") - before
}

// putPage builds a deterministic page payload.
func walPage(tag byte) []byte {
	p := make([]byte, BlockSize)
	for i := range p {
		p[i] = tag ^ byte(i)
	}
	return p
}

func TestWALCommitReplaysAfterReopen(t *testing.T) {
	s, dev, clk := newStore(t)
	rec := s.NewOID()
	pgd := s.NewOID()
	s.Ensure(pgd, 9)

	// Interval 1: inline record + two pages, committed as WAL frame 1.
	if err := s.PutRecord(rec, 7, []byte("frame one")); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(pgd, 0, walPage(0xA1)); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(pgd, 3, walPage(0xA3)); err != nil {
		t.Fatal(err)
	}
	st, err := s.WALCommit()
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 1 || st.Base != s.Epoch() {
		t.Fatalf("frame 1 stats = %+v (epoch %d)", st, s.Epoch())
	}

	// Interval 2: overwrite both, shrink the paged object, frame 2.
	if err := s.PutRecord(rec, 7, []byte("frame two, longer payload")); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(pgd, 0, walPage(0xB0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Truncate(pgd, 2*BlockSize); err != nil {
		t.Fatal(err)
	}
	if st, err = s.WALCommit(); err != nil {
		t.Fatal(err)
	}
	if st.Seq != 2 {
		t.Fatalf("frame 2 seq = %d", st.Seq)
	}
	s.WaitDurableAt(st.DurableAt)

	// The epoch did not advance: WAL commits are sub-checkpoint durability.
	if s.Epoch() != 1 {
		t.Fatalf("epoch advanced to %d on WAL commit", s.Epoch())
	}

	s2 := reopen(t, dev, clk)
	if got := s2.WALSeq(); got != 2 {
		t.Fatalf("recovered WALSeq = %d, want 2", got)
	}
	if got := s2.WALReplayed(); got != 2 {
		t.Fatalf("WALReplayed = %d, want 2", got)
	}
	got, err := s2.GetRecord(rec)
	if err != nil || !bytes.Equal(got, []byte("frame two, longer payload")) {
		t.Fatalf("record after replay = %q, %v", got, err)
	}
	if sz, _ := s2.Size(pgd); sz != 2*BlockSize {
		t.Fatalf("paged size after replay = %d", sz)
	}
	buf := make([]byte, BlockSize)
	if ok, err := s2.ReadPage(pgd, 0, buf); err != nil || !ok || !bytes.Equal(buf, walPage(0xB0)) {
		t.Fatalf("page 0 after replay wrong (ok=%v err=%v)", ok, err)
	}
	if ok, _ := s2.ReadPage(pgd, 3, buf); ok {
		t.Fatal("truncated page 3 still present after replay")
	}
	if rep := s2.Fsck(); !rep.OK() {
		t.Fatalf("fsck after replay: %v", rep.Problems)
	}
	if probs := s2.AuditLive(); len(probs) != 0 {
		t.Fatalf("audit after replay: %v", probs)
	}

	// A further WAL commit continues the chain on the recovered store.
	if err := s2.PutRecord(rec, 7, []byte("frame three")); err != nil {
		t.Fatal(err)
	}
	if st, err = s2.WALCommit(); err != nil {
		t.Fatal(err)
	}
	if st.Seq != 3 {
		t.Fatalf("post-recovery frame seq = %d, want 3", st.Seq)
	}
}

func TestWALFoldResetsGenerationAndHead(t *testing.T) {
	s, _, clk := newStore(t)
	oid := s.NewOID()
	for i := 0; i < 3; i++ {
		if err := s.PutRecord(oid, 1, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := s.WALCommit(); err != nil {
			t.Fatal(err)
		}
	}
	if s.WALSeq() != 3 || s.WALHead() == 0 {
		t.Fatalf("pre-fold WALSeq=%d head=%d", s.WALSeq(), s.WALHead())
	}
	cst, err := s.Fold()
	if err != nil {
		t.Fatal(err)
	}
	if s.WALSeq() != 0 {
		t.Fatalf("post-fold WALSeq = %d", s.WALSeq())
	}
	if s.WALHead() != 0 {
		t.Fatalf("post-fold head = %d, want 0 (Fold waits out the superblock)", s.WALHead())
	}
	if s.Epoch() != cst.Epoch {
		t.Fatalf("epoch %d != fold epoch %d", s.Epoch(), cst.Epoch)
	}
	_ = clk
}

func TestWALDeferredResetKeepsOldFramesUntilFoldDurable(t *testing.T) {
	s, _, _ := newStore(t)
	oid := s.NewOID()
	if err := s.PutRecord(oid, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WALCommit(); err != nil {
		t.Fatal(err)
	}
	headBefore := s.WALHead()
	// Plain Checkpoint (no durability wait): the reset must be deferred.
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.WALHead() != headBefore {
		t.Fatalf("head reset before the fold superblock settled: %d -> %d", headBefore, s.WALHead())
	}
	// After the superblock settles, the next WAL commit restarts the ring.
	if err := s.WaitDurable(s.Epoch()); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRecord(oid, 1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	st, n := walCommit(t, s)
	if st.Seq != 1 {
		t.Fatalf("new generation seq = %d, want 1", st.Seq)
	}
	if s.WALHead() != n {
		t.Fatalf("head = %d after reset+append of %d bytes", s.WALHead(), n)
	}
}

// A frame appended while the fold before it is still in flight lands behind
// the folded generation. Once the fold is durable the head may not restart:
// the ring's start would take the next frame, and the scan, which stops at
// the first frame out of sequence, would lose both.
func TestWALFrameBehindUnsettledFoldSurvives(t *testing.T) {
	s, dev, clk := newStore(t)
	oid := s.NewOID()
	put := func(v string) {
		t.Helper()
		if err := s.PutRecord(oid, 1, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	put("a")
	if _, err := s.WALCommit(); err != nil {
		t.Fatal(err)
	}
	put("b")
	cst, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	put("c")
	st, err := s.WALCommit()
	if err != nil {
		t.Fatal(err)
	}
	if clk.Now() >= cst.DurableAt || st.Seq != 1 || s.WALHead() != 2*walSector {
		t.Fatalf("setup: now %v, fold durable at %v, seq %d, head %d", clk.Now(), cst.DurableAt, st.Seq, s.WALHead())
	}
	clk.Advance(time.Millisecond)
	put("d")
	if st, err = s.WALCommit(); err != nil {
		t.Fatal(err)
	}
	s.WaitDurableAt(st.DurableAt)
	r := reopen(t, dev, clk)
	if got, err := r.GetRecord(oid); err != nil || string(got) != "d" || r.WALReplayed() != 2 {
		t.Fatalf("recovered %q (err %v) from %d frames, want \"d\" from 2", got, err, r.WALReplayed())
	}
}

func TestWALMutationMixReplay(t *testing.T) {
	s, dev, clk := newStore(t)
	rec := s.NewOID()
	big := s.NewOID()
	gone := s.NewOID()
	jrn := s.NewOID()
	bare := s.NewOID()

	if err := s.PutRecord(gone, 2, []byte("to be deleted")); err != nil {
		t.Fatal(err)
	}
	j, err := s.CreateJournal(jrn, 3, 8*BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("j-entry-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WALCommit(); err != nil {
		t.Fatal(err)
	}

	// Frame 2: large record (spills to pages), delete, bare create, WriteAt.
	payload := bytes.Repeat([]byte{0x5A}, InlineMax+3*BlockSize)
	if err := s.PutRecord(big, 4, payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(gone); err != nil {
		t.Fatal(err)
	}
	s.Ensure(bare, 5)
	if err := s.PutRecord(rec, 1, []byte("small")); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("j-entry-2")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WALCommit(); err != nil {
		t.Fatal(err)
	}

	s2 := reopen(t, dev, clk)
	if got := s2.WALSeq(); got != 2 {
		t.Fatalf("WALSeq = %d", got)
	}
	gotBig, err := s2.GetRecord(big)
	if err != nil || !bytes.Equal(gotBig, payload) {
		t.Fatalf("large record after replay: %d bytes, err %v", len(gotBig), err)
	}
	if s2.Exists(gone) {
		t.Fatal("deleted object survived replay")
	}
	if !s2.Exists(bare) {
		t.Fatal("bare-created object lost in replay")
	}
	if ut, _ := s2.UType(bare); ut != 5 {
		t.Fatalf("bare utype = %d", ut)
	}
	j2, err := s2.OpenJournal(jrn)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := j2.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 || string(ents[1].Payload) != "j-entry-2" {
		t.Fatalf("journal entries after replay: %d", len(ents))
	}
	if rep := s2.Fsck(); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
	if probs := s2.AuditLive(); len(probs) != 0 {
		t.Fatalf("audit: %v", probs)
	}
	// A fold on the recovered store must commit cleanly and survive reopen.
	if _, err := s2.Fold(); err != nil {
		t.Fatal(err)
	}
	s3 := reopen(t, dev, clk)
	if got, err := s3.GetRecord(big); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("large record after fold+reopen: err %v", err)
	}
	if rep := s3.Fsck(); !rep.OK() {
		t.Fatalf("fsck after fold: %v", rep.Problems)
	}
}

func TestWALJournalTruncateReplay(t *testing.T) {
	s, dev, clk := newStore(t)
	jrn := s.NewOID()
	j, err := s.CreateJournal(jrn, 3, 8*BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("old-gen")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WALCommit(); err != nil {
		t.Fatal(err)
	}
	// Frame 2 carries the truncation: the old generation's entry is flushed.
	j.Truncate()
	if _, err := s.WALCommit(); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, dev, clk)
	j2, err := s2.OpenJournal(jrn)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := j2.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("truncated journal replayed %d entries", len(ents))
	}
	if rep := s2.Fsck(); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}

func TestWALFullFallsBackToFold(t *testing.T) {
	clk := clock.NewVirtual()
	// Tiny device: 4 MiB -> 1024 blocks -> 128-block WAL region (512 KiB).
	dev := device.New(clk, clock.DefaultCosts(), 4<<20)
	s, err := Format(dev, clk, clock.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	oid := s.NewOID()
	// 48 KiB inline op per frame, distinct each time: an identical put is not
	// a write and would leave the frame empty.
	payload := bytes.Repeat([]byte{7}, 48<<10)
	sawFull := false
	for i := 0; i < 64; i++ {
		payload[0] = byte(i)
		if err := s.PutRecord(oid, 1, payload); err != nil {
			t.Fatal(err)
		}
		_, err := s.WALCommit()
		if errors.Is(err, ErrWALFull) {
			sawFull = true
			if _, err := s.Fold(); err != nil {
				t.Fatal(err)
			}
			// The fold absorbed the pending ops and emptied the ring; a
			// retry now fits.
			payload[1]++
			if err := s.PutRecord(oid, 1, payload); err != nil {
				t.Fatal(err)
			}
			if st, err := s.WALCommit(); err != nil || st.Seq != 1 {
				t.Fatalf("retry after fold: %+v, %v", st, err)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatal("never hit ErrWALFull")
	}
}

// TestWALTornTailProperty is the satellite property test: any sector-prefix
// truncation of the WAL ring replays cleanly to the last fully-committed
// frame — never a partial frame, never a crash, always a clean fsck.
func TestWALTornTailProperty(t *testing.T) {
	s, dev, clk := newStore(t)
	rec := s.NewOID()
	pgd := s.NewOID()
	s.Ensure(pgd, 9)

	const frames = 4
	ends := make([]int64, 0, frames) // ring offset past each committed frame
	for i := 1; i <= frames; i++ {
		if err := s.PutRecord(rec, 7, []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := s.WritePage(pgd, int64(i), walPage(byte(i))); err != nil {
			t.Fatal(err)
		}
		if _, err := s.WALCommit(); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, s.WALHead())
	}
	walBase, walSize := s.WALRegion()
	pristine := make([]byte, walSize)
	if _, err := dev.ReadAt(pristine, walBase); err != nil {
		t.Fatal(err)
	}
	lastEnd := ends[len(ends)-1]

	for cut := int64(0); cut <= lastEnd; cut += 512 {
		// Truncate the ring to a sector prefix: everything at and past the
		// cut is zeroed, as if those sectors never landed.
		region := append([]byte(nil), pristine...)
		for i := cut; i < int64(len(region)); i++ {
			region[i] = 0
		}
		dev.PokeAt(region, walBase)
		s2 := reopen(t, dev, clk)
		wantSeq := uint64(0)
		for fi, end := range ends {
			if end <= cut {
				wantSeq = uint64(fi + 1)
			}
		}
		if got := s2.WALSeq(); got != wantSeq {
			t.Fatalf("cut at %d: WALSeq = %d, want %d", cut, got, wantSeq)
		}
		if wantSeq == 0 {
			if s2.Exists(rec) {
				t.Fatalf("cut at %d: uncommitted record visible", cut)
			}
		} else {
			got, err := s2.GetRecord(rec)
			want := fmt.Sprintf("payload-%d", wantSeq)
			if err != nil || string(got) != want {
				t.Fatalf("cut at %d: record %q (err %v), want %q", cut, got, err, want)
			}
			buf := make([]byte, BlockSize)
			if ok, err := s2.ReadPage(pgd, int64(wantSeq), buf); err != nil || !ok || !bytes.Equal(buf, walPage(byte(wantSeq))) {
				t.Fatalf("cut at %d: page %d wrong (ok=%v err=%v)", cut, wantSeq, ok, err)
			}
			if ok, _ := s2.ReadPage(pgd, int64(wantSeq)+1, buf); ok {
				t.Fatalf("cut at %d: page past committed frame visible", cut)
			}
		}
		if rep := s2.Fsck(); !rep.OK() {
			t.Fatalf("cut at %d: fsck: %v", cut, rep.Problems)
		}
		if probs := s2.AuditLive(); len(probs) != 0 {
			t.Fatalf("cut at %d: audit: %v", cut, probs)
		}
	}
	// Restore the pristine ring so the shared device is sane if reused.
	dev.PokeAt(pristine, walBase)
}

// TestFsckWALScrub is the table-driven WAL scrub battery: injected bit-rot
// inside the committed chain must be flagged, orphaned future-epoch frames
// must be flagged, and garbage past the head must stay clean.
func TestFsckWALScrub(t *testing.T) {
	build := func(t *testing.T) (*Store, *device.Stripe, *clock.Virtual) {
		s, dev, clk := newStore(t)
		oid := s.NewOID()
		for i := 0; i < 2; i++ {
			if err := s.PutRecord(oid, 1, []byte(fmt.Sprintf("wal-%d", i))); err != nil {
				t.Fatal(err)
			}
			if _, err := s.WALCommit(); err != nil {
				t.Fatal(err)
			}
		}
		return s, dev, clk
	}

	cases := []struct {
		name    string
		corrupt func(t *testing.T, s *Store, dev *device.Stripe)
		want    string // problem substring; "" = must stay clean
	}{
		{
			name: "clean",
			corrupt: func(t *testing.T, s *Store, dev *device.Stripe) {
			},
			want: "",
		},
		{
			name: "bitrot-in-committed-frame",
			corrupt: func(t *testing.T, s *Store, dev *device.Stripe) {
				walBase, _ := s.WALRegion()
				b := make([]byte, 1)
				if _, err := dev.ReadAt(b, walBase+20); err != nil {
					t.Fatal(err)
				}
				b[0] ^= 0x40
				dev.PokeAt(b, walBase+20)
			},
			want: "wal: undecodable frame",
		},
		{
			name: "garbage-past-head",
			corrupt: func(t *testing.T, s *Store, dev *device.Stripe) {
				walBase, _ := s.WALRegion()
				junk := bytes.Repeat([]byte{0xDE, 0xAD}, 512)
				dev.PokeAt(junk, walBase+s.WALHead())
			},
			want: "",
		},
		{
			name: "orphan-future-epoch-frame",
			corrupt: func(t *testing.T, s *Store, dev *device.Stripe) {
				walBase, _ := s.WALRegion()
				orphan := encodeWALFrame(new(rec.Encoder), &walFrame{base: s.Epoch() + 5, seq: 1})
				dev.PokeAt(orphan, walBase+s.WALHead())
			},
			want: "orphaned frame",
		},
		{
			name: "torn-tail-partial-frame",
			corrupt: func(t *testing.T, s *Store, dev *device.Stripe) {
				// A prefix of a valid frame past the head: torn, not corrupt.
				walBase, _ := s.WALRegion()
				frame := encodeWALFrame(new(rec.Encoder), &walFrame{base: s.Epoch(), seq: 99})
				dev.PokeAt(frame[:len(frame)-6], walBase+s.WALHead())
			},
			want: "",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, dev, _ := build(t)
			tc.corrupt(t, s, dev)
			rep := s.Fsck()
			if tc.want == "" {
				if !rep.OK() {
					t.Fatalf("want clean, got: %v", rep.Problems)
				}
				return
			}
			found := false
			for _, p := range rep.Problems {
				if strings.Contains(p, tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("want problem containing %q, got: %v", tc.want, rep.Problems)
			}
		})
	}
}

// TestWALIntraIntervalRetireQuarantine: once a WAL frame has committed,
// blocks born in the interval cannot recycle into the free map — a crash
// would replay the frame, which may reference them.
func TestWALIntraIntervalRetireQuarantine(t *testing.T) {
	s, dev, clk := newStore(t)
	oid := s.NewOID()
	s.Ensure(oid, 9)
	if err := s.WritePage(oid, 0, walPage(0x11)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WALCommit(); err != nil {
		t.Fatal(err)
	}
	// Overwrite the same page repeatedly: each write retires the previous
	// interval-born block. With a frame outstanding they must quarantine,
	// not recycle — otherwise a replay of frame 1 would read a block the
	// live run reused for different content.
	for i := 0; i < 4; i++ {
		if err := s.WritePage(oid, 0, walPage(byte(0x20+i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.WALCommit(); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, dev, clk)
	buf := make([]byte, BlockSize)
	if ok, err := s2.ReadPage(oid, 0, buf); err != nil || !ok || !bytes.Equal(buf, walPage(0x23)) {
		t.Fatalf("replayed page content wrong (ok=%v err=%v)", ok, err)
	}
	if rep := s2.Fsck(); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}

// FuzzWALRecord fuzzes the log-frame rule both of the store's logs walk by,
// each log's scan step over bytes held in memory, with seeds drawn from a real
// WAL ring and a real journal extent. The steps must never panic; whatever
// one accepts must encode again byte for byte from what it decoded, and
// flipping any one bit of an accepted frame must make the step refuse it.
func FuzzWALRecord(f *testing.F) {
	// Seed from a real store's WAL ring.
	clk := clock.NewVirtual()
	dev := device.New(clk, clock.DefaultCosts(), 64<<20)
	s, err := Format(dev, clk, clock.DefaultCosts())
	if err != nil {
		f.Fatal(err)
	}
	s.SetFlight(flight.NewRecorder(8)) // every frame carries a flight tail
	oid := s.NewOID()
	pgd := s.NewOID()
	s.Ensure(pgd, 9)
	for i := 0; i < 3; i++ {
		_ = s.PutRecord(oid, 1, bytes.Repeat([]byte{byte(i)}, 40+i*13))
		_ = s.WritePage(pgd, int64(i), walPage(byte(i)))
		if _, err := s.WALCommit(); err != nil {
			f.Fatal(err)
		}
	}
	j, err := s.CreateJournal(s.NewOID(), 3, 4*BlockSize)
	if err != nil {
		f.Fatal(err)
	}
	_ = s.Delete(oid)
	if _, err := s.WALCommit(); err != nil {
		f.Fatal(err)
	}
	base, size := s.WALRegion()
	ring := make([]byte, size)
	if _, err := dev.ReadAt(ring, base); err != nil {
		f.Fatal(err)
	}
	for off := int64(0); off < s.WALHead(); {
		fr, padded := walFrameAt(ring[off:])
		if fr == nil {
			f.Fatalf("seed frame at %d undecodable", off)
		}
		if len(fr.flight) == 0 {
			f.Fatalf("seed frame %d carries no flight tail", fr.seq)
		}
		f.Add(append([]byte(nil), ring[off:off+padded]...))
		off += padded
	}
	// And from the journal's extent: an empty payload, a short one, one
	// longer than a sector, each frame with the bytes after it.
	for _, n := range []int{0, 100, 5000} {
		if _, err := j.Append(bytes.Repeat([]byte{byte(n)}, n)); err != nil {
			f.Fatal(err)
		}
	}
	extent := make([]byte, j.Capacity())
	if _, err := dev.ReadAt(extent, j.o.journal.extentAddr); err != nil {
		f.Fatal(err)
	}
	for sc := (frameScan{size: j.Used(), win: extent}); sc.off < sc.size; {
		at := sc.off
		if frame, _, _, _ := nextFrame(&sc, 0, 0); frame == nil {
			f.Fatalf("seed journal frame at %d refused", at)
		}
		f.Add(append([]byte(nil), extent[at:sc.off+BlockSize/8]...))
	}
	f.Add([]byte{})
	f.Add(make([]byte, walLeast))

	// Each log's rule over b: the frame it accepts at b's start and that
	// frame encoded again from what it decodes to, or nil.
	rules := []struct {
		log  string
		rule func(b []byte) (frame, again []byte)
	}{
		{"wal", func(b []byte) ([]byte, []byte) {
			fr, _ := walFrameAt(b)
			if fr == nil {
				return nil, nil
			}
			frame, _ := rec.Frame(b, magicWAL)
			return frame, encodeWALFrame(new(rec.Encoder), fr)
		}},
		{"journal", func(b []byte) ([]byte, []byte) {
			frame, gen, seq, _ := nextFrame(&frameScan{size: int64(len(b)), win: b}, 0, 0)
			if frame == nil {
				return nil, nil
			}
			var e rec.Encoder
			encodeFrame(&e, gen, seq, rec.FrameBody(frame)[16:])
			return frame, e.Raw()
		}},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, r := range rules {
			frame, again := r.rule(data)
			if frame == nil {
				continue
			}
			if !bytes.Equal(again, frame) {
				t.Fatalf("%s: an accepted %d-byte frame encodes again as %d different bytes", r.log, len(frame), len(again))
			}
			// Every bit of a short frame; of a long one, its first 64 bytes,
			// its CRC and every stride-th byte between.
			flipped := append([]byte(nil), frame...)
			stride := max(1, len(frame)/512)
			for i := range flipped {
				if i >= 64 && i < len(flipped)-4 && i%stride != 0 {
					continue
				}
				for bit := 0; bit < 8; bit++ {
					flipped[i] ^= 1 << bit
					if got, _ := r.rule(flipped); got != nil {
						t.Fatalf("%s: flipping bit %d of byte %d leaves a frame the rule accepts", r.log, bit, i)
					}
					flipped[i] ^= 1 << bit
				}
			}
		}
	})
}

// walFrameAt runs the WAL's scan step over b held in memory.
func walFrameAt(b []byte) (fr *walFrame, padded int64) {
	fr, padded, _ = decodeWALFrame(&frameScan{size: int64(len(b)), win: b})
	return fr, padded
}

// storeWithFlight formats a store on a lone device (which records nothing
// itself, so the recorder moves only when the store's commits move it) with a
// flight recorder attached.
func storeWithFlight(t *testing.T) (*Store, *device.Stripe, *clock.Virtual, *flight.Recorder) {
	t.Helper()
	clk := clock.NewVirtual()
	dev := device.New(clk, clock.DefaultCosts(), 64<<20)
	s, err := Format(dev, clk, clock.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	fl := flight.NewRecorder(0)
	s.SetFlight(fl)
	return s, dev, clk, fl
}

// recoveredRing is RecoveredFlight, failing t unless it found a ring.
func recoveredRing(t *testing.T, s *Store) ([]flight.Event, uint64) {
	t.Helper()
	evs, seq, ok, err := s.RecoveredFlight()
	if err != nil || !ok {
		t.Fatalf("RecoveredFlight: ok %v err %v", ok, err)
	}
	return evs, seq
}

// TestWALFrameCarriesFlightTailOnly: a 4-page commit is a ~1 KiB frame whether
// the flight ring is empty or full — the frame carries the events recorded
// since the last accepted commit, not the ring — and recovery joins the tails
// back into the ring the recorder held at the last frame. A new boot's first
// frame replaces the previous boot's ring.
func TestWALFrameCarriesFlightTailOnly(t *testing.T) {
	s, dev, clk, fl := storeWithFlight(t)
	oid := s.NewOID()
	s.Ensure(oid, 9)
	commit := func(s *Store, round int, steady bool) {
		t.Helper()
		writes := make([]PageWrite, 4)
		for i := range writes {
			writes[i] = PageWrite{Pg: int64(i), Data: walPage(byte(round + i))}
		}
		if _, err := s.WritePages(oid, writes); err != nil {
			t.Fatal(err)
		}
		_, n := walCommit(t, s)
		if steady && n > 2<<10 {
			t.Fatalf("commit %d: a 4-page frame is %d bytes with %d events in the ring, want <= 2 KiB",
				round, n, len(fl.Events()))
		}
	}
	commit(s, 0, true) // empty ring: the first tail is the one append event
	for i := 1; i <= 3*flight.DefaultCap; i++ {
		fl.Record(int64(clk.Now()), flight.EvFlushJob, int64(i), 0, 0, "noise between commits")
		if i%100 == 0 || i == 3*flight.DefaultCap-flight.DefaultCap/2 {
			commit(s, i, false) // tails shorter than the ring, and one wrapping it
		}
	}
	if n := len(fl.Events()); n != flight.DefaultCap {
		t.Fatalf("ring holds %d events, want it full", n)
	}
	commit(s, 999, false)
	commit(s, 1000, true) // full ring, one new event

	s2, err := Recover(dev, clk, clock.DefaultCosts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if evs, seq := recoveredRing(t, s2); seq != fl.Seq() || !slices.Equal(evs, fl.Events()) {
		t.Fatalf("recovered %d events at seq %d, the recorder held %d at seq %d", len(evs), seq, len(fl.Events()), fl.Seq())
	}
	// The next boot's recorder starts over: its first frame replaces the ring.
	fl = flight.NewRecorder(0)
	s2.SetFlight(fl)
	commit(s2, 9, true)
	s3, err := Recover(dev, clk, clock.DefaultCosts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if evs, seq := recoveredRing(t, s3); seq != fl.Seq() || !slices.Equal(evs, fl.Events()) {
		t.Fatalf("first frame after a reboot: recovered %d events at seq %d, want the new boot's %d", len(evs), seq, fl.Seq())
	}
}

// TestWALFailedCommitKeepsFlightTail: a WAL commit that fails leaves neither
// the sequence its tail starts from nor the pending deltas changed, so the
// retry's tail still starts where the last accepted commit ends, and
// recovery returns the whole ring.
func TestWALFailedCommitKeepsFlightTail(t *testing.T) {
	clk := clock.NewVirtual()
	fd := &failNextSubmit{BlockDev: device.New(clk, clock.DefaultCosts(), 64<<20)}
	s, err := Format(fd, clk, clock.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	fl := flight.NewRecorder(0)
	s.SetFlight(fl)
	oid := s.NewOID()
	if err := s.PutRecord(oid, 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WALCommit(); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRecord(oid, 1, []byte("two")); err != nil {
		t.Fatal(err)
	}
	fd.armed = true
	if _, err := s.WALCommit(); err == nil {
		t.Fatal("WALCommit over a failing device succeeded")
	}
	if st, err := s.WALCommit(); err != nil || st.Seq != 2 {
		t.Fatalf("retry: %+v, %v", st, err)
	}
	s2, err := Recover(fd, clk, clock.DefaultCosts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if evs, seq := recoveredRing(t, s2); seq != fl.Seq() || !slices.Equal(evs, fl.Events()) {
		t.Fatalf("ring recovered after a failed-then-retried commit: %d events at seq %d, the recorder held %d at seq %d",
			len(evs), seq, len(fl.Events()), fl.Seq())
	}
	if got, _ := s2.GetRecord(oid); string(got) != "two" {
		t.Fatalf("record after replay = %q", got)
	}
}

// TestRecoveredFlightJoin: the ring RecoveredFlight reports is the one the
// recorder held when the last recovered piece was cut, however the pieces
// relate — a frame's tail continuing the ring, a tail cut after the ring
// wrapped past the last commit, and a new boot's recorder whose first tail
// starts its own count.
func TestRecoveredFlightJoin(t *testing.T) {
	fl := flight.NewRecorder(0)
	record := func(n int) {
		for i := 0; i < n; i++ {
			fl.Record(int64(fl.Seq()), flight.EvFlushJob, int64(i), 0, 0, "")
		}
	}
	s := &Store{}
	check := func(what string, want []flight.Event, wantSeq uint64) {
		t.Helper()
		evs, seq, ok, err := s.RecoveredFlight()
		if err != nil || !ok || seq != wantSeq || !slices.Equal(evs, want) {
			t.Fatalf("%s: %d events seq %d ok %v err %v, want %d events seq %d",
				what, len(evs), seq, ok, err, len(want), wantSeq)
		}
	}
	if _, _, ok, err := s.RecoveredFlight(); ok || err != nil {
		t.Fatalf("no pieces: ok %v err %v", ok, err)
	}

	record(100)
	ring, seq := fl.Since(new(rec.Encoder), 0)
	s.recovered = [][]byte{ring}
	for _, n := range []int{1, 7, 0, 200} { // contiguous tails; the last overflows the capacity
		record(n)
		var tail []byte
		tail, seq = fl.Since(new(rec.Encoder), seq)
		s.recovered = append(s.recovered, tail)
		check(fmt.Sprintf("tail of %d", n), fl.Events(), fl.Seq())
	}
	record(3 * flight.DefaultCap) // the ring wraps past the last commit
	tail, _ := fl.Since(new(rec.Encoder), seq)
	s.recovered = append(s.recovered, tail)
	check("wrapped", fl.Events(), fl.Seq())

	boot := flight.NewRecorder(0) // a new boot's first tail replaces the old ring
	boot.Record(1, flight.EvRestore, 2, 3, 4, "boot")
	tail, _ = boot.Since(new(rec.Encoder), 0)
	s.recovered = append(s.recovered, tail)
	check("new boot", boot.Events(), 1)

	s.recovered = append(s.recovered, []byte("not a ring"))
	if _, _, ok, err := s.RecoveredFlight(); !ok || !errors.Is(err, rec.ErrCorrupt) {
		t.Fatalf("corrupt piece: ok %v err %v", ok, err)
	}
}

// TestFailedEpochCommitKeepsFlightEvents: an epoch commit that fails at any
// of its submits does not move the sequence number WAL tails start from, so
// the next frame still carries the events recorded before the failed commit
// and recovery returns the ring the recorder held at that frame.
func TestFailedEpochCommitKeepsFlightEvents(t *testing.T) {
	for k := 0; ; k++ {
		clk := clock.NewVirtual()
		fd := &failNextSubmit{BlockDev: device.New(clk, clock.DefaultCosts(), 64<<20)}
		s, err := Format(fd, clk, clock.DefaultCosts())
		if err != nil {
			t.Fatal(err)
		}
		fl := flight.NewRecorder(0)
		s.SetFlight(fl)
		oid, pgd := s.NewOID(), s.NewOID()
		s.Ensure(pgd, 9)
		if err := s.PutRecord(oid, 1, []byte("one")); err != nil {
			t.Fatal(err)
		}
		if _, err := s.WALCommit(); err != nil {
			t.Fatal(err)
		}
		fl.Record(int64(clk.Now()), flight.EvRestore, 7, 7, 7, "before the failed commit")
		if err := s.WritePage(pgd, 0, walPage(1)); err != nil {
			t.Fatal(err)
		}
		fd.armed, fd.skip = true, k
		if _, err := s.Checkpoint(); err == nil {
			if k < 2 {
				t.Fatalf("a checkpoint of %d submits cannot be failed", k)
			}
			return // k is past the commit's last submit: every one has failed once
		}
		fd.armed = false
		if _, err := s.WALCommit(); err != nil {
			t.Fatalf("submit %d: WAL commit after the failed checkpoint: %v", k, err)
		}
		want, wantSeq := fl.Events(), fl.Seq() // the device records nothing itself
		s2, err := Recover(fd, clk, clock.DefaultCosts(), nil)
		if err != nil {
			t.Fatal(err)
		}
		evs, seq, ok, err := s2.RecoveredFlight()
		if err != nil || !ok || seq != wantSeq || !slices.Equal(evs, want) {
			t.Fatalf("submit %d failed: recovered %d events seq %d (ok %v err %v), the recorder held %d at seq %d:\n%s",
				k, len(evs), seq, ok, err, len(want), wantSeq, flight.Format(evs))
		}
	}
}

// TestIdenticalPutIsNotAWrite: putting the bytes an object already holds
// leaves it clean and logs nothing; a changed utype, changed bytes or a paged
// record still write.
func TestIdenticalPutIsNotAWrite(t *testing.T) {
	s, _, _ := newStore(t)
	oid, big := s.NewOID(), s.NewOID()
	small := []byte("posix object state")
	paged := bytes.Repeat([]byte{3}, InlineMax+1)
	for _, err := range []error{s.PutRecord(oid, 7, small), s.PutRecord(big, 7, paged)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	state := func() (dirty bool, addr int64, ops int) {
		return s.get(oid).dirty, s.get(oid).recordAddr, len(s.walPending)
	}
	_, addr0, _ := state()

	if err := s.PutRecord(oid, 7, small); err != nil {
		t.Fatal(err)
	}
	if dirty, _, ops := state(); dirty || ops != 0 {
		t.Fatalf("identical put: dirty=%v, %d WAL ops pending", dirty, ops)
	}
	st, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, addr, _ := state(); addr != addr0 || st.DirtyObjects != 0 {
		t.Fatalf("identical put rewrote the record (%#x -> %#x, %d dirty objects)", addr0, addr, st.DirtyObjects)
	}

	if err := s.PutRecord(oid, 8, small); err != nil { // same bytes, new type
		t.Fatal(err)
	}
	if dirty, _, ops := state(); !dirty || ops != 1 {
		t.Fatalf("put with a changed utype: dirty=%v, %d WAL ops pending", dirty, ops)
	}
	if err := s.PutRecord(oid, 8, append([]byte("x"), small...)); err != nil {
		t.Fatal(err)
	}
	if _, _, ops := state(); ops != 2 {
		t.Fatalf("put with changed bytes logged %d ops in all, want 2", ops)
	}
	before := s.Stats().DataBytes
	if err := s.PutRecord(big, 7, paged); err != nil {
		t.Fatal(err)
	}
	if s.Stats().DataBytes == before {
		t.Fatal("a paged record was treated as an identical put")
	}
}

// TestIndexLenIsArithmetic: the index's encoder is sized from list lengths;
// the formula must equal the encoder over any free map and table.
func TestIndexLenIsArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		st := &indexState{epoch: Epoch(rng.Uint64()), nextOID: OID(rng.Uint64())}
		st.free = make([]blockRun, rng.Intn(500))
		st.deadlist = make([]deadBlock, rng.Intn(300))
		st.retained = make([]ckptInfo, rng.Intn(70))
		st.objects = make([]indexEntry, rng.Intn(2000))
		st.flight = make([]byte, rng.Intn(12<<10))
		got := indexLen(len(st.free), len(st.deadlist), len(st.retained), len(st.objects), len(st.flight))
		if want := int64(len(encodeIndex(st).Seal())); got != want {
			t.Fatalf("indexLen = %d, encoded %d (%d free, %d dead, %d retained, %d objects)",
				got, want, len(st.free), len(st.deadlist), len(st.retained), len(st.objects))
		}
	}
}

// recoverWholeRegion is Recover with the WAL scan it had before the window
// reader: the region read as one buffer, the same stop rules, the same
// replay. The windowed scan must recover exactly what this one does.
func recoverWholeRegion(t *testing.T, dev BlockDev, clk clock.Clock) *Store {
	t.Helper()
	s, sb, err := unopenedStore(dev, clk, clock.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.loadIndex(sb.indexAddr, sb.indexLen, trace.Span{}); err != nil {
		t.Fatal(err)
	}
	s.epoch = sb.epoch
	region := make([]byte, s.walBlocks*BlockSize)
	if _, err := dev.ReadAt(region, s.walBase); err != nil {
		t.Fatal(err)
	}
	var (
		frames   []*walFrame
		off, end int64
	)
	for off < int64(len(region)) {
		fr, padded := walFrameAt(region[off:])
		if fr == nil || fr.base > s.epoch {
			break
		}
		if fr.base == s.epoch {
			if fr.seq != uint64(len(frames))+1 {
				break
			}
			frames = append(frames, fr)
			end = off + padded
		} else if len(frames) > 0 {
			break
		}
		off += padded
	}
	if err := s.walReplay(frames, end); err != nil {
		t.Fatal(err)
	}
	return s
}

// readSpy notes every queued read.
type readSpy struct {
	BlockDev
	reads []extent
}

func (d *readSpy) SubmitRead(p []byte, off int64) (time.Duration, error) {
	d.reads = append(d.reads, extent{off, int64(len(p))})
	return d.BlockDev.SubmitRead(p, off)
}

// TestWALRecoverScansInWindows: recovery reads the WAL region in read-ahead
// windows and stops where the chain does. Whatever the chain's shape against
// the window grid, it recovers the (epoch, walSeq), head and object table of
// the whole-region reference scan, for a fraction of the region's bytes.
func TestWALRecoverScansInWindows(t *testing.T) {
	const win = journalReadAhead
	// commit appends one frame of about n bytes: a single inline put.
	commit := func(t *testing.T, s *Store, oid OID, n int, tag byte) WALCommitStats {
		t.Helper()
		data := bytes.Repeat([]byte{tag}, n)
		if err := s.PutRecord(oid, 7, data); err != nil {
			t.Fatal(err)
		}
		st, err := s.WALCommit()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// check recovers dev both ways and returns the windowed store and the
	// bytes its scan read.
	check := func(t *testing.T, dev *device.Stripe, clk *clock.Virtual, wantSeq uint64, wantHead int64) (*Store, int64) {
		t.Helper()
		ref := recoverWholeRegion(t, dev, clk)
		tr := trace.New(clk)
		r0 := dev.Stats().BytesRead
		got, err := Recover(dev, clk, clock.DefaultCosts(), tr)
		if err != nil {
			t.Fatal(err)
		}
		read := dev.Stats().BytesRead - r0
		if got.WALSeq() != wantSeq || got.WALHead() != wantHead {
			t.Fatalf("recovered (seq %d, head %d), want (%d, %d)", got.WALSeq(), got.WALHead(), wantSeq, wantHead)
		}
		if a, b := stateDump(got), stateDump(ref); a != b {
			t.Fatalf("windowed recovery differs from the whole-region reference:\n%s\n--- reference ---\n%s", a, b)
		}
		scanned := tr.CounterValue("objstore.wal_recover.bytes")
		var spanBytes int64 = -1
		for _, e := range tr.Events() {
			if e.Kind == trace.KindSpan && e.Name == "wal" {
				for _, a := range e.Args {
					if a.Key == "bytes" {
						spanBytes = a.Value().(int64)
					}
				}
			}
		}
		if scanned != spanBytes || scanned <= 0 || scanned > read {
			t.Fatalf("objstore.wal_recover.bytes %d, wal span bytes %d, device read %d bytes in all", scanned, spanBytes, read)
		}
		return got, scanned
	}

	t.Run("empty region costs one window", func(t *testing.T) {
		s, dev, clk := newStore(t)
		if err := s.PutRecord(s.NewOID(), 7, []byte("in the index, not the log")); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		got, scanned := check(t, dev, clk, 0, 0)
		if scanned != win {
			t.Fatalf("scan of an empty region read %d bytes, want one %d-byte window", scanned, win)
		}
		// The device agrees: scanning again (an empty chain replays nothing)
		// moves exactly one window off the media.
		r0 := dev.Stats().BytesRead
		if n, err := got.walRecover(); err != nil || n != win || dev.Stats().BytesRead-r0 != win {
			t.Fatalf("second scan: %d bytes by its own count, %d by the device's, err %v", n, dev.Stats().BytesRead-r0, err)
		}
	})

	t.Run("chain across a window boundary", func(t *testing.T) {
		s, dev, clk := newStore(t)
		oid := s.NewOID()
		for i := 1; i <= 5; i++ {
			commit(t, s, oid, 30_000, byte(i))
		}
		if s.WALHead() <= 2*win {
			t.Fatalf("setup: head %d does not cross two windows", s.WALHead())
		}
		if _, scanned := check(t, dev, clk, 5, s.WALHead()); scanned > s.WALHead()+2*win {
			t.Fatalf("scan read %d bytes for a %d-byte chain", scanned, s.WALHead())
		}
	})

	t.Run("frame larger than a window", func(t *testing.T) {
		s, dev, clk := newStore(t)
		a, b, c := s.NewOID(), s.NewOID(), s.NewOID()
		commit(t, s, a, 100, 1)
		for _, oid := range []OID{a, b, c} {
			if err := s.PutRecord(oid, 7, bytes.Repeat([]byte{9}, 40_000)); err != nil {
				t.Fatal(err)
			}
		}
		if _, n := walCommit(t, s); n <= win {
			t.Fatalf("setup: frame of %d bytes, want more than a window", n)
		}
		commit(t, s, a, 100, 2)
		check(t, dev, clk, 3, s.WALHead())
	})

	t.Run("older generation longer than a window, then the live chain", func(t *testing.T) {
		s, dev, clk := newStore(t)
		oid := s.NewOID()
		for i := 1; i <= 3; i++ {
			commit(t, s, oid, 30_000, byte(i))
		}
		old := s.WALHead()
		// A fold whose superblock has not settled defers the head reset: the
		// new generation's frames land behind the old one's.
		if _, err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		commit(t, s, oid, 200, 0xA)
		commit(t, s, oid, 200, 0xB)
		if old <= win || s.WALHead() <= old {
			t.Fatalf("setup: old generation %d bytes, head %d", old, s.WALHead())
		}
		check(t, dev, clk, 2, s.WALHead())
	})

	t.Run("torn at a window edge", func(t *testing.T) {
		s, dev, clk := newStore(t)
		oid := s.NewOID()
		// A put of win/2-63 bytes makes a frame of exactly half a window, so
		// the second frame ends, and the third begins, on the window's edge.
		var ends []int64
		for i := 1; i <= 4; i++ {
			commit(t, s, oid, win/2-63, byte(i))
			ends = append(ends, s.WALHead())
		}
		if ends[1] != win {
			t.Fatalf("setup: frames end at %v, want the second to end at %d", ends, win)
		}
		walBase, walSize := s.WALRegion()
		pristine := make([]byte, walSize)
		if _, err := dev.ReadAt(pristine, walBase); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			cut     int64 // everything from here on never landed
			wantSeq uint64
		}{
			{win - walSector, 1}, // the frame before the edge lost its last sector
			{win, 2},             // the frame at the edge never landed
			{win + walSector, 2}, // it landed one sector of itself
			{2*win - walSector, 3},
		} {
			region := append([]byte(nil), pristine...)
			clear(region[tc.cut:])
			dev.PokeAt(region, walBase)
			check(t, dev, clk, tc.wantSeq, ends[tc.wantSeq-1])
		}
	})

	t.Run("chain flush with the region end", func(t *testing.T) {
		s, dev, clk := newStore(t)
		oid := s.NewOID()
		_, size := s.WALRegion()
		n := uint64(0)
		for size-s.WALHead() > InlineMax {
			commit(t, s, oid, 60_000, byte(n))
			n++
		}
		// One put of k bytes makes a frame of k+63: fill to the last byte.
		last := size - s.WALHead()
		commit(t, s, oid, int(last)-63, 0xFF)
		n++
		if s.WALHead() != size {
			t.Fatalf("setup: head %d after a closing frame meant to be %d bytes, region %d", s.WALHead(), last, size)
		}
		check(t, dev, clk, n, size)
		// No window reaches past the region into the data blocks behind it.
		spy := &readSpy{BlockDev: dev}
		if _, err := Recover(spy, clk, clock.DefaultCosts(), nil); err != nil {
			t.Fatal(err)
		}
		base, inRegion := s.walBase, 0
		for _, r := range spy.reads {
			if r.addr >= base && r.addr < base+size {
				inRegion++
				if r.addr+r.n > base+size {
					t.Fatalf("read of [%#x,+%d) runs past the region end %#x", r.addr, r.n, base+size)
				}
			}
		}
		if inRegion == 0 {
			t.Fatal("the spy saw no read inside the region")
		}
	})
}

// The refusals of apply are replay's: the live mutators check their arguments
// before they build an op, so an op that reaches apply and names an impossible
// mutation came from a frame. Each is ErrCorrupt with the text below and
// changes nothing.
func TestApplyRefusesImpossibleOps(t *testing.T) {
	s, _, _ := newStore(t)
	jrn, inl := s.NewOID(), s.NewOID()
	if _, err := s.CreateJournal(jrn, 3, BlockSize); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRecord(inl, 1, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := s.Truncate(inl, 6); err != nil { // an inline object grows by zeros
		t.Fatal(err)
	}
	if got, _ := s.GetRecord(inl); !bytes.Equal(got, []byte("abc\x00\x00\x00")) {
		t.Fatalf("inline record after growing: %q", got)
	}
	before := stateDump(s)
	for _, c := range []struct {
		op   walOp
		want string
	}{
		{walOp{kind: walOpPut, oid: jrn, utype: 3}, "objstore: corrupt metadata: put on journal 1"},
		{walOp{kind: walOpPage, oid: jrn, utype: 3, addr: 1 << 30}, "objstore: corrupt metadata: page on journal 1"},
		{walOp{kind: walOpSize, oid: jrn}, "objstore: corrupt metadata: size on journal 1"},
		{walOp{kind: walOpSize, oid: 77}, "objstore: corrupt metadata: size for unknown object 77"},
		{walOp{kind: walOpDelete, oid: 77}, "objstore: corrupt metadata: delete of unknown object 77"},
		{walOp{kind: 9, oid: inl}, "objstore: corrupt metadata: unknown wal op 9"},
	} {
		err := s.apply(&c.op)
		if err == nil || err.Error() != c.want || !errors.Is(err, ErrCorrupt) {
			t.Errorf("op %d on %d: err = %v, want %q", c.op.kind, c.op.oid, err, c.want)
		}
	}
	// Replay also refuses a frame that names blocks the free map does not
	// hold: one the journal owns, or a run no device has, and changes nothing.
	ext := s.get(jrn).journal.extentAddr
	s.replaying = true
	for _, c := range []struct {
		op   walOp
		want string
	}{
		{walOp{kind: walOpPage, oid: 77, utype: 2, addr: ext}, fmt.Sprintf("objstore: corrupt metadata: frame names blocks [%#x,+1) that are not free", ext)},
		{walOp{kind: walOpJournal, oid: inl, utype: 1, addr: s.dataStart(), size: 1 << 60}, fmt.Sprintf("objstore: corrupt metadata: frame names blocks [%#x,+%d) that are not free", s.dataStart(), int64(1<<60))},
	} {
		if err := s.apply(&c.op); err == nil || err.Error() != c.want || !errors.Is(err, ErrCorrupt) {
			t.Errorf("replayed op %d on %d: err = %v, want %q", c.op.kind, c.op.oid, err, c.want)
		}
	}
	s.replaying = false
	if after := stateDump(s); after != before {
		t.Errorf("refused ops changed the store\n--- before\n%s--- after\n%s", before, after)
	}
}

// TestWALReplayOfTruncateKeepsTailPage: an unaligned truncate in an interval
// with no frame yet frees the tail pages at once, and the zeroed partial page
// is rewritten into one of them. Replay must free before it claims, as the
// live store did: when the log carried the page's op ahead of the size op,
// replay published the page onto a block a tail slot still held and then
// released it under the page, and the commit after recovery handed it out.
func TestWALReplayOfTruncateKeepsTailPage(t *testing.T) {
	s, dev, clk := newStore(t)
	oid := s.NewOID()
	s.Ensure(oid, 9)
	for pg := int64(0); pg < 4; pg++ {
		if err := s.WritePage(oid, pg, walPage(byte(pg+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Truncate(oid, BlockSize+BlockSize/2); err != nil {
		t.Fatal(err)
	}
	st, err := s.WALCommit()
	if err != nil {
		t.Fatal(err)
	}
	s.WaitDurableAt(st.DurableAt)
	s2 := reopen(t, dev, clk)
	if _, err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s2.WaitDurable(s2.Epoch()); err != nil {
		t.Fatal(err)
	}
	s2.FreeBlocks() // promotes what the commit released
	if rep := s2.Fsck(); !rep.OK() {
		t.Fatalf("fsck after replaying a truncate: %v", rep.Problems)
	}
	want := append(walPage(2)[:BlockSize/2:BlockSize/2], make([]byte, BlockSize/2)...)
	got := make([]byte, BlockSize)
	if _, err := s2.ReadPage(oid, 1, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("tail page after replay: err %v, content equal %v", err, bytes.Equal(got, want))
	}
}
