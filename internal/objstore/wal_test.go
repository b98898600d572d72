package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"aurora/internal/clock"
	"aurora/internal/device"
	"aurora/internal/flight"
	"aurora/internal/trace"
)

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
	if err := s.WaitWALDurable(2); err != nil {
		t.Fatal(err)
	}

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
	// Old-generation sequence numbers remain coverable via the fold.
	if err := s.WaitWALDurable(2); err != nil {
		t.Fatal(err)
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
	st, err := s.WALCommit()
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 1 {
		t.Fatalf("new generation seq = %d, want 1", st.Seq)
	}
	if s.WALHead() != st.Bytes {
		t.Fatalf("head = %d after reset+append of %d bytes", s.WALHead(), st.Bytes)
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
		if _, err := dev.WriteAt(region, walBase); err != nil {
			t.Fatal(err)
		}
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
	if _, err := dev.WriteAt(pristine, walBase); err != nil {
		t.Fatal(err)
	}
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
				if _, err := dev.WriteAt(b, walBase+20); err != nil {
					t.Fatal(err)
				}
			},
			want: "wal: undecodable frame",
		},
		{
			name: "garbage-past-head",
			corrupt: func(t *testing.T, s *Store, dev *device.Stripe) {
				walBase, _ := s.WALRegion()
				junk := bytes.Repeat([]byte{0xDE, 0xAD}, 512)
				if _, err := dev.WriteAt(junk, walBase+s.WALHead()); err != nil {
					t.Fatal(err)
				}
			},
			want: "",
		},
		{
			name: "orphan-future-epoch-frame",
			corrupt: func(t *testing.T, s *Store, dev *device.Stripe) {
				walBase, _ := s.WALRegion()
				orphan := encodeWALFrame(&walFrame{base: s.Epoch() + 5, seq: 1})
				if _, err := dev.WriteAt(orphan, walBase+s.WALHead()); err != nil {
					t.Fatal(err)
				}
			},
			want: "orphaned frame",
		},
		{
			name: "torn-tail-partial-frame",
			corrupt: func(t *testing.T, s *Store, dev *device.Stripe) {
				// A prefix of a valid frame past the head: torn, not corrupt.
				walBase, _ := s.WALRegion()
				frame := encodeWALFrame(&walFrame{base: s.Epoch(), seq: 99})
				if _, err := dev.WriteAt(frame[:len(frame)-6], walBase+s.WALHead()); err != nil {
					t.Fatal(err)
				}
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
// blocks born in the interval cannot recycle into the freelist — a crash
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

// FuzzWALRecord fuzzes the frame decoder with seeds drawn from real append
// streams; the decoder must never panic and must reject any mutation that
// breaks the seal.
func FuzzWALRecord(f *testing.F) {
	// Seed from a real store's WAL ring.
	clk := clock.NewVirtual()
	dev := device.New(clk, clock.DefaultCosts(), 64<<20)
	s, err := Format(dev, clk, clock.DefaultCosts())
	if err != nil {
		f.Fatal(err)
	}
	s.SetFlight(flight.NewRecorder(8)) // every frame carries a flight-tail op
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
	jrn := s.NewOID()
	if j, err := s.CreateJournal(jrn, 3, 4*BlockSize); err == nil {
		_ = j
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
	off := int64(0)
	for off < s.WALHead() {
		fr, padded, ok := decodeWALFrame(ring[off:])
		if !ok {
			f.Fatalf("seed frame at %d undecodable", off)
		}
		if last := fr.ops[len(fr.ops)-1]; last.kind != walOpFlight {
			f.Fatalf("seed frame %d ends on op kind %d, want the flight tail", fr.seq, last.kind)
		}
		f.Add(append([]byte(nil), ring[off:off+padded]...))
		off += padded
	}
	f.Add([]byte{})
	f.Add(make([]byte, walHeaderLen+4))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, padded, ok := decodeWALFrame(data)
		if !ok {
			return
		}
		if padded > int64(len(data))+walSector {
			t.Fatalf("padded %d beyond input %d", padded, len(data))
		}
		// A decodable frame must round-trip bit-identically.
		re := encodeWALFrame(fr)
		if int64(len(re)) > padded {
			t.Fatalf("re-encode grew: %d > %d", len(re), padded)
		}
		fr2, _, ok2 := decodeWALFrame(re)
		if !ok2 {
			t.Fatal("re-encoded frame undecodable")
		}
		if fr2.base != fr.base || fr2.seq != fr.seq || len(fr2.ops) != len(fr.ops) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", fr, fr2)
		}
	})
}

// storeWithFlight formats a store on a bare device (which records nothing
// itself, so the recorder moves only when the store's commits move it) with a
// flight recorder attached.
func storeWithFlight(t *testing.T) (*Store, *device.Device, *clock.Virtual, *flight.Recorder) {
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

// TestWALFrameCarriesFlightTailOnly: a 4-page commit is a ~1 KiB frame whether
// the flight ring is empty or full — the frame carries the events recorded
// since the last persisted ring, not the ring — and the ring FlightOID holds,
// live and after replay, is the full snapshot taken at that frame.
func TestWALFrameCarriesFlightTailOnly(t *testing.T) {
	s, dev, clk, fl := storeWithFlight(t)
	oid := s.NewOID()
	s.Ensure(oid, 9)
	commit := func(round int, steady bool) {
		t.Helper()
		writes := make([]PageWrite, 4)
		for i := range writes {
			writes[i] = PageWrite{Pg: int64(i), Data: walPage(byte(round + i))}
		}
		if _, err := s.WritePages(oid, writes); err != nil {
			t.Fatal(err)
		}
		st, err := s.WALCommit()
		if err != nil {
			t.Fatal(err)
		}
		if steady && st.Bytes > 2<<10 {
			t.Fatalf("commit %d: a 4-page frame is %d bytes with %d events in the ring, want <= 2 KiB",
				round, st.Bytes, len(fl.Events()))
		}
		live, err := s.GetRecord(FlightOID)
		if err != nil || !bytes.Equal(live, fl.Snapshot()) {
			t.Fatalf("commit %d: live FlightOID differs from the full snapshot at the frame (err %v)", round, err)
		}
	}
	commit(0, true) // empty ring: the first tail is the one append event
	for i := 1; i <= 3*flight.DefaultCap; i++ {
		fl.Record(int64(clk.Now()), flight.EvFlushJob, int64(i), 0, 0, "noise between commits")
		if i%100 == 0 || i == 3*flight.DefaultCap-flight.DefaultCap/2 {
			commit(i, false) // tails shorter than the ring, and one wrapping it
		}
	}
	if n := len(fl.Events()); n != flight.DefaultCap {
		t.Fatalf("ring holds %d events, want it full", n)
	}
	commit(999, false)
	commit(1000, true) // full ring, one new event
	want := fl.Snapshot()

	s2, err := Recover(dev, clk, clock.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.GetRecord(FlightOID)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("recovered ring differs from the full snapshot at the last frame (err %v)", err)
	}
	evs, seq, ok, err := s2.RecoveredFlight()
	if err != nil || !ok || seq != fl.Seq() || len(evs) != flight.DefaultCap {
		t.Fatalf("RecoveredFlight: %d events seq %d ok %v err %v", len(evs), seq, ok, err)
	}
	// The next boot's recorder starts over: its first frame replaces the ring.
	fl2 := flight.NewRecorder(0)
	s2.SetFlight(fl2)
	if _, err := s2.WritePages(oid, []PageWrite{{Pg: 9, Data: walPage(9)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.WALCommit(); err != nil {
		t.Fatal(err)
	}
	if live, _ := s2.GetRecord(FlightOID); !bytes.Equal(live, fl2.Snapshot()) {
		t.Fatal("first frame after a reboot did not replace the previous boot's ring")
	}
}

// TestWALFailedCommitKeepsFlightTail: a commit that fails leaves neither the
// ring nor the pending deltas changed, so the retry's tail still starts where
// the persisted ring ends, and ErrWALFull's fall-through to a fold persists
// the whole ring.
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
	want := fl.Snapshot()
	s2, err := Recover(fd, clk, clock.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.GetRecord(FlightOID); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ring recovered after a failed-then-retried commit differs from the snapshot (err %v)", err)
	}
	if got, _ := s2.GetRecord(oid); string(got) != "two" {
		t.Fatalf("record after replay = %q", got)
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
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.objects[oid].dirty, s.objects[oid].recordAddr, len(s.walPending)
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

// TestIndexLenIsArithmetic: the index run is sized from list lengths; the
// formula must equal the encoder over any allocator state.
func TestIndexLenIsArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		st := &indexState{epoch: Epoch(rng.Uint64()), nextOID: OID(rng.Uint64()), nextBlk: rng.Int63()}
		st.freelist = make([]int64, rng.Intn(500))
		st.deadlist = make([]deadBlock, rng.Intn(300))
		st.retained = make([]ckptInfo, rng.Intn(70))
		st.objects = make([]indexEntry, rng.Intn(2000))
		got := indexLen(len(st.freelist), len(st.deadlist), len(st.retained), len(st.objects))
		if want := int64(len(encodeIndex(st).Seal())); got != want {
			t.Fatalf("indexLen = %d, encoded %d (%d free, %d dead, %d retained, %d objects)",
				got, want, len(st.freelist), len(st.deadlist), len(st.retained), len(st.objects))
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
		fr, padded, ok := decodeWALFrame(region[off:])
		if !ok || fr.base > s.epoch {
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.walReplayLocked(frames, end); err != nil {
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
		got, err := RecoverTraced(dev, clk, clock.DefaultCosts(), tr)
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
		st, err := s.WALCommit()
		if err != nil || st.Bytes <= win {
			t.Fatalf("setup: frame of %d bytes (err %v), want more than a window", st.Bytes, err)
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
			if _, err := dev.WriteAt(region, walBase); err != nil {
				t.Fatal(err)
			}
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
		st := commit(t, s, oid, int(size-s.WALHead())-63, 0xFF)
		n++
		if s.WALHead() != size {
			t.Fatalf("setup: head %d after a closing frame of %d bytes, region %d", s.WALHead(), st.Bytes, size)
		}
		check(t, dev, clk, n, size)
		// No window reaches past the region into the data blocks behind it.
		spy := &readSpy{BlockDev: dev}
		if _, err := Recover(spy, clk, clock.DefaultCosts()); err != nil {
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
		{walOp{kind: walOpFlight, oid: jrn}, "objstore: corrupt metadata: flight tail on journal 1"},
		{walOp{kind: walOpFlight, oid: inl, data: []byte("not a ring")}, "objstore: corrupt metadata: flight: rec: corrupt record: bad checksum"},
		{walOp{kind: 9, oid: inl}, "objstore: corrupt metadata: unknown wal op 9"},
	} {
		s.mu.Lock()
		err := s.apply(&c.op)
		s.mu.Unlock()
		if err == nil || err.Error() != c.want || !errors.Is(err, ErrCorrupt) {
			t.Errorf("op %d on %d: err = %v, want %q", c.op.kind, c.op.oid, err, c.want)
		}
	}
	if after := stateDump(s); after != before {
		t.Errorf("refused ops changed the store\n--- before\n%s--- after\n%s", before, after)
	}
}
