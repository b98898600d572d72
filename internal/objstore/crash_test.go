package objstore_test

// Crash tests drive the store through the faultdev wrapper: crashes happen
// at the device (a power cut dropping the superblock write) instead of via
// an in-store hook, so the commit protocol is exercised exactly as a real
// power loss would. External test package: faultdev imports objstore for
// its harness, so in-package tests cannot import it back.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"aurora/internal/clock"
	"aurora/internal/device"
	"aurora/internal/faultdev"
	"aurora/internal/objstore"
)

// newFaultStore builds a store on a stripe wrapped in a disarmed faultdev.
func newFaultStore(t testing.TB, perDev int64) (*objstore.Store, *faultdev.Dev, *clock.Virtual, *clock.Costs) {
	t.Helper()
	clk := clock.NewVirtual()
	costs := clock.DefaultCosts()
	stripe := device.NewStripe(clk, costs, 4, 64<<10, perDev)
	fd := faultdev.New(stripe, clk, faultdev.Plan{CutAtSubmit: -1})
	s, err := objstore.Format(fd, clk, costs)
	if err != nil {
		t.Fatal(err)
	}
	return s, fd, clk, costs
}

// superblockCut arms a crash on the next write touching the superblock
// region: the checkpoint writes all its data and metadata, then dies on
// the commit point — the old "injected crash before commit", expressed as
// a device fault.
func superblockCut(fd *faultdev.Dev) {
	fd.Arm(faultdev.Plan{CutAtSubmit: -1, CutOffLo: 0, CutOffHi: 2 * objstore.BlockSize})
}

// Crash-injection property: under any interleaving of writes, checkpoints,
// torn checkpoints (power cut on the superblock write), and recoveries,
// the store always reads back exactly the state of the last *complete*
// checkpoint plus any post-checkpoint writes that were reapplied.
func TestTornCheckpointProperty(t *testing.T) {
	type step struct {
		Write uint8 // page index selector
		Val   byte
		Op    uint8 // 0 write, 1 checkpoint, 2 torn checkpoint + recover, 3 recover
	}
	f := func(steps []step) bool {
		clk := clock.NewVirtual()
		costs := clock.DefaultCosts()
		dev := device.NewStripe(clk, costs, 4, 64<<10, 256<<20)
		fd := faultdev.New(dev, clk, faultdev.Plan{CutAtSubmit: -1})
		s, err := objstore.Format(fd, clk, costs)
		if err != nil {
			return false
		}
		oid := s.NewOID()
		s.Ensure(oid, 2)
		if _, err := s.Checkpoint(); err != nil {
			return false
		}
		committed := map[uint8]byte{}
		live := map[uint8]byte{}
		page := make([]byte, objstore.BlockSize)
		recover := func() bool {
			fd.Reopen()
			s2, err := objstore.Recover(fd, clk, costs, nil)
			if err != nil {
				return false
			}
			s = s2
			live = map[uint8]byte{}
			for k, v := range committed {
				live[k] = v
			}
			return true
		}
		for _, st := range steps {
			switch st.Op % 4 {
			case 0:
				pg := int64(st.Write % 32)
				page[0] = st.Val
				if err := s.WritePage(oid, pg, page); err != nil {
					return false
				}
				live[st.Write%32] = st.Val
			case 1:
				if _, err := s.Checkpoint(); err != nil {
					return false
				}
				committed = map[uint8]byte{}
				for k, v := range live {
					committed[k] = v
				}
			case 2:
				superblockCut(fd)
				if _, err := s.Checkpoint(); err == nil {
					return false // the power cut must surface
				}
				if !recover() {
					return false
				}
			case 3:
				if !recover() {
					return false
				}
			}
		}
		for pg, want := range live {
			found, err := s.ReadPage(oid, int64(pg), page)
			if err != nil || !found || page[0] != want {
				return false
			}
		}
		rep := s.Fsck()
		return rep.OK()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCrashBeforeCommitKeepsPreviousCheckpoint(t *testing.T) {
	s, fd, clk, costs := newFaultStore(t, 128<<20)
	oid := s.NewOID()
	s.PutRecord(oid, 1, []byte("v1"))
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.PutRecord(oid, 1, []byte("v2"))
	superblockCut(fd)
	if _, err := s.Checkpoint(); err == nil {
		t.Fatal("power cut on superblock did not surface")
	}
	fd.Reopen()
	s2, err := objstore.Recover(fd, clk, costs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := s2.GetRecord(oid); string(got) != "v1" {
		t.Fatalf("after torn checkpoint got %q, want v1", got)
	}
	if s2.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", s2.Epoch())
	}
}

// A store dies mid-checkpoint, and Recover brings up a fresh store over the
// same device.
func TestReopenAfterCrash(t *testing.T) {
	s, fd, clk, costs := newFaultStore(t, 128<<20)
	oid := s.NewOID()
	s.PutRecord(oid, 1, []byte("stable"))
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.PutRecord(oid, 1, []byte("doomed"))
	superblockCut(fd)
	if _, err := s.Checkpoint(); err == nil {
		t.Fatal("power cut did not surface")
	}
	fd.Reopen()
	s2, err := objstore.Recover(fd, clk, costs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := s2.GetRecord(oid); string(got) != "stable" {
		t.Fatalf("recovered %q, want stable", got)
	}
	if rep := s2.Fsck(); !rep.OK() {
		t.Fatalf("fsck after reopen: %v", rep.Problems)
	}
}

// Armed bit-rot must land on the batched recovery reads as it did on the
// serial ones: rot inside any one object record fails the whole open with
// ErrCorrupt, and clearing it recovers the image.
func TestRecoverSeesArmedRot(t *testing.T) {
	s, fd, clk, costs := newFaultStore(t, 128<<20)
	marker := []byte("rot-target-record-0xC3A55A3C")
	for i := 0; i < 20; i++ {
		payload := []byte(fmt.Sprintf("object %d", i))
		if i == 13 {
			payload = marker
		}
		if err := s.PutRecord(s.NewOID(), 1, payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitDurable(s.Epoch()); err != nil {
		t.Fatal(err)
	}
	off := int64(-1)
	blk := make([]byte, objstore.BlockSize)
	for a := int64(0); a < 64<<20 && off < 0; a += objstore.BlockSize {
		fd.PeekAt(blk, a)
		if i := bytes.Index(blk, marker); i >= 0 {
			off = a + int64(i)
		}
	}
	if off < 0 {
		t.Fatal("marker record not found on the device")
	}
	fd.Arm(faultdev.Plan{CutAtSubmit: -1, RotOffsets: []int64{off + 3}})
	if s2, err := objstore.Recover(fd, clk, costs, nil); !errors.Is(err, objstore.ErrCorrupt) || s2 != nil {
		t.Fatalf("Recover over a rotted record = %v, %v; want nil, ErrCorrupt", s2, err)
	}
	fd.Arm(faultdev.Plan{CutAtSubmit: -1})
	s2, err := objstore.Recover(fd, clk, costs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s2.Objects()); got != 20 {
		t.Fatalf("recovered %d objects, want 20", got)
	}
}

// TestWALRecoverSeesArmedRot: the WAL scan reads the chain window by window,
// and armed rot lands on those reads as it did on the one whole-region read —
// a rotted frame ends the chain before it, in whichever window it lies, while
// rot past the chain, in bytes the scan reads but never trusts, changes
// nothing.
func TestWALRecoverSeesArmedRot(t *testing.T) {
	s, fd, clk, costs := newFaultStore(t, 128<<20)
	oid := s.NewOID()
	var ends []int64
	var last objstore.WALCommitStats
	for i := 1; i <= 4; i++ { // 40 KB frames: the second straddles the first window's edge
		if err := s.PutRecord(oid, 7, bytes.Repeat([]byte{byte(i)}, 40_000)); err != nil {
			t.Fatal(err)
		}
		var err error
		if last, err = s.WALCommit(); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, s.WALHead())
	}
	s.WaitDurableAt(last.DurableAt)
	base, _ := s.WALRegion()
	for _, tc := range []struct {
		rot     int64 // region offset of the flipped bit
		wantSeq uint64
	}{
		{100, 0},
		{ends[0] + 30_000, 1}, // past the first window's edge, inside frame 2
		{ends[2] + 8, 3},      // frame 4's length field
		{ends[3] + 8, 4},      // the zeroes behind the chain
	} {
		fd.Arm(faultdev.Plan{CutAtSubmit: -1, RotOffsets: []int64{base + tc.rot}})
		s2, err := objstore.Recover(fd, clk, costs, nil)
		if err != nil {
			t.Fatalf("rot at %d: %v", tc.rot, err)
		}
		if got := s2.WALSeq(); got != tc.wantSeq {
			t.Fatalf("rot at %d: recovered %d frames, want %d", tc.rot, got, tc.wantSeq)
		}
	}
	fd.Arm(faultdev.Plan{CutAtSubmit: -1})
}

// TestEveryPageReadChecksItsSum: a rotted data block fails every read that
// meets it — one page, a byte range, the bulk stream, a page list, a view's
// page — with ErrPageSum naming the object and the page, while the pages
// around it still read.
func TestEveryPageReadChecksItsSum(t *testing.T) {
	s, fd, _, _ := newFaultStore(t, 128<<20)
	oid := s.NewOID()
	s.Ensure(oid, 2)
	marker := []byte("rot-target-page-0x5AC3A53C")
	for pg := int64(0); pg < 3; pg++ {
		page := bytes.Repeat([]byte{byte(pg + 1)}, objstore.BlockSize)
		if pg == 1 {
			copy(page, marker)
		}
		if err := s.WritePage(oid, pg, page); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitDurable(s.Epoch()); err != nil {
		t.Fatal(err)
	}
	off := int64(-1)
	blk := make([]byte, objstore.BlockSize)
	for a := int64(0); a < 64<<20 && off < 0; a += objstore.BlockSize {
		fd.PeekAt(blk, a)
		if i := bytes.Index(blk, marker); i >= 0 {
			off = a + int64(i)
		}
	}
	if off < 0 {
		t.Fatal("marker page not found on the device")
	}
	v, err := s.RestoreView(s.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	fd.Arm(faultdev.Plan{CutAtSubmit: -1, RotOffsets: []int64{off + 9}})
	defer fd.Arm(faultdev.Plan{CutAtSubmit: -1})

	page := make([]byte, objstore.BlockSize)
	none := func(int64, []byte) error { return nil }
	want := fmt.Sprintf("oid %d page 1", oid)
	for name, read := range map[string]func() error{
		"ReadPage":      func() error { _, err := s.ReadPage(oid, 1, page); return err },
		"ReadAt":        func() error { _, err := s.ReadAt(oid, objstore.BlockSize-4, make([]byte, 8)); return err },
		"EachPageBulk":  func() error { _, err := s.EachPageBulk(oid, none); return err },
		"EachPageOf":    func() error { return s.EachPageOf(oid, []int64{0, 1}, none) },
		"View.ReadPage": func() error { _, err := v.ReadPage(oid, 1, page); return err },
	} {
		if err := read(); !errors.Is(err, objstore.ErrPageSum) || err.Error() != objstore.ErrPageSum.Error()+": "+want {
			t.Errorf("%s over a rotted page = %v, want %v: %s", name, err, objstore.ErrPageSum, want)
		}
	}
	for _, pg := range []int64{0, 2} {
		if found, err := s.ReadPage(oid, pg, page); err != nil || !found || page[0] != byte(pg+1) {
			t.Fatalf("clean page %d beside the rot: found=%v err=%v", pg, found, err)
		}
	}
}

func TestViewImmutabilityProperty(t *testing.T) {
	clk := clock.NewVirtual()
	costs := clock.DefaultCosts()
	dev := device.NewStripe(clk, costs, 4, 64<<10, 512<<20)
	s, err := objstore.Format(dev, clk, costs)
	if err != nil {
		t.Fatal(err)
	}
	oid := s.NewOID()
	s.Ensure(oid, 2)
	page := make([]byte, objstore.BlockSize)

	// Build 10 epochs, each stamping pages with the epoch number.
	type snap struct {
		epoch objstore.Epoch
		val   byte
	}
	var snaps []snap
	for e := byte(1); e <= 10; e++ {
		for pg := int64(0); pg < 8; pg++ {
			page[0] = e
			if err := s.WritePage(oid, pg, page); err != nil {
				t.Fatal(err)
			}
		}
		st, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap{st.Epoch, e})
	}
	// Every retained view still reads its own epoch's stamp.
	for _, sn := range snaps {
		v, err := s.RestoreView(sn.epoch)
		if err != nil {
			t.Fatalf("epoch %d: %v", sn.epoch, err)
		}
		for pg := int64(0); pg < 8; pg++ {
			if _, err := v.ReadPage(oid, pg, page); err != nil {
				t.Fatal(err)
			}
			if page[0] != sn.val {
				t.Fatalf("epoch %d page %d = %d, want %d", sn.epoch, pg, page[0], sn.val)
			}
		}
	}
}

func TestRecoveryAfterManyEpochs(t *testing.T) {
	clk := clock.NewVirtual()
	costs := clock.DefaultCosts()
	dev := device.NewStripe(clk, costs, 4, 64<<10, 512<<20)
	s, err := objstore.Format(dev, clk, costs)
	if err != nil {
		t.Fatal(err)
	}
	oid := s.NewOID()
	for e := 0; e < 100; e++ {
		s.PutRecord(oid, 1, []byte(fmt.Sprintf("epoch-%d", e)))
		if _, err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if e%10 == 0 {
			s.ReleaseCheckpointsBefore(s.Epoch())
		}
	}
	s2, err := objstore.Recover(dev, clk, costs, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.GetRecord(oid)
	if err != nil || string(got) != "epoch-99" {
		t.Fatalf("got %q err=%v", got, err)
	}
}
