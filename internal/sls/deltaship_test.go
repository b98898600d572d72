package sls

// The delta ship's read path: it streams exactly the bytes the per-page
// ReadPage loop did, and a base image it cannot read fails the sync instead
// of degrading to a silent full resend.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"

	"aurora/internal/faultdev"
	"aurora/internal/kern"
	"aurora/internal/objstore"
	"aurora/internal/vm"
)

// twoEpochGroup attaches p to a fresh group and commits a base epoch of 40
// pages across two mappings, then a second epoch with every third page of
// the first mapping rewritten. It returns the group, the base epoch and the
// first mapping's address.
func twoEpochGroup(t *testing.T, p *kern.Proc, o *Orchestrator) (*Group, objstore.Epoch, uint64) {
	t.Helper()
	g := o.CreateGroup("app")
	g.Options.FlushWorkers = 1
	g.Period = 0
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	va, err := p.Mmap(32*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := p.Mmap(8*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	commit := func() {
		t.Helper()
		if _, err := g.Checkpoint(CkptIncremental); err != nil {
			t.Fatal(err)
		}
		if err := g.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	for pg := uint64(0); pg < 32; pg++ {
		p.WriteMem(va+pg*vm.PageSize, bytes.Repeat([]byte{byte(pg + 1)}, 100))
	}
	for pg := uint64(0); pg < 8; pg++ {
		p.WriteMem(vb+pg*vm.PageSize, bytes.Repeat([]byte{byte(0x80 + pg)}, 100))
	}
	commit()
	base := g.lastEpoch
	for pg := uint64(0); pg < 32; pg += 3 {
		p.WriteMem(va+pg*vm.PageSize, []byte("second epoch"))
	}
	commit()
	return g, base, va
}

// TestDeltaStreamBytesPinned: the delta stream of a fixed two-epoch image is
// byte for byte the one the per-page ReadPage loop produced (the hash was
// taken from that code), and far shorter than the full stream. Stream v3
// re-pinned it: the group holds no journal, so only the head's version byte
// and the head item's CRC over it moved.
func TestDeltaStreamBytesPinned(t *testing.T) {
	w := newWorld(t)
	g, base, _ := twoEpochGroup(t, w.k.NewProc("app"), w.o)
	var delta, full bytes.Buffer
	if err := g.SendDelta(&delta, base); err != nil {
		t.Fatal(err)
	}
	if err := g.Send(&full); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(delta.Bytes())
	const want = "1f95c8fd85623a977c5a2e7b1c0a1b4cebdc6692d0f128151666101707ad5c4f"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("delta stream (%d bytes) hashes to %s, want %s", delta.Len(), got, want)
	}
	if delta.Len()*2 > full.Len() {
		t.Fatalf("delta stream is %d bytes, full stream %d", delta.Len(), full.Len())
	}
}

// TestSyncFailsOnCorruptBaseIndex rots the retained base epoch's index
// under a replicated group. The delta cannot be computed, and the sync must
// say so: falling back to a full resend (as every DiffPages error once did)
// would report success while hiding damaged history. Only a base epoch that
// has been released may fall back.
func TestSyncFailsOnCorruptBaseIndex(t *testing.T) {
	w, err := newFaultWorld(faultdev.Plan{CutAtSubmit: -1})
	if err != nil {
		t.Fatal(err)
	}
	dst := newWorld(t)
	p := w.k.NewProc("app")
	g, _, va := twoEpochGroup(t, p, w.o)
	r, err := g.ReplicateTo(dst.o)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Sync(); err != nil {
		t.Fatalf("clean sync: %v", err)
	}

	// The base the next delta diffs against is the epoch just shipped; its
	// index starts with the index magic and that epoch number.
	hdr := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(nil, 0x41524958), uint64(r.Base()))
	off, found := findOnDevice(w.fd, hdr)
	if !found {
		t.Fatalf("index of epoch %d not found on the device", r.Base())
	}
	w.fd.Arm(faultdev.Plan{CutAtSubmit: -1, RotOffsets: []int64{off + 20}})
	shipped := r.BytesTotal
	if err := r.Sync(); !errors.Is(err, objstore.ErrCorrupt) {
		t.Fatalf("sync over a rotted base index = %v, want ErrCorrupt", err)
	}
	if r.BytesTotal != shipped {
		t.Fatalf("failed sync still shipped %d bytes", r.BytesTotal-shipped)
	}

	// With the rot gone the same handle syncs again, and a released base
	// still falls back to a full resend of the pages. The base leaves through
	// the retention rule: under a bound of one a commit keeps the epoch
	// before its own, so the second commit after the sync releases it.
	w.fd.Arm(faultdev.Plan{CutAtSubmit: -1})
	if err := r.Sync(); err != nil {
		t.Fatalf("sync after the rot cleared: %v", err)
	}
	base := r.Base()
	g.RetainEpochs = 1
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteMem(va, []byte("after release")); err != nil {
		t.Fatal(err)
	}
	if err := r.Sync(); err != nil {
		t.Fatalf("sync against a released base: %v", err)
	}
	for _, ep := range w.store.RetainedCheckpoints() {
		if ep == base {
			t.Fatalf("base epoch %d survived a commit under retention 1", base)
		}
	}
	if r.LastBytes < 40*vm.PageSize {
		t.Fatalf("sync against a released base shipped %d bytes, want the full image", r.LastBytes)
	}
}
