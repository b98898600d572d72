package sls

// Edge cases of the delta checkpoint stream: objects deleted between
// epochs, journals filled to exact capacity, zero-length page runs, deltas
// without their base epoch, and corrupt frame length headers.

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"aurora/internal/objstore"
	"aurora/internal/rec"
	"aurora/internal/vm"
)

// sendTo streams src group state (full or delta) into dst directly.
func sendTo(t *testing.T, g *Group, dst *Orchestrator, since objstore.Epoch) {
	t.Helper()
	var buf bytes.Buffer
	var err error
	if since == 0 {
		err = g.Send(&buf)
	} else {
		err = g.send(&buf, since)
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Recv(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

func oidSet(oids []objstore.OID) map[objstore.OID]bool {
	m := make(map[objstore.OID]bool, len(oids))
	for _, o := range oids {
		m[o] = true
	}
	return m
}

// TestDeltaObjectDeletedBetweenEpochs: a memory region unmapped between two
// shipped epochs must disappear from the standby store, and failover must
// restore the application without it.
func TestDeltaObjectDeletedBetweenEpochs(t *testing.T) {
	src, dst := newWorld(t), newWorld(t)
	p := src.k.NewProc("app")
	g := src.o.CreateGroup("app")
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	vaKeep, _ := p.Mmap(4*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	vaDoomed, _ := p.Mmap(4*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	p.WriteMem(vaKeep, []byte("keep"))
	p.WriteMem(vaDoomed, []byte("doomed"))
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
	base := g.lastEpoch
	sendTo(t, g, dst.o, 0)
	beforeDst := oidSet(dst.store.Objects())

	// Delete the region on the source, ship the delta.
	if err := p.Munmap(vaDoomed); err != nil {
		t.Fatal(err)
	}
	p.WriteMem(vaKeep, []byte("kept!"))
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
	sendTo(t, g, dst.o, base)
	afterDst := oidSet(dst.store.Objects())

	removed := 0
	for oid := range beforeDst {
		if !afterDst[oid] {
			removed++
			if dst.store.Exists(oid) {
				t.Fatalf("stale OID %d still exists on the standby", oid)
			}
		}
	}
	if removed == 0 {
		t.Fatal("deleting an object between epochs removed nothing from the standby")
	}
	for oid := range afterDst {
		if !beforeDst[oid] {
			t.Fatalf("delta grew the standby object set unexpectedly (OID %d)", oid)
		}
	}

	g2, _, err := dst.o.RestoreGroup("app", dst.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	rp := g2.Procs()[0]
	got := make([]byte, 5)
	if err := rp.ReadMem(vaKeep, got); err != nil || string(got) != "kept!" {
		t.Fatalf("surviving region = %q, err %v", got, err)
	}
	if err := rp.ReadMem(vaDoomed, got); err == nil {
		t.Fatal("unmapped region still readable on the standby")
	}
}

// TestDeltaJournalAtExactCapacity ships a journal whose last append fills
// the extent to the final byte; the standby replay must land exactly at
// capacity and reject further appends just like the source.
func TestDeltaJournalAtExactCapacity(t *testing.T) {
	src, dst := newWorld(t), newWorld(t)
	p := src.k.NewProc("app")
	g := src.o.CreateGroup("app")
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	j, err := g.Journal("wal", objstore.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
	base := g.lastEpoch
	sendTo(t, g, dst.o, 0)

	// Fill to the exact byte: frame overhead is Capacity() - payload room.
	half := make([]byte, 100)
	for i := range half {
		half[i] = 0x5a
	}
	if _, err := j.Append(half); err != nil {
		t.Fatal(err)
	}
	// Size the final payload so the frame lands exactly on the last byte of
	// the extent: remaining space minus one frame header.
	overhead := j.Used() - int64(len(half)) // one frame's header
	last := make([]byte, j.Capacity()-j.Used()-overhead)
	for i := range last {
		last[i] = 0xa5
	}
	if _, err := j.Append(last); err != nil {
		t.Fatalf("append filling journal to exact capacity: %v", err)
	}
	if _, err := j.Append([]byte{1}); !errors.Is(err, objstore.ErrJournalFull) {
		t.Fatalf("append past capacity: err = %v, want ErrJournalFull", err)
	}
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
	sendTo(t, g, dst.o, base)

	g2, _, err := dst.o.RestoreGroup("app", dst.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := g2.OpenJournal("wal")
	if err != nil {
		t.Fatal(err)
	}
	ents, err := j2.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 || !bytes.Equal(ents[1].Payload, last) {
		t.Fatalf("standby journal has %d entries", len(ents))
	}
	// The replayed journal must also sit at exact capacity.
	if _, err := j2.Append([]byte{1}); !errors.Is(err, objstore.ErrJournalFull) {
		t.Fatalf("standby journal append past capacity: err = %v, want ErrJournalFull", err)
	}
}

// TestDeltaZeroLengthPageRuns covers page runs with no pages: an mmap'd
// region never written (zero pages in the full stream) and a delta round
// where no page changed (zero pages in the delta).
func TestDeltaZeroLengthPageRuns(t *testing.T) {
	src, dst := newWorld(t), newWorld(t)
	p := src.k.NewProc("app")
	g := src.o.CreateGroup("app")
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	vaTouched, _ := p.Mmap(4*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	vaUntouched, _ := p.Mmap(4*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	p.WriteMem(vaTouched, []byte("written"))
	j, err := g.Journal("wal", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
	base := g.lastEpoch
	sendTo(t, g, dst.o, 0) // untouched region: zero-length run in the full stream

	// Delta with no page writes at all — only a journal append.
	if _, err := j.Append([]byte("only journal traffic")); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
	sendTo(t, g, dst.o, base)

	g2, _, err := dst.o.RestoreGroup("app", dst.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	rp := g2.Procs()[0]
	got := make([]byte, 7)
	if err := rp.ReadMem(vaTouched, got); err != nil || string(got) != "written" {
		t.Fatalf("touched region = %q, err %v", got, err)
	}
	if err := rp.ReadMem(vaUntouched, got); err != nil {
		t.Fatalf("untouched region unreadable after zero-length run: %v", err)
	}
	j2, err := g2.OpenJournal("wal")
	if err != nil {
		t.Fatal(err)
	}
	ents, err := j2.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || string(ents[0].Payload) != "only journal traffic" {
		t.Fatalf("standby journal = %v", ents)
	}
}

// TestDeltaWithoutBaseErrors: a delta stream arriving at a standby that
// never received the base image must be rejected before any store
// mutation — error, not corruption.
func TestDeltaWithoutBaseErrors(t *testing.T) {
	src, dst := newWorld(t), newWorld(t)
	p := src.k.NewProc("app")
	g := src.o.CreateGroup("app")
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	va, _ := p.Mmap(4*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	p.WriteMem(va, []byte("v1"))
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
	base := g.lastEpoch
	p.WriteMem(va, []byte("v2"))
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}

	objsBefore := len(dst.store.Objects())
	var delta bytes.Buffer
	if err := g.send(&delta, base); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.o.Recv(bytes.NewReader(delta.Bytes())); err == nil {
		t.Fatal("delta without base image accepted")
	} else if !strings.Contains(err.Error(), "no base image") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Nothing may have leaked into the standby store.
	if got := len(dst.store.Objects()); got != objsBefore {
		t.Fatalf("rejected delta mutated the store: %d objects, was %d", got, objsBefore)
	}
	if rep := dst.store.Fsck(); !rep.OK() {
		t.Fatalf("store unhealthy after rejected delta: %v", rep.Problems)
	}

	// The standby recovers by taking a full image.
	sendTo(t, g, dst.o, 0)
	if _, _, err := dst.o.RestoreGroup("app", dst.store, RestoreFull, true); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaWrongBaseEpochErrors: a delta whose base is newer than what the
// standby holds (a skipped sync) must be rejected, and a delta from the
// held epoch must still apply afterwards.
func TestDeltaWrongBaseEpochErrors(t *testing.T) {
	src, dst := newWorld(t), newWorld(t)
	p := src.k.NewProc("app")
	g := src.o.CreateGroup("app")
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	va, _ := p.Mmap(4*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	p.WriteMem(va, []byte("e1"))
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
	e1 := g.lastEpoch
	sendTo(t, g, dst.o, 0) // standby holds e1

	p.WriteMem(va, []byte("e2"))
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
	e2 := g.lastEpoch
	p.WriteMem(va, []byte("e3"))
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}

	// Delta over e2: the standby holds e1, not e2.
	var wrong bytes.Buffer
	if err := g.send(&wrong, e2); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.o.Recv(bytes.NewReader(wrong.Bytes())); err == nil {
		t.Fatal("delta over a base the standby does not hold was accepted")
	} else if !strings.Contains(err.Error(), "base epoch") {
		t.Fatalf("unexpected error: %v", err)
	}

	// Delta over e1 still applies and brings the standby to e3.
	sendTo(t, g, dst.o, e1)
	g2, _, err := dst.o.RestoreGroup("app", dst.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	if err := g2.Procs()[0].ReadMem(va, got); err != nil || string(got) != "e3" {
		t.Fatalf("standby state = %q, err %v", got, err)
	}
}

// TestRecvCorruptLengthHeader pins the frame-reader hardening: a corrupt
// 4-byte length header must yield a decode error, never a multi-gigabyte
// allocation.
func TestRecvCorruptLengthHeader(t *testing.T) {
	src := newWorld(t)
	p := src.k.NewProc("app")
	g := src.o.CreateGroup("app")
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := g.Send(&stream); err != nil {
		t.Fatal(err)
	}
	good := stream.Bytes()

	corruptAt := func(off int) []byte {
		b := append([]byte(nil), good...)
		b[off], b[off+1], b[off+2], b[off+3] = 0xff, 0xff, 0xff, 0xff
		return b
	}

	// Head frame header: claims a ~4 GiB item.
	dst := newWorld(t)
	if _, err := dst.o.Recv(bytes.NewReader(corruptAt(0))); err == nil {
		t.Fatal("4 GiB head frame accepted")
	} else if !errors.Is(err, rec.ErrCorrupt) {
		t.Fatalf("head: err = %v, want rec.ErrCorrupt", err)
	}

	// Second item's header, mid-stream.
	headLen := int(uint32(good[0]) | uint32(good[1])<<8 | uint32(good[2])<<16 | uint32(good[3])<<24)
	off := 4 + headLen
	dst2 := newWorld(t)
	if _, err := dst2.o.Recv(bytes.NewReader(corruptAt(off))); err == nil {
		t.Fatal("4 GiB mid-stream frame accepted")
	} else if !errors.Is(err, rec.ErrCorrupt) {
		t.Fatalf("mid-stream: err = %v, want rec.ErrCorrupt", err)
	}

	// A header just over the cap (not all-ones) is rejected too.
	b := append([]byte(nil), good...)
	n := uint32(maxStreamItem + 1)
	b[0], b[1], b[2], b[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	dst3 := newWorld(t)
	if _, err := dst3.o.Recv(bytes.NewReader(b)); err == nil {
		t.Fatal("over-cap frame accepted")
	}

	// The untouched stream still applies.
	dst4 := newWorld(t)
	if _, err := dst4.o.Recv(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
}
