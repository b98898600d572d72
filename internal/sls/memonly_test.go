package sls

import (
	"testing"

	"aurora/internal/kern"
	"aurora/internal/vm"
)

// A CkptMemOnly between two committed checkpoints must not lose the
// mem-only interval's writes: its frozen shadow is never flushed by its own
// checkpoint, so the next committed checkpoint has to pick those pages up.
func TestMemOnlyIntervalWritesSurvive(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	va, _ := p.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)

	p.WriteMem(va, []byte("A"))
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	// Mem-only interval: this write is captured in memory only.
	p.WriteMem(va+vm.PageSize, []byte("B"))
	if _, err := g.Checkpoint(CkptMemOnly); err != nil {
		t.Fatal(err)
	}
	// Another interval, then a committed checkpoint.
	p.WriteMem(va+2*vm.PageSize, []byte("C"))
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}

	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	rp := g2.Procs()[0]
	buf := make([]byte, 1)
	for i, want := range []byte{'A', 'B', 'C'} {
		rp.ReadMem(va+uint64(i)*vm.PageSize, buf)
		if buf[0] != want {
			t.Fatalf("page %d = %q, want %q (mem-only interval lost)", i, buf[0], want)
		}
	}
}

// Repeated mem-only checkpoints followed by one committed checkpoint: every
// interval's writes must land.
func TestManyMemOnlyThenCommit(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	va, _ := p.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)
	g.Checkpoint(CkptIncremental)
	for i := 0; i < 5; i++ {
		p.WriteMem(va+uint64(i)*vm.PageSize, []byte{byte('a' + i)})
		if _, err := g.Checkpoint(CkptMemOnly); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	rp := g2.Procs()[0]
	buf := make([]byte, 1)
	for i := 0; i < 5; i++ {
		rp.ReadMem(va+uint64(i)*vm.PageSize, buf)
		if buf[0] != byte('a'+i) {
			t.Fatalf("page %d = %q, want %q", i, buf[0], byte('a'+i))
		}
	}
}

// A mem-only checkpoint must not cut external synchrony: nothing becomes
// durable, so held messages must keep waiting for a real commit.
func TestMemOnlyDoesNotReleaseES(t *testing.T) {
	w := newWorld(t)
	app := w.k.NewProc("app")
	ext := w.k.NewProc("ext")
	g := w.o.CreateGroup("app")
	g.Attach(app)
	efd, _ := ext.Socket(kern.KindSocketUDP)
	ext.Bind(efd, "10.0.0.9:1")
	afd, _ := app.Socket(kern.KindSocketUDP)
	app.Bind(afd, "10.0.0.1:1")
	// Commit once so Barrier has an epoch, then hold a message.
	g.Checkpoint(CkptIncremental)
	g.Barrier()
	app.SendTo(afd, "10.0.0.9:1", []byte("held"))

	// Mem-only checkpoint + barrier: must NOT release (nothing durable
	// covers the message).
	if _, err := g.Checkpoint(CkptMemOnly); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
	if err := ext.SetFlags(efd, kern.ORead|kern.OWrite|kern.ONonblock); err != nil {
		t.Fatal(err)
	}
	if _, err := ext.Read(efd, make([]byte, 8)); err == nil {
		t.Fatal("mem-only checkpoint released an externally-synchronized message")
	}
	// A real commit does release it.
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, err := ext.Read(efd, buf)
	if err != nil || string(buf[:n]) != "held" {
		t.Fatalf("after real commit: %q err=%v", buf[:n], err)
	}
}
