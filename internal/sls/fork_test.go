package sls

import (
	"testing"

	"aurora/internal/kern"
	"aurora/internal/vm"
)

// Fork interacts with system shadowing in the paper's §6: fork must work
// "without any conflict" with the shadow chains. These tests cover the
// awkward interleavings.

func TestForkBetweenCheckpointsPreservesPreForkWrites(t *testing.T) {
	// Writes landing in the live system shadow BEFORE a fork become
	// mid-chain once the fork shadows both sides; the next checkpoint
	// must still flush them.
	w := newWorld(t)
	parent := w.k.NewProc("parent")
	g := w.o.CreateGroup("app")
	g.Attach(parent)
	va, _ := parent.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)
	parent.WriteMem(va, []byte("base"))
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}

	// Interval: write (lands in the live transient shadow), THEN fork.
	parent.WriteMem(va+vm.PageSize, []byte("pre-fork"))
	child := parent.Fork()
	parent.WriteMem(va+2*vm.PageSize, []byte("parent-post"))
	child.WriteMem(va+3*vm.PageSize, []byte("child-post"))

	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}

	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	var rp, rc *kern.Proc
	for _, p := range g2.Procs() {
		if p.LocalPID == parent.LocalPID {
			rp = p
		} else {
			rc = p
		}
	}
	buf := make([]byte, 12)
	// The pre-fork write is shared state: both sides must see it.
	rp.ReadMem(va+vm.PageSize, buf[:8])
	if string(buf[:8]) != "pre-fork" {
		t.Fatalf("parent lost pre-fork write: %q", buf[:8])
	}
	rc.ReadMem(va+vm.PageSize, buf[:8])
	if string(buf[:8]) != "pre-fork" {
		t.Fatalf("child lost pre-fork write: %q", buf[:8])
	}
	// Post-fork writes are private.
	rp.ReadMem(va+2*vm.PageSize, buf[:11])
	if string(buf[:11]) != "parent-post" {
		t.Fatalf("parent private write: %q", buf[:11])
	}
	rc.ReadMem(va+2*vm.PageSize, buf[:11])
	if string(buf[:11]) == "parent-post" {
		t.Fatal("child sees parent's private write")
	}
	rc.ReadMem(va+3*vm.PageSize, buf[:10])
	if string(buf[:10]) != "child-post" {
		t.Fatalf("child private write: %q", buf[:10])
	}
	// And the base from before the first checkpoint.
	rp.ReadMem(va, buf[:4])
	if string(buf[:4]) != "base" {
		t.Fatalf("base content: %q", buf[:4])
	}
}

func TestForkThenManyCheckpointsStaysCorrect(t *testing.T) {
	// Repeated checkpoint/write cycles after a fork: chains must stay
	// bounded-ish and content exact.
	w := newWorld(t)
	parent := w.k.NewProc("parent")
	g := w.o.CreateGroup("app")
	g.Attach(parent)
	va, _ := parent.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)
	parent.WriteMem(va, []byte{1})
	g.Checkpoint(CkptIncremental)
	child := parent.Fork()

	for i := byte(0); i < 10; i++ {
		parent.WriteMem(va+vm.PageSize, []byte{i})
		child.WriteMem(va+2*vm.PageSize, []byte{i + 100})
		if _, err := g.Checkpoint(CkptIncremental); err != nil {
			t.Fatal(err)
		}
	}
	ent, _ := parent.Mem.EntryAt(va)
	if got := chainLength(ent.Obj); got > 5 {
		t.Fatalf("parent chain length = %d after 10 post-fork checkpoints", got)
	}

	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	var rp, rc *kern.Proc
	for _, p := range g2.Procs() {
		if p.LocalPID == parent.LocalPID {
			rp = p
		} else {
			rc = p
		}
	}
	b := make([]byte, 1)
	rp.ReadMem(va+vm.PageSize, b)
	if b[0] != 9 {
		t.Fatalf("parent page = %d, want 9", b[0])
	}
	rc.ReadMem(va+2*vm.PageSize, b)
	if b[0] != 109 {
		t.Fatalf("child page = %d, want 109", b[0])
	}
	rp.ReadMem(va, b)
	if b[0] != 1 {
		t.Fatalf("shared base = %d, want 1", b[0])
	}
}
