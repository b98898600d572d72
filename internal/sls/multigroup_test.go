package sls

import (
	"testing"

	"aurora/internal/kern"
	"aurora/internal/vm"
)

// Multiple consistency groups on one machine: each application checkpoints
// independently and atomically (§3 — "typically a consistency group will
// encompass a single application or container").
func TestTwoGroupsCheckpointIndependently(t *testing.T) {
	w := newWorld(t)
	pa := w.k.NewProc("app-a")
	pb := w.k.NewProc("app-b")
	ga := w.o.CreateGroup("a")
	gb := w.o.CreateGroup("b")
	ga.Attach(pa)
	gb.Attach(pb)
	vaA, _ := pa.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)
	vaB, _ := pb.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)

	// Interleave: A checkpoints v1; B writes and checkpoints; A writes v2
	// but does NOT checkpoint.
	pa.WriteMem(vaA, []byte("a-v1"))
	if _, err := ga.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	pb.WriteMem(vaB, []byte("b-v1"))
	if _, err := gb.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	pa.WriteMem(vaA, []byte("a-v2"))

	w2 := w.crash(t)
	gA, _, err := w2.o.RestoreGroup("a", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	gB, _, err := w2.o.RestoreGroup("b", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	gA.Procs()[0].ReadMem(vaA, buf)
	if string(buf) != "a-v1" {
		t.Fatalf("A restored %q, want its own last checkpoint a-v1", buf)
	}
	gB.Procs()[0].ReadMem(vaB, buf)
	if string(buf) != "b-v1" {
		t.Fatalf("B restored %q", buf)
	}
	// Restored groups keep working independently.
	gA.Procs()[0].WriteMem(vaA, []byte("a-v3"))
	if _, err := gA.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if _, err := gB.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
}

// External synchrony between two groups: a message from group A to group B
// is held until A's covering checkpoint is durable — B never observes
// state that could roll back.
func TestCrossGroupExternalSynchrony(t *testing.T) {
	w := newWorld(t)
	pa := w.k.NewProc("sender")
	pb := w.k.NewProc("receiver")
	ga := w.o.CreateGroup("a")
	gb := w.o.CreateGroup("b")
	ga.Attach(pa)
	gb.Attach(pb)

	bfd, _ := pb.Socket(kern.KindSocketUDP)
	pb.Bind(bfd, "10.0.0.2:1")
	afd, _ := pa.Socket(kern.KindSocketUDP)
	pa.Bind(afd, "10.0.0.1:1")

	if _, err := pa.SendTo(afd, "10.0.0.2:1", []byte("held")); err != nil {
		t.Fatal(err)
	}
	if err := pb.SetFlags(bfd, kern.ORead|kern.OWrite|kern.ONonblock); err != nil {
		t.Fatal(err)
	}
	if _, err := pb.Read(bfd, make([]byte, 8)); err == nil {
		t.Fatal("cross-group message leaked before sender's checkpoint")
	}
	// B checkpointing does not release A's held messages.
	if _, err := gb.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if err := gb.Barrier(); err != nil {
		t.Fatal(err)
	}
	if _, err := pb.Read(bfd, make([]byte, 8)); err == nil {
		t.Fatal("receiver's checkpoint released the sender's messages")
	}
	// A's checkpoint + barrier does.
	if _, err := ga.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if err := ga.Barrier(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, err := pb.Read(bfd, buf)
	if err != nil || string(buf[:n]) != "held" {
		t.Fatalf("after sender barrier: %q err=%v", buf[:n], err)
	}
}

// Within one group no external synchrony applies (§3): processes in the
// same group communicate without checkpoint-wait latency.
func TestIntraGroupNoES(t *testing.T) {
	w := newWorld(t)
	pa := w.k.NewProc("a")
	pb := w.k.NewProc("b")
	g := w.o.CreateGroup("app")
	g.Attach(pa)
	g.Attach(pb)
	bfd, _ := pb.Socket(kern.KindSocketUDP)
	pb.Bind(bfd, "10.0.0.2:1")
	afd, _ := pa.Socket(kern.KindSocketUDP)
	pa.Bind(afd, "10.0.0.1:1")
	pa.SendTo(afd, "10.0.0.2:1", []byte("fast"))
	buf := make([]byte, 8)
	n, err := pb.Read(bfd, buf)
	if err != nil || string(buf[:n]) != "fast" {
		t.Fatalf("intra-group message delayed: %q err=%v", buf[:n], err)
	}
}
