package sls

import (
	"testing"

	"aurora/internal/vm"
)

// A WAL checkpoint must commit durably without advancing the store epoch,
// and a crash after it must restore the WAL-committed state.
func TestWALCheckpointRestore(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	va, err := p.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	p.WriteMem(va, []byte("base state"))
	base, err := g.Checkpoint(CkptIncremental)
	if err != nil {
		t.Fatal(err)
	}

	p.WriteMem(va, []byte("wal frame 1"))
	st1, err := g.Checkpoint(CkptWAL)
	if err != nil {
		t.Fatal(err)
	}
	if st1.WALSeq != 1 {
		t.Fatalf("first WAL commit seq = %d, want 1", st1.WALSeq)
	}
	if st1.Epoch != base.Epoch {
		t.Fatalf("WAL commit advanced epoch %d -> %d", base.Epoch, st1.Epoch)
	}
	p.WriteMem(va, []byte("wal frame 2!"))
	p.WriteMem(va+12*vm.PageSize, []byte("far wal page"))
	st2, err := g.Checkpoint(CkptWAL)
	if err != nil {
		t.Fatal(err)
	}
	if st2.WALSeq != 2 || st2.Epoch != base.Epoch {
		t.Fatalf("second WAL commit: epoch %d seq %d, want epoch %d seq 2", st2.Epoch, st2.WALSeq, base.Epoch)
	}
	if g.WALDurable() != st2.DurableAt {
		t.Fatalf("group waits on a WAL commit durable at %v, want frame 2's %v", g.WALDurable(), st2.DurableAt)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}

	// Crash: recovery replays the frames, restore sees frame 2's state.
	w2 := w.crash(t)
	if got := w2.store.WALReplayed(); got != 2 {
		t.Fatalf("recovery replayed %d WAL frames, want 2", got)
	}
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	rp := g2.Procs()[0]
	got := make([]byte, 12)
	if err := rp.ReadMem(va, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "wal frame 2!" {
		t.Fatalf("memory = %q, want WAL frame 2 content", got)
	}
	if err := rp.ReadMem(va+12*vm.PageSize, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "far wal page" {
		t.Fatalf("far page = %q", got)
	}
}

// FoldEvery promotes the Nth WAL commit to a full checkpoint: the epoch
// advances, the frame sequence resets, and the cycle restarts.
func TestWALFoldEvery(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	g.Options.FoldEvery = 2
	va, _ := p.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)
	p.WriteMem(va, []byte{1})
	base, err := g.Checkpoint(CkptIncremental)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{1, 2, 0, 1} {
		p.WriteMem(va, []byte{byte(10 + i)})
		st, err := g.Checkpoint(CkptWAL)
		if err != nil {
			t.Fatal(err)
		}
		if st.WALSeq != want {
			t.Fatalf("commit %d: wal seq %d, want %d", i, st.WALSeq, want)
		}
	}
	// Commits 1,2 appended; commit 3 folded (epoch +1); commit 4 appended.
	if g.Epoch() != base.Epoch+1 {
		t.Fatalf("epoch %d, want %d after one fold", g.Epoch(), base.Epoch+1)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
}

// A full checkpoint after WAL commits folds them: the store's frame chain
// resets and the group's barrier point moves back to the epoch.
func TestWALFoldOnFullCheckpoint(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	va, _ := p.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)
	p.WriteMem(va, []byte{1})
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	p.WriteMem(va, []byte{2})
	if _, err := g.Checkpoint(CkptWAL); err != nil {
		t.Fatal(err)
	}
	p.WriteMem(va, []byte{3})
	st, err := g.Checkpoint(CkptIncremental)
	if err != nil {
		t.Fatal(err)
	}
	if st.WALSeq != 0 {
		t.Fatalf("full checkpoint reported wal seq %d", st.WALSeq)
	}
	if g.WALDurable() != 0 {
		t.Fatalf("group waits on a WAL commit durable at %v after fold", g.WALDurable())
	}
	if w.store.WALSeq() != 0 {
		t.Fatalf("store WALSeq = %d after fold", w.store.WALSeq())
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
	// The folded state survives a crash.
	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1)
	if err := g2.Procs()[0].ReadMem(va, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 {
		t.Fatalf("memory = %d, want 3", got[0])
	}
}
