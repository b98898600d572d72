package sls

import (
	"bytes"
	"testing"

	"aurora/internal/elfcore"
	"aurora/internal/kern"
	"aurora/internal/vm"
)

// Restore-fidelity tests: restored kernel objects must not just exist but
// keep WORKING with their checkpointed semantics.

func TestRestoredThreadsKeepStateAndTIDs(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("threads")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	t2 := p.SpawnThread("worker")
	t2.CPU.RSP = 0x7FFF0000
	t2.SigMask = 0xFF00
	t2.Priority = 42
	p.MainThread().CPU.GPR[3] = 0x1234
	mainTID := p.MainThread().LocalTID
	workerTID := t2.LocalTID
	g.Checkpoint(CkptIncremental)

	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	rp := g2.Procs()[0]
	if len(rp.Threads) != 2 {
		t.Fatalf("threads = %d", len(rp.Threads))
	}
	if rp.Threads[0].LocalTID != mainTID || rp.Threads[1].LocalTID != workerTID {
		t.Fatal("TIDs not restored")
	}
	if rp.Threads[0].CPU.GPR[3] != 0x1234 {
		t.Fatal("main thread registers lost")
	}
	rt := rp.Threads[1]
	if rt.CPU.RSP != 0x7FFF0000 || rt.SigMask != 0xFF00 || rt.Priority != 42 {
		t.Fatalf("worker state: %+v", rt)
	}
	// The futex keyed by local TID still works (the PThread scenario).
	// Wake repeatedly until the waiter gets through: the wake can race
	// ahead of the wait's registration.
	done := make(chan struct{})
	go func() {
		rp.UmtxWait(workerTID)
		close(done)
	}()
	for {
		select {
		case <-done:
			return
		default:
			rp.UmtxWake(workerTID)
		}
	}
}

func TestRestoredKqueueStillDelivers(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("events")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	kq, _ := p.Kqueue()
	for i := 0; i < 16; i++ {
		p.KeventAdd(kq, kern.Kevent{Ident: uint64(i), Filter: kern.FilterUser})
	}
	g.Checkpoint(CkptIncremental)

	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	rp := g2.Procs()[0]
	if err := rp.KeventTrigger(kq, 7); err != nil {
		t.Fatal(err)
	}
	out := make([]kern.Kevent, 4)
	n, err := rp.KeventWait(kq, out)
	if err != nil || n != 1 || out[0].Ident != 7 {
		t.Fatalf("restored kqueue: n=%d ev=%+v err=%v", n, out[0], err)
	}
}

func TestRestoredPTYStillEchoes(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("term")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	mfd, sfd, _ := p.OpenPTY()
	p.Write(mfd, []byte("typed before crash"))
	g.Checkpoint(CkptIncremental)

	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	rp := g2.Procs()[0]
	buf := make([]byte, 32)
	n, err := rp.Read(sfd, buf)
	if err != nil || string(buf[:n]) != "typed before crash" {
		t.Fatalf("pty buffered input: %q err=%v", buf[:n], err)
	}
	// Still a live terminal both ways.
	rp.Write(sfd, []byte("output"))
	n, _ = rp.Read(mfd, buf)
	if string(buf[:n]) != "output" {
		t.Fatalf("pty reverse: %q", buf[:n])
	}
}

func TestRestoredSessionsAndGroups(t *testing.T) {
	w := newWorld(t)
	leader := w.k.NewProc("leader")
	g := w.o.CreateGroup("app")
	g.Attach(leader)
	leader.Setsid()
	worker := leader.Fork()
	worker.Setpgid(leader.LocalPID)
	g.Checkpoint(CkptIncremental)

	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	var rl, rw *kern.Proc
	for _, p := range g2.Procs() {
		if p.LocalPID == leader.LocalPID {
			rl = p
		} else {
			rw = p
		}
	}
	if rl.SID != rl.LocalPID || rl.PGID != rl.LocalPID {
		t.Fatalf("leader session: sid=%d pgid=%d", rl.SID, rl.PGID)
	}
	if rw.PGID != rl.LocalPID || rw.SID != rl.SID {
		t.Fatalf("worker: pgid=%d sid=%d", rw.PGID, rw.SID)
	}
	// Job control works: signal the whole restored group.
	if err := rl.Kill(-rl.LocalPID, kern.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*kern.Proc{rl, rw} {
		got := p.PollSignal()
		for got != 0 && got != kern.SIGTERM {
			got = p.PollSignal()
		}
		if got != kern.SIGTERM {
			t.Fatalf("%s missed group signal", p.Name)
		}
	}
}

func TestCoreDumpOfLazyRestore(t *testing.T) {
	// sls dump of a lazily-restored process: no pages are resident, but
	// the dump must still carry the checkpointed memory (read through
	// the store pagers, not just the page cache).
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	va, _ := p.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)
	p.WriteMem(va+17*vm.PageSize, []byte("needle-for-dump"))
	g.Checkpoint(CkptIncremental)

	w2 := w.crash(t)
	g2, rst, err := w2.o.RestoreGroup("app", w2.store, RestoreLazy, true)
	if err != nil {
		t.Fatal(err)
	}
	if rst.PagesEager != 0 {
		t.Fatalf("not lazy: %d pages eager", rst.PagesEager)
	}
	var buf bytes.Buffer
	if _, err := elfcore.Write(&buf, g2.Procs()[0]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("needle-for-dump")) {
		t.Fatal("lazily-restored memory missing from core dump")
	}
	if err := elfcore.Validate(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestRestoredDeviceAndFlags(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("dev")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	dfd, _ := p.OpenDevice(kern.DevNull)
	if err := p.SetFlags(dfd, kern.ORead|kern.OWrite|kern.ONonblock); err != nil {
		t.Fatal(err)
	}
	if _, err := p.MapDevice(kern.DevHPET); err != nil {
		t.Fatal(err)
	}
	g.Checkpoint(CkptIncremental)

	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	rp := g2.Procs()[0]
	rf, err := rp.FDs.Get(dfd)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Flags()&kern.ONonblock == 0 {
		t.Fatal("descriptor flags lost")
	}
	if _, err := rp.Write(dfd, []byte("x")); err != nil {
		t.Fatalf("restored /dev/null: %v", err)
	}
	// The HPET mapping pages in fresh timer content.
	buf := make([]byte, 8)
	if err := rp.ReadMem(vm.UserBase, buf); err != nil {
		t.Fatalf("restored device mapping: %v", err)
	}
}
