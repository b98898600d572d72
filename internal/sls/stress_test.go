package sls

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"aurora/internal/kern"
	"aurora/internal/vm"
)

// Stress: real goroutine concurrency against the quiesce path. Worker
// goroutines mutate memory, push bytes through pipes, and take syscalls
// while a checkpointer loop stops the world repeatedly. The test then
// crashes the machine and verifies the restored state is one of the
// states the application actually passed through (a consistent cut).
func TestConcurrentWorkersUnderCheckpointing(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("stress")
	g := w.o.CreateGroup("stress")
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}

	const workers = 4
	const slots = 8
	va, err := p.Mmap(workers*slots*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	rfd, wfd, err := p.Pipe()
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, workers+2)

	// Each worker writes a monotonically increasing counter into its own
	// set of pages. Invariant after restore: all of a worker's slots hold
	// values within 1 of each other (each iteration writes all slots
	// before the counter advances — per-iteration writes are NOT atomic,
	// so a checkpoint may split an iteration, but never more than one).
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			var buf [8]byte
			for i := uint64(1); !stop.Load(); i++ {
				for s := 0; s < slots; s++ {
					binary.LittleEndian.PutUint64(buf[:], i)
					addr := va + uint64((wk*slots+s))*vm.PageSize
					if err := p.WriteMem(addr, buf[:]); err != nil {
						errs <- err
						return
					}
				}
			}
		}(wk)
	}

	// A pipe pair: writer pushes framed sequence numbers, reader consumes
	// and checks ordering (quiesce interruptions must be invisible).
	wg.Add(2)
	go func() {
		defer wg.Done()
		var buf [8]byte
		for i := uint64(1); !stop.Load(); i++ {
			binary.LittleEndian.PutUint64(buf[:], i)
			if _, err := p.Write(wfd, buf[:]); err != nil {
				errs <- fmt.Errorf("pipe write %d: %w", i, err)
				return
			}
		}
		p.Close(wfd)
	}()
	go func() {
		defer wg.Done()
		var last uint64
		buf := make([]byte, 8)
		for {
			n, err := p.Read(rfd, buf)
			if err != nil {
				errs <- fmt.Errorf("pipe read: %w", err)
				return
			}
			if n == 0 {
				return // EOF after writer closes
			}
			// Reads may return partial frames under interleaving; only
			// validate aligned full frames.
			if n == 8 {
				v := binary.LittleEndian.Uint64(buf)
				if v != 0 && v < last {
					errs <- fmt.Errorf("pipe went backwards: %d after %d", v, last)
					return
				}
				last = v
			}
		}
	}()

	// The checkpointer: 60 stop-the-world checkpoints under load.
	for i := 0; i < 60; i++ {
		if _, err := g.Checkpoint(CkptIncremental); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Verify the invariant on MID-RUN checkpoints: restore several epochs
	// captured while the workers were racing and check each is a
	// consistent cut (no worker's slots torn across more than one
	// iteration — the quiesce froze them all at one instant).
	checkCut := func(rp *kern.Proc, label string) {
		t.Helper()
		var buf [8]byte
		for wk := 0; wk < workers; wk++ {
			var lo, hi uint64
			for s := 0; s < slots; s++ {
				addr := va + uint64((wk*slots+s))*vm.PageSize
				if err := rp.ReadMem(addr, buf[:]); err != nil {
					t.Fatal(err)
				}
				v := binary.LittleEndian.Uint64(buf[:])
				if s == 0 || v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if hi-lo > 1 {
				t.Fatalf("%s: worker %d slots span %d..%d — torn cut", label, wk, lo, hi)
			}
		}
	}

	epochs := w.store.RetainedCheckpoints()
	if len(epochs) < 10 {
		t.Fatalf("only %d retained epochs", len(epochs))
	}
	for _, idx := range []int{len(epochs) / 4, len(epochs) / 2, 3 * len(epochs) / 4} {
		view, err := w.store.RestoreView(epochs[idx])
		if err != nil {
			t.Fatal(err)
		}
		gv, _, err := w.o.RestoreGroup("stress", view, RestoreLazy, false)
		if err != nil {
			t.Fatal(err)
		}
		checkCut(gv.Procs()[0], fmt.Sprintf("epoch %d", epochs[idx]))
		for _, p := range gv.Procs() {
			p.Exit(0)
		}
		w.o.Forget(gv)
	}

	// And the final state after a crash.
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("stress", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	checkCut(g2.Procs()[0], "final")
}

// Stress the flush pipeline specifically: worker goroutines dirty pages
// continuously while checkpoints flush. The checkpointer holds the kernel
// lock through the flush, so each fault lands between two checkpoints and
// COW-copies from the chains the last flush walked. Meant to run under
// -race; consistency is checked by restoring the final crash image.
func TestParallelFlushUnderConcurrentDirtying(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("stress")
	g := w.o.CreateGroup("stress")
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}

	const workers = 4
	const pages = 256 // per worker
	va, err := p.Mmap(workers*pages*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			var buf [8]byte
			for i := uint64(1); !stop.Load(); i++ {
				binary.LittleEndian.PutUint64(buf[:], i)
				pg := (i * 17) % pages // stride to spread dirtying
				addr := va + uint64(wk*pages+int(pg))*vm.PageSize
				if err := p.WriteMem(addr, buf[:]); err != nil {
					errs <- err
					return
				}
			}
		}(wk)
	}

	for i := 0; i < 40; i++ {
		if _, err := g.Checkpoint(CkptIncremental); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("stress", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	// The workers were stopped before the final checkpoint, so the restored
	// image must match the live image exactly.
	want := make([]byte, 8)
	got := make([]byte, 8)
	for pg := 0; pg < workers*pages; pg++ {
		addr := va + uint64(pg)*vm.PageSize
		if err := p.ReadMem(addr, want); err != nil {
			t.Fatal(err)
		}
		if err := g2.Procs()[0].ReadMem(addr, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("page %d: restored %x, want %x", pg, got, want)
		}
	}
}

// Quiesce under blocked accept: a server goroutine parked in Accept must
// transparently survive repeated checkpoints and still accept afterwards.
func TestCheckpointWhileBlockedInAccept(t *testing.T) {
	w := newWorld(t)
	srv := w.k.NewProc("server")
	cli := w.k.NewProc("client")
	g := w.o.CreateGroup("app")
	g.Attach(srv)
	g.Attach(cli)
	lfd, _ := srv.Socket(kern.KindSocketTCP)
	srv.Bind(lfd, "10.0.0.1:80")
	srv.Listen(lfd)

	accepted := make(chan error, 1)
	go func() {
		_, err := srv.Accept(lfd) // blocks across the checkpoints below
		accepted <- err
	}()
	for i := 0; i < 10; i++ {
		if _, err := g.Checkpoint(CkptIncremental); err != nil {
			t.Fatal(err)
		}
	}
	cfd, _ := cli.Socket(kern.KindSocketTCP)
	cli.Bind(cfd, "10.0.0.2:999")
	if err := cli.Connect(cfd, "10.0.0.1:80"); err != nil {
		t.Fatal(err)
	}
	if err := <-accepted; err != nil {
		t.Fatalf("accept after 10 quiesces: %v", err)
	}
}
