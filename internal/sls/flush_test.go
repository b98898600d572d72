package sls

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"aurora/internal/kern"
	"aurora/internal/objstore"
	"aurora/internal/vm"
)

// TestFlushHistoryRestoresExactly is the pipeline's core regression: one
// deterministic history — full image, incremental deltas, a mem-only interval
// (trapped transients), a fork mid-interval, and a final crash — must restore
// every process's memory byte for byte as the application left it, and report
// the page and byte totals the history dirtied and flushed.
func TestFlushHistoryRestoresExactly(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	const pages = 1024
	va, err := p.Mmap(pages*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	write := func(proc interface {
		WriteMem(uint64, []byte) error
	}, first, n int, round byte) {
		buf := make([]byte, 16)
		for i := first; i < first+n; i++ {
			for j := range buf {
				buf[j] = byte(i) ^ round
			}
			if err := proc.WriteMem(va+uint64(i)*vm.PageSize, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	var flushed, dirty int64

	// Round 1: full image of 600 dirty pages.
	write(p, 0, 600, 1)
	st, err := g.Checkpoint(CkptIncremental)
	if err != nil {
		t.Fatal(err)
	}
	flushed += st.FlushBytes
	dirty += st.DirtyPages

	// Round 2: a mem-only interval freezes a transient full of dirty
	// pages; round 3 overwrites part of that range, then a committing
	// checkpoint must flush the trapped transient without letting its
	// stale versions beat the newer ones.
	write(p, 100, 300, 2)
	if _, err := g.Checkpoint(CkptMemOnly); err != nil {
		t.Fatal(err)
	}
	write(p, 200, 300, 3)
	st, err = g.Checkpoint(CkptIncremental)
	if err != nil {
		t.Fatal(err)
	}
	flushed += st.FlushBytes
	dirty += st.DirtyPages

	// Round 4: fork mid-interval (the trapped-transient path again, via
	// the fork's interposed shadows), then diverge parent and child.
	write(p, 0, 100, 4)
	child := p.Fork()
	write(p, 300, 100, 5)
	write(child, 500, 100, 6)
	st, err = g.Checkpoint(CkptIncremental)
	if err != nil {
		t.Fatal(err)
	}
	flushed += st.FlushBytes
	dirty += st.DirtyPages

	// Crash and restore; every process's image must come back as it was.
	procs := []*kern.Proc{p, child}
	want := make([][]byte, len(procs))
	for i, proc := range procs {
		want[i] = make([]byte, pages*vm.PageSize)
		if err := proc.ReadMem(va, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, pages*vm.PageSize)
	for i, proc := range procs {
		found := false
		for _, rp := range g2.Procs() {
			if rp.LocalPID != proc.LocalPID {
				continue
			}
			found = true
			if err := rp.ReadMem(va, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[i]) {
				for b := range got {
					if got[b] != want[i][b] {
						t.Fatalf("pid %d restored image diverges at byte %d (page %d): got %#x want %#x",
							proc.LocalPID, b, b/int(vm.PageSize), got[b], want[i][b])
					}
				}
			}
		}
		if !found {
			t.Fatalf("restored group lacks pid %d", proc.LocalPID)
		}
	}

	// DirtyPages counts the frozen objects' unstored pages. Every frozen
	// object of this history is a first image or a transient shadow, which
	// hold nothing else, so the totals are what counting every resident page
	// gave (600 + 300 + 200, 1300 pages flushed with the trapped transients):
	// the count may only shrink after a restore.
	if dirty != 1100 || flushed != 1300*vm.PageSize {
		t.Fatalf("dirty pages %d, flush bytes %d; want 1100 and %d", dirty, flushed, 1300*vm.PageSize)
	}
}

// TestTrappedFlushNewestVersionWins pins the ordering fix: a page dirtied
// in a mem-only interval AND in the following interval must restore with
// the newer value. (The old serial path flushed the trapped transient
// after the frozen pair, so the stale version landed last.)
func TestTrappedFlushNewestVersionWins(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	va, _ := p.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)

	p.WriteMem(va, []byte("v1"))
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	p.WriteMem(va, []byte("v2"))
	if _, err := g.Checkpoint(CkptMemOnly); err != nil {
		t.Fatal(err)
	}
	// The mem-only frozen shadow now holds v2, unflushed. Overwrite the
	// same page, then commit: the trapped v2 must not beat v3.
	p.WriteMem(va, []byte("v3"))
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}

	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	g2.Procs()[0].ReadMem(va, got)
	if string(got) != "v3" {
		t.Fatalf("restored %q, want v3 (stale trapped version won)", got)
	}
}

// TestCheckpointFlushStats checks the pipeline's observability fields.
func TestCheckpointFlushStats(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	va, _ := p.Mmap(8<<20, vm.ProtRead|vm.ProtWrite, false)
	buf := make([]byte, vm.PageSize)
	for i := 0; i < 512; i++ {
		p.WriteMem(va+uint64(i)*vm.PageSize, buf)
	}
	st, err := g.Checkpoint(CkptIncremental)
	if err != nil {
		t.Fatal(err)
	}
	// The flush runs on the checkpointing goroutine and drains the plan's
	// jobs, one per destination object.
	jobs := func(st CheckpointStats, want int) {
		t.Helper()
		if st.FlushWorkers != min(want, 1) || st.MaxQueueDepth != want {
			t.Fatalf("FlushWorkers = %d, MaxQueueDepth = %d; want %d and the plan's %d jobs",
				st.FlushWorkers, st.MaxQueueDepth, min(want, 1), want)
		}
	}
	jobs(st, 1)
	if st.EncodeTime <= 0 || st.WriteTime <= 0 {
		t.Fatalf("stage times: encode %v write %v", st.EncodeTime, st.WriteTime)
	}
	if st.FlushBytes < 512*vm.PageSize {
		t.Fatalf("FlushBytes = %d, want >= %d", st.FlushBytes, 512*vm.PageSize)
	}

	// An incremental flush counts exactly the bytes it submitted.
	for i := 0; i < 7; i++ {
		p.WriteMem(va+uint64(i*50)*vm.PageSize, buf)
	}
	st, err = g.Checkpoint(CkptIncremental)
	if err != nil {
		t.Fatal(err)
	}
	jobs(st, 1)
	if st.FlushBytes != 7*vm.PageSize {
		t.Fatalf("incremental FlushBytes = %d, want %d", st.FlushBytes, 7*vm.PageSize)
	}

	// A second object dirty beside the first: two jobs.
	va2, _ := p.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)
	p.WriteMem(va, buf)
	p.WriteMem(va2, buf)
	st, err = g.Checkpoint(CkptIncremental)
	if err != nil {
		t.Fatal(err)
	}
	jobs(st, 2)
}

// failOnceDev fails the next submit once armed, as a transient device error
// would: the machine keeps running and the caller retries.
type failOnceDev struct {
	objstore.BlockDev
	armed bool
}

var errFlushFailed = errors.New("data write failed")

func (f *failOnceDev) Submit(bufs [][]byte, off int64, after time.Duration) (time.Duration, error) {
	if f.armed {
		f.armed = false
		return 0, errFlushFailed
	}
	return f.BlockDev.Submit(bufs, off, after)
}

// TestCheckpointRetriedAfterFailedFlush: a checkpoint whose flush fails on a
// machine that keeps running has stored nothing, so its pages must still count
// as unstored: the retry stages them again (from the failed pass's frozen
// shadow, by then a trapped transient) and the image it commits is the
// application's. The crash sweeps cut power; only this covers the retry.
func TestCheckpointRetriedAfterFailedFlush(t *testing.T) {
	const pages, dirtied = 64, 40
	var fd *failOnceDev
	w, err := newWorldOn(func(d objstore.BlockDev) objstore.BlockDev {
		fd = &failOnceDev{BlockDev: d}
		return fd
	})
	if err != nil {
		t.Fatal(err)
	}
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	va, err := p.Mmap(pages*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, pages*vm.PageSize)
	rand.New(rand.NewSource(16)).Read(want)
	if err := p.WriteMem(va, want); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	for pg := 0; pg < dirtied; pg++ {
		want[pg*vm.PageSize] ^= 0xFF
		if err := p.WriteMem(va+uint64(pg)*vm.PageSize, want[pg*vm.PageSize:pg*vm.PageSize+1]); err != nil {
			t.Fatal(err)
		}
	}
	fd.armed = true
	if _, err := g.Checkpoint(CkptIncremental); !errors.Is(err, errFlushFailed) {
		t.Fatalf("checkpoint over a failing device = %v, want the device's error", err)
	}
	st, err := g.Checkpoint(CkptIncremental)
	if err != nil {
		t.Fatalf("retry after the failed flush: %v", err)
	}
	if st.FlushBytes != dirtied*vm.PageSize {
		t.Fatalf("retry flushed %d bytes, the failed pass left %d unstored", st.FlushBytes, dirtied*vm.PageSize)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}

	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := g2.Procs()[0].ReadMem(va, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("image committed by the retry differs from the application's (err %v)", err)
	}
}

// TestFirstFlushFailedThenRetried: the FIRST flush of an object fails. The
// object was never stored, so the retry must stage its full image again —
// marking it flushed when the plan was built sent the retry down the
// incremental branch, which stages only the new (empty) frozen shadow, and the
// committed image did not restore.
func TestFirstFlushFailedThenRetried(t *testing.T) {
	const pages = 64
	var fd *failOnceDev
	w, err := newWorldOn(func(d objstore.BlockDev) objstore.BlockDev {
		fd = &failOnceDev{BlockDev: d}
		return fd
	})
	if err != nil {
		t.Fatal(err)
	}
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	va, err := p.Mmap(pages*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, pages*vm.PageSize)
	rand.New(rand.NewSource(17)).Read(want)
	if err := p.WriteMem(va, want); err != nil {
		t.Fatal(err)
	}
	fd.armed = true
	if _, err := g.Checkpoint(CkptIncremental); !errors.Is(err, errFlushFailed) {
		t.Fatalf("first checkpoint over a failing device = %v, want the device's error", err)
	}
	st, err := g.Checkpoint(CkptIncremental)
	if err != nil {
		t.Fatalf("retry after the failed first flush: %v", err)
	}
	if st.FlushBytes != pages*vm.PageSize {
		t.Fatalf("retry flushed %d bytes, the failed pass left %d unstored", st.FlushBytes, pages*vm.PageSize)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
	if rep := w.store.Fsck(); !rep.OK() {
		t.Fatalf("fsck after the retry: %v", rep.Problems)
	}

	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := g2.Procs()[0].ReadMem(va, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("image committed by the retry differs from the application's (err %v)", err)
	}
}
