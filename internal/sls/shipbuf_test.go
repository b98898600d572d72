package sls

// Copy-once page movement: what a replica does with the stream buffer it
// reuses, and the allocation gates on a sync and an eager restore.

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"aurora/internal/clock"
	"aurora/internal/net"
	"aurora/internal/objstore"
	"aurora/internal/vm"
)

// cutClock is the primary's virtual clock as its wire sees it: once armed,
// the first advance after the connection has sent at frames cuts the wire for
// an hour, in the middle of whatever transfer is running.
type cutClock struct {
	*clock.Virtual
	conn *net.Conn
	at   int64 // 0: disarmed
}

func (c *cutClock) Advance(d time.Duration) {
	c.Virtual.Advance(d)
	if c.at > 0 && c.conn.Stats().FramesSent >= c.at {
		c.at = 0
		c.conn.Pipe().Cut(time.Hour)
	}
}

// standbyHolds fails unless every object of the group the standby last
// received holds what the primary's store held at epoch ep, byte for byte.
// Journals are left to sameEntries.
func standbyHolds(t *testing.T, src *world, ep objstore.Epoch, dst *world) {
	t.Helper()
	v, err := src.store.RestoreView(ep)
	if err != nil {
		t.Fatal(err)
	}
	for oid := range dst.o.recvState["app"].live {
		want, err := v.GetRecord(oid)
		if errors.Is(err, objstore.ErrIsJournal) {
			continue
		}
		got, gerr := dst.store.GetRecord(oid)
		if err != nil || gerr != nil || !bytes.Equal(got, want) {
			t.Fatalf("epoch %d: the standby's object %d differs from the primary's (%d and %d bytes, errors %v, %v)",
				ep, oid, len(got), len(want), gerr, err)
		}
	}
}

// TestPendingShipSurvivesBufferReuse: a ship cut off mid-transfer keeps the
// stream buffer it was encoded into, which is the one the last landed delta
// left for reuse. The application then rewrites everything; Resume must land
// the pending epoch as it was encoded, and the Sync after it the rewrite.
func TestPendingShipSurvivesBufferReuse(t *testing.T) {
	src, dst := newWorld(t), newWorld(t)
	app, err := startReplApp(src)
	if err != nil {
		t.Fatal(err)
	}
	clk := &cutClock{Virtual: src.clk}
	conn := net.NewConn(net.NewPipe(clk, net.DefaultParams(), net.Plan{}, net.Plan{}), clk, replConfig(), nil)
	clk.conn = conn
	rewrite := func(val byte) {
		t.Helper()
		for pg := int64(0); pg < workloadPages; pg++ {
			if err := app.write(pg, val+byte(pg)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rewrite(0x10)
	rep, err := app.g.ReplicateToVia(dst.o, conn)
	if err != nil {
		t.Fatal(err)
	}
	rewrite(0x20)
	if err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	standbyHolds(t, src, rep.Base(), dst)
	spare := rep.spare
	if spare == nil {
		t.Fatal("the landed delta left no buffer for the next ship")
	}

	rewrite(0x30)
	clk.at = conn.Stats().FramesSent + 8
	if err := rep.Sync(); !errors.Is(err, net.ErrRetriesExhausted) {
		t.Fatalf("sync over a wire cut mid-ship: err = %v, want retries exhausted", err)
	}
	if !rep.Pending() || rep.pending.enc != spare {
		t.Fatalf("the cut ship is not pending in the reused buffer (pending %v)", rep.Pending())
	}
	if next, total, _ := conn.SessionProgress(rep.pending.epoch); next == 0 || next >= total {
		t.Fatalf("the cut came at frame %d of %d, not mid-ship", next, total)
	}
	pending := objstore.Epoch(rep.pending.epoch)

	rewrite(0x40)
	src.clk.Advance(2 * time.Hour)
	if err := rep.Resume(); err != nil {
		t.Fatal(err)
	}
	if rep.Base() != pending {
		t.Fatalf("resume landed epoch %d, the pending ship was %d", rep.Base(), pending)
	}
	standbyHolds(t, src, pending, dst)
	if err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	standbyHolds(t, src, rep.Base(), dst)
	img, err := failoverImage(rep, app.va)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.checkModel(app.model, app.jour); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaKeepsNoSeedSizedBuffer: after a 64 MiB seed the replica keeps no
// buffer, and after a 1 MiB delta it keeps at most twice that delta's stream.
func TestReplicaKeepsNoSeedSizedBuffer(t *testing.T) {
	const seedPages, deltaPages = 16 << 10, 256
	src, err := newWorldSized(256<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := newWorldSized(256<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := src.k.NewProc("app")
	g := src.o.CreateGroup("app")
	g.Period = 0
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	va, err := p.Mmap(seedPages*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	for pg := uint64(0); pg < seedPages; pg++ {
		if err := p.WriteMem(va+pg*vm.PageSize, []byte{byte(pg), 1}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := g.ReplicateTo(dst.o)
	if err != nil {
		t.Fatal(err)
	}
	retained := func() int {
		if rep.spare == nil {
			return 0
		}
		return cap(rep.spare.Raw())
	}
	if rep.LastBytes < seedPages*vm.PageSize {
		t.Fatalf("the seed shipped %d bytes", rep.LastBytes)
	}
	if n := retained(); n != 0 {
		t.Fatalf("after a %d-byte seed the replica keeps a %d-byte buffer", rep.LastBytes, n)
	}
	for pg := uint64(0); pg < deltaPages; pg++ {
		if err := p.WriteMem(va+pg*64*vm.PageSize, []byte{byte(pg), 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := retained(); n == 0 || int64(n) > 2*rep.LastBytes {
		t.Fatalf("after a %d-byte delta the replica keeps a %d-byte buffer", rep.LastBytes, n)
	}
}

// allocsPer reports the heap allocations and bytes one call of op makes, on
// average over n calls, with between run before each call and not counted.
func allocsPer(n int, between, op func()) (allocs, bytes uint64) {
	var m0, m1 runtime.MemStats
	for i := 0; i < n; i++ {
		between()
		runtime.ReadMemStats(&m0)
		op()
		runtime.ReadMemStats(&m1)
		allocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
	}
	return allocs / uint64(n), bytes / uint64(n)
}

// TestSyncAllocsBounded: one sync of BenchmarkReplicaSyncPages's shape — 256
// changed pages, a megabyte of page data, over a lossy wire — allocates at
// most 1 500 times and 1 MB, the first syncs' warm-up included (15.0 MB and
// 3 177 allocations when the stream and the standby's session regrew their
// buffers and the standby copied each item out of the payload; 3.3 MB while
// every wire frame and every received payload was a fresh buffer). Under the
// race detector, whose runtime allocates where the plain build does not
// (raceDetector), only the count is gated.
func TestSyncAllocsBounded(t *testing.T) {
	s := newSyncShape(t)
	i := 0
	allocs, bytes := allocsPer(20, func() { i++; s.rewrite(t, i) }, func() {
		if err := s.rep.Sync(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a sync of 256 changed pages: %d allocations, %d bytes", allocs, bytes)
	if allocs > 1500 || bytes > 1e6 && !raceDetector {
		t.Fatalf("a sync of 256 changed pages made %d allocations of %d bytes, gate 1 500 and 1 MB", allocs, bytes)
	}
}

// TestRestoreAllocsBounded: an eager restore of a 16 MiB image allocates
// fewer than 500 times (8 364 when every frame was its own allocation and the
// loader read each page into a window first).
func TestRestoreAllocsBounded(t *testing.T) {
	w := benchWorld(t)
	g, _ := restoreBenchApp(t, w, 0)
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	var booted *world
	allocs, _ := allocsPer(3, func() { booted = w.crash(t) }, func() {
		if _, _, err := booted.o.RestoreGroup("app", booted.store, RestoreFull, true); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("an eager restore of 16 MiB: %d allocations", allocs)
	if allocs >= 500 {
		t.Fatalf("an eager restore of 16 MiB made %d allocations, gate 500", allocs)
	}
}
