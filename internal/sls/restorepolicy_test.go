package sls

// The restore-policy battery: RestoreSpeculative's lifecycle (every object
// first, then the one page loader, all before RestoreGroup returns),
// RestoreGroups as a plain loop, and bit rot planted at exact device offsets
// over faultdev (crashprop_test.go's faultWorld), found by scanning for a
// marker page. A rotted page fails the loader or the faulting access with an
// error naming the object and the page, and a restore refused that way leaves
// nothing behind that a retry would trip over.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"aurora/internal/clock"
	"aurora/internal/faultdev"
	"aurora/internal/kern"
	"aurora/internal/mem"
	"aurora/internal/objstore"
	"aurora/internal/trace"
	"aurora/internal/vm"
)

func TestSpeculativeRestoreLifecycle(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	va, err := p.Mmap(32*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	for pg := int64(0); pg < 10; pg++ {
		p.WriteMem(va+uint64(pg)*vm.PageSize, []byte{byte(pg + 1)})
	}
	if _, err := g.Checkpoint(CkptFull); err != nil {
		t.Fatal(err)
	}

	w2 := w.crash(t)
	g2, rst, err := w2.o.RestoreGroup("app", w2.store, RestoreSpeculative, true)
	if err != nil {
		t.Fatal(err)
	}
	// TimeToFirstOp and PagesValidated are zero in the other modes.
	if rst.TimeToFirstOp <= 0 || rst.TimeToFirstOp >= rst.Time {
		t.Fatalf("time-to-first-op %v not below the restore's %v", rst.TimeToFirstOp, rst.Time)
	}
	if rst.PagesValidated != 10 || rst.PagesEager != 0 || rst.Rollbacks != 0 {
		t.Fatalf("stats: %+v", rst)
	}

	// The loader ran before the restore returned: every committed page is
	// resident and reads back without a fault.
	rp := g2.Procs()[0]
	buf := make([]byte, 1)
	for pg := int64(0); pg < 10; pg++ {
		if err := rp.ReadMem(va+uint64(pg)*vm.PageSize, buf); err != nil {
			t.Fatalf("read page %d: %v", pg, err)
		}
		if buf[0] != byte(pg+1) {
			t.Fatalf("page %d = %#x, want %#x", pg, buf[0], byte(pg+1))
		}
	}
	if faults, _ := g2.LazyPageIns(); faults != 0 {
		t.Fatalf("%d page(s) faulted in after the loader ran", faults)
	}
	if _, err := g2.Checkpoint(CkptIncremental); err != nil {
		t.Fatalf("checkpoint after the restore: %v", err)
	}
}

// TestRestoreGroupsSpeculativeFanOut: RestoreGroups restores each group in
// turn, and under RestoreSpeculative each group's loader has run by the time
// the call returns.
func TestRestoreGroupsSpeculativeFanOut(t *testing.T) {
	w := newWorld(t)
	names := []string{"g0", "g1", "g2"}
	vas := make([]uint64, len(names))
	for i, name := range names {
		p := w.k.NewProc(name)
		g := w.o.CreateGroup(name)
		if err := g.Attach(p); err != nil {
			t.Fatal(err)
		}
		va, err := p.Mmap(8*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
		if err != nil {
			t.Fatal(err)
		}
		vas[i] = va
		for pg := int64(0); pg < 4; pg++ {
			p.WriteMem(va+uint64(pg)*vm.PageSize, []byte{byte(16*i + int(pg) + 1)})
		}
		if _, err := g.Checkpoint(CkptFull); err != nil {
			t.Fatal(err)
		}
	}

	w2 := w.crash(t)
	gs, sts, err := w2.o.RestoreGroups(names, w2.store, RestoreSpeculative, true)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	for i, g := range gs {
		if sts[i].Rollbacks != 0 || sts[i].PagesValidated != 4 {
			t.Fatalf("group %s stats: %+v", names[i], sts[i])
		}
		if sts[i].TimeToFirstOp <= 0 || sts[i].TimeToFirstOp >= sts[i].Time {
			t.Fatalf("group %s time-to-first-op %v not below total %v",
				names[i], sts[i].TimeToFirstOp, sts[i].Time)
		}
		rp := g.Procs()[0]
		for pg := int64(0); pg < 4; pg++ {
			if err := rp.ReadMem(vas[i]+uint64(pg)*vm.PageSize, buf); err != nil {
				t.Fatal(err)
			}
			if want := byte(16*i + int(pg) + 1); buf[0] != want {
				t.Fatalf("group %s page %d = %#x, want %#x", names[i], pg, buf[0], want)
			}
		}
	}
}

// rotImage is setupSpecImage's commit: an arena whose page 0 starts with a
// unique marker, so a test can find that page's device offset and rot it,
// beside a file the application never synced. Group checkpoints do not write
// the file system's namespace, so the file's name dies with the crash and its
// restored description is all that holds it.
type rotImage struct {
	w      *faultWorld
	va     uint64
	marker []byte
	file   int   // the unsynced file's descriptor
	off    int64 // the marker page on the device
}

const unsyncedBody = "never synced, held by its description"

func setupSpecImage(t *testing.T) rotImage {
	t.Helper()
	w, err := newFaultWorld(faultdev.Plan{CutAtSubmit: -1})
	if err != nil {
		t.Fatal(err)
	}
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Period = 0
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	va, err := p.Mmap(8*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	marker := []byte("spec-rot-target-page-0xA5A5C3C3")
	p.WriteMem(va, marker)
	p.WriteMem(va+1*vm.PageSize, []byte{0x11})
	p.WriteMem(va+2*vm.PageSize, []byte{0x22})
	file, err := p.Open("/unsynced", kern.ORead|kern.OWrite, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(file, []byte(unsyncedBody)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Checkpoint(CkptFull); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
	off, found := findOnDevice(w.fd, marker)
	if !found {
		t.Fatal("marker page not found on device")
	}
	return rotImage{w: w, va: va, marker: marker, file: file, off: off}
}

// rebootFault builds a fresh kernel over the recovered store, as after a
// reboot. Recovery is read-only, so it can repeat on the same device.
func rebootFault(t *testing.T, w *faultWorld) *faultWorld {
	t.Helper()
	w.fd.Reopen()
	w2, err := w.recovered()
	if err != nil {
		t.Fatal(err)
	}
	return w2
}

// findOnDevice scans the raw device for a byte pattern (committed pages
// are stored as raw blocks, so the marker is findable verbatim).
func findOnDevice(fd interface {
	Size() int64
	PeekAt(p []byte, off int64)
}, marker []byte) (int64, bool) {
	const chunk = 1 << 20
	size := fd.Size()
	buf := make([]byte, chunk+len(marker)-1)
	for off := int64(0); off < size; off += chunk {
		n := size - off
		if n > int64(len(buf)) {
			n = int64(len(buf))
		}
		fd.PeekAt(buf[:n], off)
		if i := bytes.Index(buf[:n], marker); i >= 0 {
			return off + int64(i), true
		}
	}
	return 0, false
}

// arenaOID is the store object of setupSpecImage's arena: the one whose
// page 1 holds 0x11. It reads page 1, so the decay on page 0 may be armed.
func arenaOID(t *testing.T, s *objstore.Store) objstore.OID {
	t.Helper()
	page := make([]byte, vm.PageSize)
	for _, oid := range s.Objects() {
		if ut, _ := s.UType(oid); ut != UTMemObject {
			continue
		}
		if found, err := s.ReadPage(oid, 1, page); err == nil && found && page[0] == 0x11 {
			return oid
		}
	}
	t.Fatal("no arena object in the store")
	return 0
}

// requireRot: err is the store refusing page pg of oid.
func requireRot(t *testing.T, err error, oid objstore.OID, pg int64) {
	t.Helper()
	if want := fmt.Sprintf("oid %d page %d", oid, pg); !errors.Is(err, objstore.ErrPageSum) || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want %v naming %q", err, objstore.ErrPageSum, want)
	}
}

// TestSpeculativeFaultTimeCheck: a page that leaves memory after a
// speculative restore comes back through the store pager, which refuses it if
// its block has rotted since — the access fails naming the object and the
// page, and clean pages keep faulting around the damage.
func TestSpeculativeFaultTimeCheck(t *testing.T) {
	img := setupSpecImage(t)
	w2 := rebootFault(t, img.w)
	g, _, err := w2.o.RestoreGroup("app", w2.store, RestoreSpeculative, true)
	if err != nil {
		t.Fatal(err)
	}
	if st := g.Evict(100); st.Evicted < 3 {
		t.Fatalf("eviction after the restore: %+v", st)
	}
	w2.fd.Arm(faultdev.Plan{CutAtSubmit: -1, RotOffsets: []int64{img.off + 11}})
	rp := g.Procs()[0]
	buf := make([]byte, len(img.marker))
	requireRot(t, rp.ReadMem(img.va, buf), arenaOID(t, w2.store), 0)
	if err := rp.ReadMem(img.va+vm.PageSize, buf[:1]); err != nil || buf[0] != 0x11 {
		t.Fatalf("clean page 1 = %#x, err %v", buf[0], err)
	}
}

// TestSpeculativeRollbackOnBitRot: decay under the loader fails the
// speculative restore, naming the object and the page, and the restore rolls
// back through its teardown: no group stays registered, and the file the
// application never synced — which only the torn-down description held —
// stays in the store. Once the decay clears, a plain retry restores the
// clean image, the file included.
func TestSpeculativeRollbackOnBitRot(t *testing.T) {
	img := setupSpecImage(t)
	w2 := rebootFault(t, img.w)
	w2.fd.Arm(faultdev.Plan{CutAtSubmit: -1, RotOffsets: []int64{img.off + 7}})
	_, st, err := w2.o.RestoreGroup("app", w2.store, RestoreSpeculative, true)
	requireRot(t, err, arenaOID(t, w2.store), 0)
	if st.Rollbacks != 0 {
		t.Fatalf("rollbacks = %d, want 0", st.Rollbacks)
	}
	if _, ok := w2.o.GroupByName("app"); ok {
		t.Fatal("the refused restore left its group registered")
	}

	w2.fd.Arm(faultdev.Plan{CutAtSubmit: -1})
	g, _, err := w2.o.RestoreGroup("app", w2.store, RestoreSpeculative, true)
	if err != nil {
		t.Fatalf("retry after the decay cleared: %v", err)
	}
	rp := g.Procs()[0]
	buf := make([]byte, len(img.marker))
	if err := rp.ReadMem(img.va, buf); err != nil || !bytes.Equal(buf, img.marker) {
		t.Fatalf("page 0 after the retry = %q, err %v", buf, err)
	}
	for pg, want := range map[int64]byte{1: 0x11, 2: 0x22} {
		if err := rp.ReadMem(img.va+uint64(pg)*vm.PageSize, buf[:1]); err != nil || buf[0] != want {
			t.Fatalf("page %d after the retry = %#x, want %#x (err %v)", pg, buf[0], want, err)
		}
	}
	if _, err := rp.Lseek(img.file, 0); err != nil {
		t.Fatal(err)
	}
	body := make([]byte, len(unsyncedBody))
	if n, err := rp.Read(img.file, body); err != nil || string(body[:n]) != unsyncedBody {
		t.Fatalf("unsynced file after the retry = %q, err %v", body[:n], err)
	}
	if probs := w2.store.AuditLive(); len(probs) > 0 {
		t.Fatalf("AuditLive after the retry: %v", probs)
	}
}

// TestSpeculativePersistentRotFailsSerial keeps the decay armed: the
// speculative restore and a serial one after it refuse the image alike, so
// no restore "succeeds" with garbage.
func TestSpeculativePersistentRotFailsSerial(t *testing.T) {
	img := setupSpecImage(t)
	w2 := rebootFault(t, img.w)
	w2.fd.Arm(faultdev.Plan{CutAtSubmit: -1, RotOffsets: []int64{img.off + 3}})
	arena := arenaOID(t, w2.store)
	for _, mode := range []RestoreMode{RestoreSpeculative, RestoreFull} {
		g, _, err := w2.o.RestoreGroup("app", w2.store, mode, true)
		requireRot(t, err, arena, 0)
		if g != nil {
			t.Fatalf("%s restore handed back a group from a rotted image", restoreModeNames[mode])
		}
	}
}

// TestRotDoesNotCrossTheWire: a rotted block in the source store fails the
// replica sync and the migration that would ship it, naming the object and
// the page, instead of handing the standby whatever the block holds.
func TestRotDoesNotCrossTheWire(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		img := setupSpecImage(t)
		w := img.w
		arena := arenaOID(t, w.store)
		g, _ := w.o.GroupByName("app")
		rep, err := g.ReplicateTo(newWorld(t).o)
		if err != nil {
			t.Fatal(err)
		}
		// A page the next delta ships, rotted after its commit.
		marker := []byte("sync-rot-target-page-0x5A5A3C3C")
		if err := g.Procs()[0].WriteMem(img.va+vm.PageSize, marker); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Checkpoint(CkptIncremental); err != nil {
			t.Fatal(err)
		}
		if err := g.Barrier(); err != nil {
			t.Fatal(err)
		}
		off, found := findOnDevice(w.fd, marker)
		if !found {
			t.Fatal("delta page not found on device")
		}
		w.fd.Arm(faultdev.Plan{CutAtSubmit: -1, RotOffsets: []int64{off + 5}})
		requireRot(t, rep.Sync(), arena, 1)
	})
	t.Run("migrate", func(t *testing.T) {
		img := setupSpecImage(t)
		w := img.w
		arena := arenaOID(t, w.store)
		g, _ := w.o.GroupByName("app")
		dst := newWorld(t)
		w.fd.Arm(faultdev.Plan{CutAtSubmit: -1, RotOffsets: []int64{img.off + 5}})
		_, _, err := g.MigrateVia(dst.o, 1, nil, nil)
		requireRot(t, err, arena, 0)
		if len(g.Procs()) == 0 {
			t.Fatal("the refused migration took the source group down")
		}
		if _, ok := dst.o.GroupByName("app"); ok {
			t.Fatal("the refused migration landed a group on the destination")
		}
	})
}

// loaderProbe is the store a restore reads pages from and the clock it waits
// on, watched: done is the latest completion of every page read the restore
// queued; a stream that fails notes the clock and the frames the allocator
// has out (failedAt, heldAtFail), and the first advance of the clock to done
// after it notes the frames out then (heldAtDone).
type loaderProbe struct {
	*objstore.Store
	clock.Clock
	pm                     *mem.PhysMem
	done, failedAt         time.Duration
	heldAtFail, heldAtDone int64
}

func (p *loaderProbe) EachPageInto(oid objstore.OID, into func(int64) ([]byte, bool, error), fn func(int64, []byte) error) (int64, time.Duration, error) {
	n, done, err := p.Store.EachPageInto(oid, into, fn)
	p.done = max(p.done, done)
	if err != nil {
		p.failedAt, p.heldAtFail = p.Clock.Now(), p.pm.Used()
	}
	return n, done, err
}

func (p *loaderProbe) Advance(d time.Duration) {
	p.Clock.Advance(d)
	if p.heldAtFail > 0 && p.heldAtDone == 0 && p.Clock.Now() >= p.done {
		p.heldAtDone = p.pm.Used()
	}
}

// TestEagerRestoreOverlapsRebuild: an eager restore queues every page read
// and rebuilds the kernel objects while they are in flight, so it takes about
// as long as the longer of the two, not their sum. The image holds two memory
// objects and 500 descriptors. The restore span is tiled by its "rebuild" and
// "wait" children. A restore that fails on a rotted page of its last memory
// object still waits for every read it queued, and hands the frames it read
// into back to the allocator only after that wait.
func TestEagerRestoreOverlapsRebuild(t *testing.T) {
	const maps, pages = 2, 2048 // 16 MiB: the reads outlast the rebuild
	w, tr := tracedWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < maps; m++ {
		va, err := p.Mmap(pages*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
		if err != nil {
			t.Fatal(err)
		}
		for pg := 0; pg < pages; pg++ {
			if err := p.WriteMem(va+uint64(pg)*vm.PageSize, fmt.Appendf(nil, "map %d page %05d", m, pg)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 250; i++ {
		if _, _, err := p.Pipe(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Checkpoint(CkptFull); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
	groupOID, err := w.o.findGroupOID(w.store, "app")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := w.store.GetRecord(groupOID)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := decodeGroupRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	fds := 0
	p.FDs.Each(func(int, *kern.File) { fds++ })
	if len(gr.memMetas) < maps || fds < 500 {
		t.Fatalf("image holds %d memory objects and %d descriptors", len(gr.memMetas), fds)
	}

	restore := func(mode RestoreMode) RestoreStats {
		t.Helper()
		w2 := w.crash(t)
		retrace(w2, tr)
		_, st, err := w2.o.RestoreGroup("app", w2.store, mode, true)
		if err != nil {
			t.Fatal(err)
		}
		spans := spansNamed(tr.Events(), "restore")
		rs := spans[len(spans)-1]
		var rebuild, wait trace.Event
		for _, ev := range tr.Events() {
			if ev.Parent == rs.ID && ev.Name == "rebuild" {
				rebuild = ev
			} else if ev.Parent == rs.ID && ev.Name == "wait" {
				wait = ev
			}
		}
		if rebuild.Start != rs.Start || wait.Start != rebuild.Start+rebuild.Dur ||
			wait.Start+wait.Dur != rs.Start+rs.Dur || rs.Dur != st.Time {
			t.Fatalf("%s: restore [%v +%v] (time %v) is not tiled by rebuild [%v +%v] and wait [%v +%v]",
				restoreModeNames[mode], rs.Start, rs.Dur, st.Time, rebuild.Start, rebuild.Dur, wait.Start, wait.Dur)
		}
		if (wait.Dur > 0) != (mode == RestoreFull) {
			t.Fatalf("%s: wait span %v", restoreModeNames[mode], wait.Dur)
		}
		return st
	}
	full, lazy := restore(RestoreFull), restore(RestoreLazy)
	const members = 4 // newWorld's stripe
	stored := int64(maps * pages)
	device := time.Duration(stored*vm.PageSize*int64(time.Second)/(members*w.costs.DevReadBps)) + w.costs.DevReadLatency
	if full.PagesEager != stored || full.Time < device || full.Time < lazy.Time || full.Time > device+lazy.Time/2 {
		t.Fatalf("eager restore of %d pages took %v: want at least the reads' device time %v and the lazy restore's %v, "+
			"and well below their sum", full.PagesEager, full.Time, device, lazy.Time)
	}

	// Rot a page near the end of the memory object the loader reads last: its
	// stream fails with reads in flight and frames out.
	last, rot := gr.memMetas[len(gr.memMetas)-1].oid, int64(pages-8)
	page := make([]byte, vm.PageSize)
	if found, err := w.store.ReadPage(last, rot, page); err != nil || !found {
		t.Fatalf("page %d of oid %d: found %v, %v", rot, last, found, err)
	}
	off, found := findOnDevice(w.dev, page[:16])
	if !found {
		t.Fatal("the page to rot is not on the device")
	}
	w.dev.PokeAt([]byte{page[0] ^ 0xFF}, off)
	w4 := w.crash(t)
	probe := &loaderProbe{Store: w4.store, Clock: w4.o.Clk, pm: w4.k.VM.PM}
	w4.o.Clk = probe
	used := w4.k.VM.PM.Used()
	g4, _, err := w4.o.RestoreGroup("app", probe, RestoreFull, true)
	requireRot(t, err, last, rot)
	if g4 != nil {
		t.Fatal("a rotted image restored")
	}
	switch {
	case probe.failedAt >= probe.done:
		t.Fatalf("the reads were done (%v) when the stream failed (%v): nothing left to wait for", probe.done, probe.failedAt)
	case w4.clk.Now() < probe.done:
		t.Fatalf("the failed restore returned at %v, before its reads completed at %v", w4.clk.Now(), probe.done)
	case probe.heldAtFail <= used || probe.heldAtDone != probe.heldAtFail:
		t.Fatalf("frames out: %d before, %d when the stream failed, %d when the reads completed", used, probe.heldAtFail, probe.heldAtDone)
	case w4.k.VM.PM.Used() != used:
		t.Fatalf("the failed restore leaves %d frames out, had %d", w4.k.VM.PM.Used(), used)
	}
}
