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

	"aurora/internal/faultdev"
	"aurora/internal/kern"
	"aurora/internal/objstore"
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
	if rst.Mode != RestoreSpeculative {
		t.Fatalf("stats mode=%v", rst.Mode)
	}
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
func findOnDevice(fd *faultdev.Dev, marker []byte) (int64, bool) {
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
