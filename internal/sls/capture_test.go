package sls

// The generation gate: a checkpoint captures a kernel object only when its
// generation moved since the group's last commit. These tests pin what the
// gate skips, what it never skips, when it learns (finishCommit only), and
// that its oracle — Group.AuditCapture, the sls.capture rule — catches a
// mutation that forgot to bump, once per object family.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"aurora/internal/faultdev"
	"aurora/internal/flight"
	"aurora/internal/kern"
	"aurora/internal/mem"
	"aurora/internal/objstore"
	"aurora/internal/rec"
	"aurora/internal/trace"
	"aurora/internal/vm"
)

// captureViolations runs the oracle and returns what it reported.
func captureViolations(g *Group) []string {
	var out []string
	g.AuditCapture(func(oid objstore.OID, detail string) {
		out = append(out, fmt.Sprintf("object %d: %s", oid, detail))
	})
	return out
}

// behind is the object behind a description, without the auxiliary word.
func behind(f *kern.File) any {
	obj, _ := f.Behind()
	return obj
}

func fileOf(a *gateApp, fd int) *kern.File {
	f, _ := a.p.FDs.Get(fd)
	return f
}

func requireCaptureClean(t *testing.T, g *Group) {
	t.Helper()
	if v := captureViolations(g); len(v) > 0 {
		t.Fatalf("sls.capture: %d violation(s), first: %s", len(v), v[0])
	}
}

// gateApp is one process holding one of each gated family.
type gateApp struct {
	w                              *world
	p                              *kern.Proc
	g                              *Group
	file, pipeR, pipeW, udp, kq    int
	ptyM, ptyS, dev, gated, always int
}

func newGateApp(t *testing.T, w *world) *gateApp {
	t.Helper()
	a := &gateApp{w: w, p: w.k.NewProc("app"), g: w.o.CreateGroup("app")}
	if err := a.g.Attach(a.p); err != nil {
		t.Fatal(err)
	}
	p := a.p
	var err error
	fail := func() {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	a.file, err = p.Open("/f", kern.ORead|kern.OWrite, true)
	fail()
	_, err = p.Write(a.file, []byte("0123456789"))
	fail()
	a.pipeR, a.pipeW, err = p.Pipe()
	fail()
	a.udp, err = p.Socket(kern.KindSocketUDP)
	fail()
	err = p.Bind(a.udp, "10.0.0.1:53")
	fail()
	a.kq, err = p.Kqueue()
	fail()
	a.ptyM, a.ptyS, err = p.OpenPTY()
	fail()
	a.dev, err = p.OpenDevice(kern.DevNull)
	fail()
	_, err = p.ShmOpen("/seg", vm.PageSize)
	fail()
	// 9 descriptions over 5 gated objects (vnodes and shm segments are not
	// gated); proc, shm segment and group record are always captured.
	a.gated, a.always = 9+5, 3
	return a
}

func (a *gateApp) checkpoint(t *testing.T, kind CheckpointKind) CheckpointStats {
	t.Helper()
	st, err := a.g.Checkpoint(kind)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestCaptureFollowsWhatChanged(t *testing.T) {
	w := newWorld(t)
	a := newGateApp(t, w)
	first := a.checkpoint(t, CkptIncremental)
	if first.Captured != a.gated+a.always {
		t.Fatalf("first checkpoint captured %d records, want all %d", first.Captured, a.gated+a.always)
	}
	requireCaptureClean(t, a.g)

	// Nothing touched: only the always-captured families are serialized, the
	// cut is as large as before, and each skip costs nothing where a capture
	// cost at least SerializeBase.
	idle := a.checkpoint(t, CkptIncremental)
	if idle.Captured != a.always || idle.Objects != first.Objects {
		t.Fatalf("idle checkpoint: captured %d of %d (first cut had %d), want %d captured and the same cut",
			idle.Captured, idle.Objects, first.Objects, a.always)
	}
	saved := first.OSTime - idle.OSTime
	if min := a.gated * int(w.costs.SerializeBase); int(saved) < min {
		t.Fatalf("idle serialize %v against %v: saved %v, want at least %d skips x SerializeBase",
			idle.OSTime, first.OSTime, saved, a.gated)
	}

	// One write down the pipe: the pipe is captured again, its two
	// descriptions are not.
	if _, err := a.p.Write(a.pipeW, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if st := a.checkpoint(t, CkptWAL); st.Captured != a.always+1 {
		t.Fatalf("after one pipe write: captured %d, want %d", st.Captured, a.always+1)
	}

	// A mem-only checkpoint commits nothing, so it teaches the gate nothing:
	// the object it captured is captured again by the next committing one.
	if _, err := a.p.Lseek(a.file, 3); err != nil {
		t.Fatal(err)
	}
	if st := a.checkpoint(t, CkptMemOnly); st.Captured != a.always+1 {
		t.Fatalf("mem-only after lseek: captured %d, want %d", st.Captured, a.always+1)
	}
	if st := a.checkpoint(t, CkptIncremental); st.Captured != a.always+1 {
		t.Fatalf("commit after mem-only: captured %d, want %d (mem-only must promote nothing)", st.Captured, a.always+1)
	}

	// CkptFull opens the gate.
	if st := a.checkpoint(t, CkptFull); st.Captured != a.gated+a.always {
		t.Fatalf("full checkpoint captured %d, want all %d", st.Captured, a.gated+a.always)
	}

	// A vanished object drops out of the gate's memory with its OID.
	before := a.g.trusts()
	if err := a.p.Close(a.kq); err != nil {
		t.Fatal(err)
	}
	a.checkpoint(t, CkptIncremental)
	if got := a.g.trusts(); got != before-2 {
		t.Fatalf("after closing the kqueue the gate remembers %d objects, want %d", got, before-2)
	}
	requireCaptureClean(t, a.g)
	if err := a.g.Barrier(); err != nil {
		t.Fatal(err)
	}

	// A restored group trusts what restore just rebuilt from the store's own
	// records. Restore rebuilds a device without its OID (the first checkpoint
	// gives it a new one), so the device and its description re-encode
	// differently: those two are left out and captured, once.
	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g2.trusts(), before-2-2; got != want {
		t.Fatalf("restored group trusts %d records, want %d (every gated object but the device and its description)", got, want)
	}
	requireCaptureClean(t, g2)
	st, err := g2.Checkpoint(CkptIncremental)
	if err != nil {
		t.Fatal(err)
	}
	if st.Captured != a.always+2 {
		t.Fatalf("first checkpoint after restore captured %d of %d objects, want %d", st.Captured, st.Objects, a.always+2)
	}
	requireCaptureClean(t, g2)
	if st, err = g2.Checkpoint(CkptIncremental); err != nil || st.Captured != a.always {
		t.Fatalf("second checkpoint after restore captured %d (err %v), want %d", st.Captured, err, a.always)
	}
}

// connect gives the gate app what only a restore with every object already
// built can re-encode: a stream connection inside the group with a descriptor
// in flight in its buffer (peer and in-flight OIDs), and a connection to a
// listener outside the group, which restore severs (MarkDisconnected). The
// device goes: restore rebuilds it under a new OID, which the tail of
// TestCaptureFollowsWhatChanged covers. gated is counted by the first
// checkpoint.
func (a *gateApp) connect(t *testing.T) {
	t.Helper()
	p := a.p
	ext := a.w.k.NewProc("ext")
	efd, _ := ext.Socket(kern.KindSocketTCP)
	if err := errors.Join(ext.Bind(efd, "10.0.0.9:80"), ext.Listen(efd)); err != nil {
		t.Fatal(err)
	}
	tcp, _ := p.Socket(kern.KindSocketTCP)
	if err := errors.Join(p.Bind(tcp, "10.0.0.1:999"), p.Connect(tcp, "10.0.0.9:80")); err != nil {
		t.Fatal(err)
	}
	lfd, _ := p.Socket(kern.KindSocketUnix)
	if err := errors.Join(p.Bind(lfd, "/sock"), p.Listen(lfd)); err != nil {
		t.Fatal(err)
	}
	cfd, _ := p.Socket(kern.KindSocketUnix)
	if err := p.Connect(cfd, "/sock"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Accept(lfd); err != nil {
		t.Fatal(err)
	}
	passed, err := p.Open("/passed", kern.ORead|kern.OWrite, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(p.SendFDs(cfd, []byte("ctl"), []int{passed}), p.Close(passed), p.Close(a.dev)); err != nil {
		t.Fatal(err)
	}
	// No fs.Checkpoint: group checkpoints do not write the file system's
	// namespace record, so the crash loses both files' names and each lives
	// on the reference of its restored description alone.
	a.gated = a.checkpoint(t, CkptIncremental).Captured - a.always
	if err := a.g.Barrier(); err != nil {
		t.Fatal(err)
	}
}

// requirePrimed: g trusts exactly want records, the oracle agrees with every
// one of them before and after the first checkpoint, and that checkpoint
// captures only the always-captured objects and extra.
func requirePrimed(t *testing.T, g *Group, want, always, extra int) {
	t.Helper()
	if got := g.trusts(); got != want {
		t.Fatalf("restored group trusts %d records, want %d", got, want)
	}
	requireCaptureClean(t, g)
	st, err := g.Checkpoint(CkptIncremental)
	if err != nil {
		t.Fatal(err)
	}
	if st.Captured != always+extra {
		t.Fatalf("first checkpoint after restore captured %d of %d objects, want %d", st.Captured, st.Objects, always+extra)
	}
	requireCaptureClean(t, g)
}

// TestRestorePrimesTheGate: however a group comes back into the store it
// keeps checkpointing into — crash restore in each mode, a retry after a
// speculative restore that met a rotted page and rolled back, a failover —
// the gate starts with every gated record, and a historical restore starts
// with none.
func TestRestorePrimesTheGate(t *testing.T) {
	// restore crash-restores a in the given mode. With rotFirst, a first
	// attempt meets a page that fails its sum and rolls back through the
	// restore's teardown, which must leave the two unsynced files — held by
	// nothing but the descriptions it tears down — for the retry.
	restore := func(mode RestoreMode, rotFirst bool) func(*testing.T, *gateApp) *Group {
		return func(t *testing.T, a *gateApp) *Group {
			w2 := a.w.crash(t)
			if rotFirst {
				if _, _, err := w2.o.RestoreGroup("app", rotted{w2.store}, mode, true); !errors.Is(err, objstore.ErrPageSum) {
					t.Fatalf("restore over a rotted page = %v", err)
				}
			}
			tr := trace.New(w2.clk)
			w2.o.Tracer = tr
			g, _, err := w2.o.RestoreGroup("app", w2.store, mode, true)
			if err != nil {
				t.Fatal(err)
			}
			if got := tr.CounterValue("sls.capture.primed"); got != int64(a.gated) {
				t.Fatalf("sls.capture.primed = %d, want %d", got, a.gated)
			}
			return g
		}
	}
	for _, tc := range []struct {
		name string
		back func(*testing.T, *gateApp) *Group
	}{
		{"full", restore(RestoreFull, false)},
		{"lazy", restore(RestoreLazy, false)},
		{"speculative", restore(RestoreSpeculative, false)},
		{"speculative rolled back", restore(RestoreSpeculative, true)},
		{"failover", func(t *testing.T, a *gateApp) *Group {
			dst, err := newWorldE()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := a.g.ReplicateTo(dst.o)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.p.Lseek(a.file, 5); err != nil {
				t.Fatal(err)
			}
			if err := rep.Sync(); err != nil {
				t.Fatal(err)
			}
			g, _, err := rep.Failover(RestoreLazy)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newGateApp(t, newWorld(t))
			a.connect(t)
			requirePrimed(t, tc.back(t, a), a.gated, a.always, 0)
		})
	}

	t.Run("historical view", func(t *testing.T) {
		a := newGateApp(t, newWorld(t))
		a.connect(t)
		w2 := a.w.crash(t)
		view, err := w2.store.RestoreView(w2.store.Epoch())
		if err != nil {
			t.Fatal(err)
		}
		g, _, err := w2.o.RestoreGroup("app", view, RestoreFull, false)
		if err != nil {
			t.Fatal(err)
		}
		requirePrimed(t, g, 0, a.always, a.gated)
	})
}

// rotted is the store with every stored page failing its sum, as pages on a
// rotted device do.
type rotted struct{ *objstore.Store }

func (rotted) EachPageInto(oid objstore.OID, _ func(int64) ([]byte, bool, error), _ func(int64, []byte) error) (int64, time.Duration, error) {
	return 0, 0, fmt.Errorf("%w: oid %d page 0", objstore.ErrPageSum, oid)
}

// doctored is the store with one record swapped: what restore reads of oid
// is not what the store holds.
type doctored struct {
	*objstore.Store
	oid objstore.OID
	raw []byte
}

func (d doctored) GetRecord(oid objstore.OID) ([]byte, error) {
	if oid == d.oid {
		return d.raw, nil
	}
	return d.Store.GetRecord(oid)
}

// TestPrimeRefusesWhatDiffers: priming validates its speculation. A record
// whose bytes or type are not what the rebuilt object encodes to, and a record
// the store keeps in data blocks, are not trusted; the next checkpoint
// captures them and the store then agrees with the kernel.
func TestPrimeRefusesWhatDiffers(t *testing.T) {
	pipeOf := func(a *gateApp) objstore.OID {
		f, _ := a.p.FDs.Get(a.pipeW)
		pipe := behind(f).(*kern.Pipe)
		return a.g.oidOf(pipe)
	}
	for _, tc := range []struct {
		name string
		prep func(*gateApp)
		src  func(a *gateApp, w2 *world) Source
	}{
		{"bytes another writer left", nil, func(a *gateApp, w2 *world) Source {
			e := rec.NewEncoder()
			e.Bytes([]byte("clobbered"))
			e.U32(1)
			e.U32(1)
			return doctored{w2.store, pipeOf(a), e.Seal()}
		}},
		{"type tag", nil, func(a *gateApp, w2 *world) Source {
			raw, err := w2.store.GetRecord(pipeOf(a))
			if err != nil {
				t.Fatal(err)
			}
			if err := w2.store.PutRecord(pipeOf(a), UTKqueue, raw); err != nil {
				t.Fatal(err)
			}
			return w2.store
		}},
		{"paged record", func(a *gateApp) {
			a.p.Write(a.pipeW, make([]byte, objstore.InlineMax-12))
		}, func(_ *gateApp, w2 *world) Source { return w2.store }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newGateApp(t, newWorld(t))
			if tc.prep != nil {
				tc.prep(a)
			}
			a.connect(t)
			oid := pipeOf(a)
			w2 := a.w.crash(t)
			g, _, err := w2.o.RestoreGroup("app", tc.src(a, w2), RestoreFull, true)
			if err != nil {
				t.Fatal(err)
			}
			if _, trusted := g.trustedAt(oid); trusted {
				t.Fatal("the diverging pipe record was primed")
			}
			requirePrimed(t, g, a.gated-1, a.always, 1)
			f, _ := g.Procs()[0].FDs.Get(a.pipeW)
			pipe := behind(f).(*kern.Pipe)
			e := rec.NewEncoder()
			utype := g.encodeObject(e, pipe)
			got, _ := w2.store.GetRecord(oid)
			if ut, _ := w2.store.UType(oid); ut != utype || !bytes.Equal(got, e.Seal()) {
				t.Fatal("after the re-capture the store still disagrees with the kernel's pipe")
			}
		})
	}
}

// TestMutationAfterRestoreIsCaptured: a primed object is trusted at the
// generation restore left it at, so the first mutation of each family moves
// it off that and the next checkpoint captures it.
func TestMutationAfterRestoreIsCaptured(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(a *gateApp, p *kern.Proc) error
	}{
		{"file offset", func(a *gateApp, p *kern.Proc) error { _, err := p.Lseek(a.file, 7); return err }},
		{"pipe buffer", func(a *gateApp, p *kern.Proc) error { _, err := p.Write(a.pipeW, []byte("x")); return err }},
		{"socket sequence", func(a *gateApp, p *kern.Proc) error {
			_, err := p.SendTo(a.udp, "10.0.0.1:53", []byte("x")) // to itself: seq and queue
			return err
		}},
		{"kqueue add", func(a *gateApp, p *kern.Proc) error {
			return p.KeventAdd(a.kq, kern.Kevent{Ident: 9, Filter: kern.FilterUser})
		}},
		{"pty termios", func(a *gateApp, p *kern.Proc) error { return p.SetTermios(a.ptyS, [64]byte{0x1b}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newGateApp(t, newWorld(t))
			a.connect(t)
			w2 := a.w.crash(t)
			g, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.mutate(a, g.Procs()[0]); err != nil {
				t.Fatal(err)
			}
			requirePrimed(t, g, a.gated, a.always, 1)
		})
	}
}

// memObjectsIn counts the memory objects of g's cut: they are in Objects,
// their metadata rides in the group record, and they have no record to capture.
func memObjectsIn(g *Group) int {
	n := 0
	for key := range g.ents {
		if _, ok := key.(*vm.Object); ok {
			n++
		}
	}
	return n
}

// plantMissedBump performs a real mutation of obj and then leaves the gate in
// the state a mutation site that forgot to bump would: the generation the
// group trusts is the object's current one, while the store holds the record
// from before. It also requires the real site to have bumped, which is what
// keeps the state from arising on its own.
func plantMissedBump(t *testing.T, g *Group, obj generational, mutate func()) objstore.OID {
	t.Helper()
	oid := g.oidOf(obj)
	if oid == 0 {
		t.Fatalf("%T never checkpointed", obj)
	}
	before := obj.Generation()
	if gen, _ := g.trustedAt(oid); gen != before {
		t.Fatalf("%T: gate holds generation %d, object is at %d before the mutation", obj, gen, before)
	}
	mutate()
	if obj.Generation() == before {
		t.Fatalf("%T: the mutation did not move the generation", obj)
	}
	g.trust(obj)
	return oid
}

// TestPlantedMissingBumpIsCaught plants one missing bump per object family
// and requires the oracle to name exactly that object.
func TestPlantedMissingBumpIsCaught(t *testing.T) {
	cases := []struct {
		name  string
		plant func(t *testing.T, a *gateApp) objstore.OID
	}{
		{"file offset", func(t *testing.T, a *gateApp) objstore.OID {
			return plantMissedBump(t, a.g, fileOf(a, a.file), func() { a.p.Lseek(a.file, 7) })
		}},
		{"pipe buffer", func(t *testing.T, a *gateApp) objstore.OID {
			pipe := behind(fileOf(a, a.pipeW)).(*kern.Pipe)
			return plantMissedBump(t, a.g, pipe, func() { a.p.Write(a.pipeW, []byte("lost")) })
		}},
		{"socket recvQ through an ES-deferred delivery", func(t *testing.T, a *gateApp) objstore.OID {
			// The sender is in another group, so its send is held until that
			// group's next checkpoint is durable: the receiver's queue moves
			// then, under releaseES, long after the sending syscall returned
			// and after the receiver's group committed.
			q := a.w.k.NewProc("peer")
			peer := a.w.o.CreateGroup("peer")
			if err := peer.Attach(q); err != nil {
				t.Fatal(err)
			}
			qfd, _ := q.Socket(kern.KindSocketUDP)
			if _, err := q.SendTo(qfd, "10.0.0.1:53", []byte("deferred")); err != nil {
				t.Fatal(err)
			}
			a.checkpoint(t, CkptIncremental) // commits the receiver with an empty queue
			sk, _ := a.p.Sock(a.udp)
			return plantMissedBump(t, a.g, sk, func() {
				if _, err := peer.Checkpoint(CkptIncremental); err != nil {
					t.Fatal(err)
				}
				if err := peer.Barrier(); err != nil { // durable: the held send is delivered
					t.Fatal(err)
				}
				if len(sk.Messages()) != 1 {
					t.Fatalf("receiver holds %d messages after the release, want 1", len(sk.Messages()))
				}
			})
		}},
		{"kqueue add", func(t *testing.T, a *gateApp) objstore.OID {
			kq := behind(fileOf(a, a.kq)).(*kern.Kqueue)
			return plantMissedBump(t, a.g, kq, func() {
				a.p.KeventAdd(a.kq, kern.Kevent{Ident: 9, Filter: kern.FilterUser})
			})
		}},
		{"pty termios", func(t *testing.T, a *gateApp) objstore.OID {
			pty := behind(fileOf(a, a.ptyM)).(*kern.PTY)
			return plantMissedBump(t, a.g, pty, func() { a.p.SetTermios(a.ptyS, [64]byte{0x1b}) })
		}},
		{"pipe buffer in a record kept in data blocks", func(t *testing.T, a *gateApp) objstore.OID {
			// The gate never learns a record past InlineMax (see
			// TestPagedRecordIsNeverStaged), so one is planted in it: the
			// oracle must read the record back, find it equal while the
			// pipe is unchanged, and different once a write is missed.
			if _, err := a.p.Write(a.pipeW, make([]byte, objstore.InlineMax-12)); err != nil {
				t.Fatal(err)
			}
			a.checkpoint(t, CkptIncremental)
			pipe := behind(fileOf(a, a.pipeW)).(*kern.Pipe)
			oid := a.g.oidOf(pipe)
			stored, _ := a.w.store.GetRecord(oid)
			if ut, _ := a.w.store.UType(oid); len(stored) <= objstore.InlineMax || a.w.store.HoldsRecord(oid, ut, stored) {
				t.Fatalf("the pipe's %d-byte record is inline", len(stored))
			}
			a.g.trust(pipe)
			requireCaptureClean(t, a.g)
			return plantMissedBump(t, a.g, pipe, func() { a.p.Write(a.pipeW, []byte("lost")) })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := newGateApp(t, newWorld(t))
			a.checkpoint(t, CkptIncremental)
			requireCaptureClean(t, a.g)
			oid := tc.plant(t, a)
			got := captureViolations(a.g)
			if len(got) != 1 || !strings.HasPrefix(got[0], fmt.Sprintf("object %d:", oid)) {
				t.Fatalf("oracle reported %q, want exactly one violation, on object %d", got, oid)
			}
			// What the miss would have cost: the next checkpoint skips the
			// object, so the image keeps the stale record.
			stale, _ := a.w.store.GetRecord(oid)
			a.checkpoint(t, CkptIncremental)
			if now, _ := a.w.store.GetRecord(oid); !bytes.Equal(now, stale) {
				t.Fatal("the checkpoint captured the object anyway: the plant did not reach the gate")
			}
		})
	}
}

// TestDeferredDeliveryIsCaptured is the same ES-deferred sequence with
// nothing planted: the delivery bumps the receiver where its queue moves, the
// next checkpoint captures it, and the message is in the restored image.
func TestDeferredDeliveryIsCaptured(t *testing.T) {
	w := newWorld(t)
	a := newGateApp(t, w)
	q := w.k.NewProc("peer")
	peer := w.o.CreateGroup("peer")
	if err := peer.Attach(q); err != nil {
		t.Fatal(err)
	}
	qfd, _ := q.Socket(kern.KindSocketUDP)
	if _, err := q.SendTo(qfd, "10.0.0.1:53", []byte("deferred")); err != nil {
		t.Fatal(err)
	}
	a.checkpoint(t, CkptIncremental)
	if _, err := peer.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if err := peer.Barrier(); err != nil {
		t.Fatal(err)
	}
	requireCaptureClean(t, a.g)
	if st := a.checkpoint(t, CkptIncremental); st.Captured != a.always+1 {
		t.Fatalf("checkpoint after the release captured %d records, want %d", st.Captured, a.always+1)
	}
	if err := a.g.Barrier(); err != nil {
		t.Fatal(err)
	}
	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := g2.Procs()[0].Sock(a.udp)
	if err != nil {
		t.Fatal(err)
	}
	if msgs := sk.Messages(); len(msgs) != 1 || string(msgs[0].Data) != "deferred" {
		t.Fatalf("restored socket holds %v, want the deferred message", msgs)
	}
}

// TestPagedRecordIsNeverStaged: the store keeps a record inline when its
// sealed body — the encoding plus four bytes of CRC — is at most InlineMax, and
// spills it to data blocks beyond that. The gate must learn only inline
// records, because the oracle reads a record back and may touch no device. A
// pipe record is 12 bytes around the buffer, so 16 under InlineMax is the last
// buffer that stays inline; the two beyond it encode to at most InlineMax
// unsealed, which a guard on the unsealed length would have let through.
func TestPagedRecordIsNeverStaged(t *testing.T) {
	for _, tc := range []struct {
		buffered int
		staged   bool
	}{
		{objstore.InlineMax - 16, true},
		{objstore.InlineMax - 15, false},
		{objstore.InlineMax - 12, false},
	} {
		t.Run(fmt.Sprint(tc.buffered), func(t *testing.T) {
			a := newGateApp(t, newWorld(t))
			if n, err := a.p.Write(a.pipeW, make([]byte, tc.buffered)); err != nil || n != tc.buffered {
				t.Fatalf("pipe write: %d, %v", n, err)
			}
			a.checkpoint(t, CkptIncremental)
			f, _ := a.p.FDs.Get(a.pipeW)
			pipe := behind(f).(*kern.Pipe)
			if _, staged := a.g.trustedAt(a.g.oidOf(pipe)); staged != tc.staged {
				t.Fatalf("pipe holding %d bytes: in the gate = %v, want %v", tc.buffered, staged, tc.staged)
			}
			now := a.w.clk.Now()
			requireCaptureClean(t, a.g)
			if a.w.clk.Now() != now {
				t.Fatalf("the oracle advanced the clock by %v: it read a paged record from the device", a.w.clk.Now()-now)
			}
			// Never staged means always captured: idle, it is serialized again.
			want := a.always
			if !tc.staged {
				want++
			}
			if st := a.checkpoint(t, CkptIncremental); st.Captured != want {
				t.Fatalf("idle checkpoint captured %d records, want %d", st.Captured, want)
			}
		})
	}
}

// TestFailedCommitPromotesNothing: the checkpoint that failed had already
// serialized the changed object and staged its generation; because only
// finishCommit promotes, the retry captures it again and the image it commits
// holds the change.
func TestFailedCommitPromotesNothing(t *testing.T) {
	var fd *failOnceDev
	w, err := newWorldOn(func(d objstore.BlockDev) objstore.BlockDev {
		fd = &failOnceDev{BlockDev: d}
		return fd
	})
	if err != nil {
		t.Fatal(err)
	}
	a := newGateApp(t, w)
	va, err := a.p.Mmap(4*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	a.checkpoint(t, CkptIncremental)

	if _, err := a.p.Write(a.pipeW, []byte("survives the failed commit")); err != nil {
		t.Fatal(err)
	}
	a.p.WriteMem(va, []byte{1}) // a dirty page, so the flush has something to fail on
	pipe := behind(fileOf(a, a.pipeW)).(*kern.Pipe)
	trusted, _ := a.g.trustedAt(a.g.oidOf(pipe))

	fd.armed = true
	failed, err := a.g.Checkpoint(CkptIncremental)
	if !errors.Is(err, errFlushFailed) {
		t.Fatalf("checkpoint over a failing device = %v, want the device's error", err)
	}
	if failed.Captured != a.always+1 {
		t.Fatalf("failed checkpoint captured %d records, want %d", failed.Captured, a.always+1)
	}
	if got, _ := a.g.trustedAt(a.g.oidOf(pipe)); got != trusted || got == pipe.Generation() {
		t.Fatalf("failed commit moved the gate: pipe trusted at %d (was %d), object at %d", got, trusted, pipe.Generation())
	}
	requireCaptureClean(t, a.g)

	if st := a.checkpoint(t, CkptIncremental); st.Captured != a.always+1 {
		t.Fatalf("retry captured %d records, want %d: it must re-capture what the failed one staged", st.Captured, a.always+1)
	}
	requireCaptureClean(t, a.g)
	if err := a.g.Barrier(); err != nil {
		t.Fatal(err)
	}
	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := g2.Procs()[0].Read(a.pipeR, buf)
	if err != nil || string(buf[:n]) != "survives the failed commit" {
		t.Fatalf("restored pipe holds %q (err %v)", buf[:n], err)
	}
}

// TestFailedCheckpointStaysOnTimeline: a checkpoint that fails — here on a
// faultdev power cut at its first flush write — still ends every span it
// opened, with the error, so the timeline shows it and no recorded span names
// a parent that is missing; the flight ring closes the begin with ckpt.fail.
// A failure inside the barrier also reopens the kernel.
func TestFailedCheckpointStaysOnTimeline(t *testing.T) {
	w, err := newFaultWorld(faultdev.Plan{CutAtSubmit: -1})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(w.clk)
	fl := flight.NewRecorder(0)
	w.store.SetTracer(tr)
	w.store.SetFlight(fl)
	w.o.Tracer = tr
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	va, err := p.Mmap(8*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	p.WriteMem(va, []byte{1})
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}

	check := func(wantOpen string, ckpts int) {
		t.Helper()
		evs := tr.Events()
		ids := map[uint64]bool{}
		for _, e := range evs {
			if e.Kind == trace.KindSpan {
				ids[e.ID] = true
			}
		}
		for _, e := range evs {
			if e.Kind == trace.KindSpan && e.Parent != 0 && !ids[e.Parent] {
				t.Errorf("span %q (id %d) names parent %d, which never ended", e.Name, e.ID, e.Parent)
			}
		}
		errOf := func(e trace.Event) string {
			for _, a := range e.Args {
				if a.Key == "err" {
					return fmt.Sprint(a.Value())
				}
			}
			return ""
		}
		all := spansNamed(evs, "checkpoint")
		if len(all) != ckpts {
			t.Fatalf("%d checkpoint spans on the timeline, want %d", len(all), ckpts)
		}
		last := all[len(all)-1]
		if errOf(last) == "" {
			t.Errorf("failed checkpoint span carries no err arg: %+v", last.Args)
		}
		inner := spansNamed(evs, wantOpen)
		if got := inner[len(inner)-1]; errOf(got) == "" || (got.Parent != last.ID && wantOpen == "flush") {
			t.Errorf("%s span of the failed checkpoint: parent %d (checkpoint %d), args %+v", wantOpen, got.Parent, last.ID, got.Args)
		}
		var begins, ends, fails int
		for _, e := range fl.Events() {
			switch e.Kind {
			case flight.EvCheckpointBegin:
				begins++
			case flight.EvCheckpointEnd:
				ends++
			case flight.EvCheckpointFail:
				fails++
				if !strings.Contains(e.Detail, "app") {
					t.Errorf("ckpt.fail detail %q does not name the group", e.Detail)
				}
			}
		}
		if begins != ends+fails || fails != ckpts-1 {
			t.Errorf("flight ring: %d begins, %d ends, %d fails (want %d fails)", begins, ends, fails, ckpts-1)
		}
	}

	// Outside the barrier: the flush's first write is the cut.
	p.WriteMem(va+vm.PageSize, []byte{2})
	w.fd.Arm(faultdev.Plan{CutAtSubmit: w.fd.Submits()})
	if _, err := g.Checkpoint(CkptIncremental); err == nil || !w.fd.Crashed() {
		t.Fatalf("checkpoint over a cut device: err %v, crashed %v", err, w.fd.Crashed())
	}
	check("flush", 2)
	stops := spansNamed(tr.Events(), "stop")
	if len(stops) != 2 {
		t.Fatalf("%d stop spans, want 2: the failed checkpoint's barrier completed", len(stops))
	}

	// Inside the barrier: a mapping the serializer refuses.
	obj := w.k.VM.NewPagedObject(vm.Device, vm.PageSize, anonymousDevice{})
	if _, err := p.Mem.Map(obj, 0, vm.PageSize, vm.ProtRead, true); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Checkpoint(CkptIncremental); err == nil {
		t.Fatal("checkpoint of an unnamed device mapping succeeded")
	}
	check("serialize", 3)
	if w.k.Gate.Stopped() {
		t.Fatal("kernel still quiesced after a checkpoint that failed inside the barrier")
	}
}

// anonymousDevice is a device pager with no name: the serializer cannot
// persist a mapping of it.
type anonymousDevice struct{}

func (anonymousDevice) PageIn(int64, *mem.Page) error { return nil }
func (anonymousDevice) BackingOID() uint64            { return 0 }

// TestFdCtlRacesNoSender: sls_fdctl flips the flag a concurrent sender's
// syscall reads and the serializer records. Before it went through the kernel
// lock this was a data race (run with -race); now every interleaving is a
// sequence of syscalls, and whatever the flag ends as is what the image holds.
func TestFdCtlRacesNoSender(t *testing.T) {
	w := newWorld(t)
	a := newGateApp(t, w)
	ext := w.k.NewProc("ext")
	efd, _ := ext.Socket(kern.KindSocketUDP)
	if err := ext.Bind(efd, "10.0.0.9:9"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := a.p.SendTo(a.udp, "10.0.0.9:9", []byte("x")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if err := a.g.FdCtl(a.p, a.udp, i%2 == 0); err != nil {
			t.Fatal(err)
		}
		a.checkpoint(t, CkptIncremental)
	}
	wg.Wait()
	if err := a.g.FdCtl(a.p, a.udp, true); err != nil {
		t.Fatal(err)
	}
	a.checkpoint(t, CkptIncremental)
	requireCaptureClean(t, a.g)
	if err := a.g.Barrier(); err != nil {
		t.Fatal(err)
	}
	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	if sk, _ := g2.Procs()[0].Sock(a.udp); !sk.ESDisabled() || sk.Seq() != 200 {
		t.Fatalf("restored socket: ESDisabled=%v Seq=%d, want true and 200", sk.ESDisabled(), sk.Seq())
	}
}
