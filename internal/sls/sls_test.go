package sls

import (
	"testing"
	"time"

	"aurora/internal/clock"
	"aurora/internal/device"
	"aurora/internal/kern"
	"aurora/internal/mem"
	"aurora/internal/objstore"
	"aurora/internal/slsfs"
	"aurora/internal/vm"
)

// world is a full simulated machine.
type world struct {
	clk   *clock.Virtual
	costs *clock.Costs
	dev   *device.Stripe
	store *objstore.Store
	fs    *slsfs.FS
	k     *kern.Kernel
	o     *Orchestrator
}

func newWorld(t *testing.T) *world {
	t.Helper()
	clk := clock.NewVirtual()
	costs := clock.DefaultCosts()
	dev := device.NewStripe(clk, costs, 4, 64<<10, 1<<30)
	store, err := objstore.Format(dev, clk, costs)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := slsfs.Format(store, clk, costs)
	if err != nil {
		t.Fatal(err)
	}
	vmsys := vm.NewSystem(mem.New(0), clk, costs)
	k := kern.New(clk, costs, vmsys, fs)
	return &world{clk: clk, costs: costs, dev: dev, store: store, fs: fs, k: k, o: New(k, store)}
}

// crash simulates a machine crash + reboot: a fresh kernel over the same
// device, recovered through the store.
func (w *world) crash(t testing.TB) *world {
	t.Helper()
	store, err := objstore.Recover(w.dev, w.clk, w.costs)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := slsfs.Recover(store, w.clk, w.costs)
	if err != nil {
		t.Fatal(err)
	}
	vmsys := vm.NewSystem(mem.New(0), w.clk, w.costs)
	k := kern.New(w.clk, w.costs, vmsys, fs)
	return &world{clk: w.clk, costs: w.costs, dev: w.dev, store: store, fs: fs, k: k, o: New(k, store)}
}

func TestCheckpointRestoreMemory(t *testing.T) {
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
	p.WriteMem(va, []byte("persistent state"))
	p.WriteMem(va+8*vm.PageSize, []byte("far page"))
	p.MainThread().CPU.RIP = 0xDEADBEEF

	st, err := g.Checkpoint(CkptIncremental)
	if err != nil {
		t.Fatal(err)
	}
	if st.StopTime <= 0 || st.DirtyPages < 2 {
		t.Fatalf("stats: %+v", st)
	}

	// Crash the machine and restore.
	w2 := w.crash(t)
	g2, rst, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	if rst.Procs != 1 {
		t.Fatalf("restored procs = %d", rst.Procs)
	}
	procs := g2.Procs()
	if len(procs) != 1 {
		t.Fatalf("group procs = %d", len(procs))
	}
	rp := procs[0]
	if rp.LocalPID != p.LocalPID {
		t.Fatalf("local pid = %d, want %d", rp.LocalPID, p.LocalPID)
	}
	if rp.MainThread().CPU.RIP != 0xDEADBEEF {
		t.Fatalf("CPU state lost: RIP=%#x", rp.MainThread().CPU.RIP)
	}
	got := make([]byte, 16)
	if err := rp.ReadMem(va, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "persistent state" {
		t.Fatalf("memory = %q", got)
	}
	rp.ReadMem(va+8*vm.PageSize, got[:8])
	if string(got[:8]) != "far page" {
		t.Fatalf("far page = %q", got[:8])
	}
}

func TestIncrementalCheckpointsCaptureOnlyDirty(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	va, _ := p.Mmap(4<<20, vm.ProtRead|vm.ProtWrite, false)
	// Touch 512 pages.
	for i := 0; i < 512; i++ {
		p.WriteMem(va+uint64(i)*vm.PageSize, []byte{1})
	}
	st1, err := g.Checkpoint(CkptIncremental)
	if err != nil {
		t.Fatal(err)
	}
	if st1.DirtyPages != 512 {
		t.Fatalf("first checkpoint dirty = %d, want 512", st1.DirtyPages)
	}
	// Touch 3 pages; the next checkpoint must capture only those.
	for i := 0; i < 3; i++ {
		p.WriteMem(va+uint64(i*100)*vm.PageSize, []byte{2})
	}
	st2, err := g.Checkpoint(CkptIncremental)
	if err != nil {
		t.Fatal(err)
	}
	if st2.DirtyPages != 3 {
		t.Fatalf("second checkpoint dirty = %d, want 3", st2.DirtyPages)
	}
	if st2.FlushBytes != 3*vm.PageSize {
		t.Fatalf("flush bytes = %d, want %d", st2.FlushBytes, 3*vm.PageSize)
	}
	// And the checkpoint stop time shrinks with the dirty set.
	if st2.StopTime >= st1.StopTime {
		t.Fatalf("incremental stop %v >= first stop %v", st2.StopTime, st1.StopTime)
	}
}

func TestShadowChainBounded(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	va, _ := p.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)
	for i := 0; i < 20; i++ {
		p.WriteMem(va, []byte{byte(i)})
		if _, err := g.Checkpoint(CkptIncremental); err != nil {
			t.Fatal(err)
		}
	}
	ent, _ := p.Mem.EntryAt(va)
	if got := ent.Obj.ChainLength(); got > 3 {
		t.Fatalf("chain length after 20 checkpoints = %d, want <= 3", got)
	}
	// Data still correct.
	b := make([]byte, 1)
	p.ReadMem(va, b)
	if b[0] != 19 {
		t.Fatalf("data = %d", b[0])
	}
}

func TestRestoreSharedDescriptions(t *testing.T) {
	// Fork-shared offsets must still be shared after restore; independent
	// opens must stay independent.
	w := newWorld(t)
	parent := w.k.NewProc("parent")
	g := w.o.CreateGroup("app")
	g.Attach(parent)
	fd, _ := parent.Open("/data", kern.ORead|kern.OWrite, true)
	parent.Write(fd, []byte("0123456789"))
	parent.Lseek(fd, 0)
	child := parent.Fork()
	other := w.k.NewProc("other")
	g.Attach(other)
	ofd, _ := other.Open("/data", kern.ORead, false)
	_ = ofd

	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}

	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	var rparent, rchild, rother *kern.Proc
	for _, p := range g2.Procs() {
		switch p.LocalPID {
		case parent.LocalPID:
			rparent = p
		case child.LocalPID:
			rchild = p
		case other.LocalPID:
			rother = p
		}
	}
	if rparent == nil || rchild == nil || rother == nil {
		t.Fatal("missing restored process")
	}
	// Parent reads 4 bytes; child must continue at the shared offset.
	buf := make([]byte, 4)
	rparent.Read(fd, buf)
	rchild.Read(fd, buf)
	if string(buf) != "4567" {
		t.Fatalf("child read %q, want 4567 (shared offset lost)", buf)
	}
	// The independent open starts at its own offset.
	rother.Read(0, buf) // other's fd 0
	if string(buf) != "0123" {
		t.Fatalf("other read %q, want 0123", buf)
	}
	// Parent/child relationship restored.
	if rchild.Parent() != rparent {
		t.Fatal("process tree lost")
	}
}

func TestRestorePipeWithBufferedData(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	rfd, wfd, _ := p.Pipe()
	p.Write(wfd, []byte("in flight"))
	g.Checkpoint(CkptIncremental)

	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	rp := g2.Procs()[0]
	buf := make([]byte, 16)
	n, err := rp.Read(rfd, buf)
	if err != nil || string(buf[:n]) != "in flight" {
		t.Fatalf("pipe after restore: %q err=%v", buf[:n], err)
	}
	// The pipe is live: write through the restored write end.
	if _, err := rp.Write(wfd, []byte("more")); err != nil {
		t.Fatal(err)
	}
	n, _ = rp.Read(rfd, buf)
	if string(buf[:n]) != "more" {
		t.Fatalf("restored pipe write: %q", buf[:n])
	}
}

func TestRestoreSocketsAndAcceptQueueDropped(t *testing.T) {
	w := newWorld(t)
	srv := w.k.NewProc("server")
	cli := w.k.NewProc("client")
	g := w.o.CreateGroup("app")
	g.Attach(srv)
	g.Attach(cli)

	lfd, _ := srv.Socket(kern.KindSocketTCP)
	srv.Bind(lfd, "10.0.0.1:80")
	srv.Listen(lfd)
	cfd, _ := cli.Socket(kern.KindSocketTCP)
	cli.Bind(cfd, "10.0.0.2:999")
	cli.Connect(cfd, "10.0.0.1:80")
	afd, _ := srv.Accept(lfd)
	cli.Write(cfd, []byte("buffered request"))

	// A second, un-accepted connection sits in the accept queue.
	cfd2, _ := cli.Socket(kern.KindSocketTCP)
	cli.Bind(cfd2, "10.0.0.2:1000")
	cli.Connect(cfd2, "10.0.0.1:80")
	if srv.AcceptQueueLen(lfd) != 1 {
		t.Fatal("setup: accept queue empty")
	}

	g.Checkpoint(CkptIncremental)
	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	var rsrv, rcli *kern.Proc
	for _, p := range g2.Procs() {
		if p.LocalPID == srv.LocalPID {
			rsrv = p
		} else if p.LocalPID == cli.LocalPID {
			rcli = p
		}
	}
	// Established connection survives with its buffered bytes.
	buf := make([]byte, 32)
	n, err := rsrv.Read(afd, buf)
	if err != nil || string(buf[:n]) != "buffered request" {
		t.Fatalf("restored established conn: %q err=%v", buf[:n], err)
	}
	// Bidirectional.
	rsrv.Write(afd, []byte("resp"))
	n, _ = rcli.Read(cfd, buf)
	if string(buf[:n]) != "resp" {
		t.Fatalf("reverse direction: %q", buf[:n])
	}
	// The accept queue was omitted: the pending connection is gone, as
	// if the SYN was dropped (§5.3).
	if got := rsrv.AcceptQueueLen(lfd); got != 0 {
		t.Fatalf("accept queue after restore = %d, want 0", got)
	}
	// The listening socket still accepts new connections (client retry).
	cfd3, _ := rcli.Socket(kern.KindSocketTCP)
	rcli.Bind(cfd3, "10.0.0.2:1001")
	if err := rcli.Connect(cfd3, "10.0.0.1:80"); err != nil {
		t.Fatalf("reconnect after restore: %v", err)
	}
}

func TestRestoreUnixSocketWithInFlightFD(t *testing.T) {
	// A descriptor sitting inside a socket buffer at checkpoint time must
	// be chased and restored (§5.3 control messages).
	w := newWorld(t)
	a := w.k.NewProc("a")
	b := w.k.NewProc("b")
	g := w.o.CreateGroup("app")
	g.Attach(a)
	g.Attach(b)

	lfd, _ := a.Socket(kern.KindSocketUnix)
	a.Bind(lfd, "/sock")
	a.Listen(lfd)
	cfd, _ := b.Socket(kern.KindSocketUnix)
	b.Connect(cfd, "/sock")
	afd, _ := a.Accept(lfd)
	_ = afd

	ffd, _ := b.Open("/passed", kern.ORead|kern.OWrite, true)
	b.Write(ffd, []byte("contents"))
	b.Lseek(ffd, 0)
	b.SendFDs(cfd, []byte("ctl"), []int{ffd})
	// NOT received yet: it is in flight inside the buffer.

	g.Checkpoint(CkptIncremental)
	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	var ra *kern.Proc
	for _, p := range g2.Procs() {
		if p.LocalPID == a.LocalPID {
			ra = p
		}
	}
	buf := make([]byte, 8)
	n, fds, err := ra.RecvFDs(afd, buf)
	if err != nil || string(buf[:n]) != "ctl" || len(fds) != 1 {
		t.Fatalf("recv after restore: %q fds=%v err=%v", buf[:n], fds, err)
	}
	m := make([]byte, 8)
	ra.Read(fds[0], m)
	if string(m) != "contents" {
		t.Fatalf("in-flight fd content %q", m)
	}
}

func TestRestoreSharedMemory(t *testing.T) {
	w := newWorld(t)
	a := w.k.NewProc("a")
	b := w.k.NewProc("b")
	g := w.o.CreateGroup("app")
	g.Attach(a)
	g.Attach(b)
	afd, _ := a.ShmOpen("/seg", 1<<20)
	bfd, _ := b.ShmOpen("/seg", 1<<20)
	vaA, _ := a.MmapShm(afd, vm.ProtRead|vm.ProtWrite)
	vaB, _ := b.MmapShm(bfd, vm.ProtRead|vm.ProtWrite)
	a.WriteMem(vaA, []byte("shared state"))

	g.Checkpoint(CkptIncremental)
	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	var ra, rb *kern.Proc
	for _, p := range g2.Procs() {
		if p.LocalPID == a.LocalPID {
			ra = p
		} else {
			rb = p
		}
	}
	got := make([]byte, 12)
	rb.ReadMem(vaB, got)
	if string(got) != "shared state" {
		t.Fatalf("b's view after restore: %q", got)
	}
	// Sharing is still live: a writes, b sees it.
	ra.WriteMem(vaA, []byte("UPDATED STATE"))
	rb.ReadMem(vaB, got)
	if string(got[:7]) != "UPDATED" {
		t.Fatalf("sharing broken after restore: %q", got)
	}
}

func TestPIDVirtualization(t *testing.T) {
	// Restored processes keep their local PIDs even when the kernel has
	// since handed those global PIDs to others (§5.3).
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	g.Checkpoint(CkptIncremental)

	w2 := w.crash(t)
	// Occupy the PID space before restoring.
	squatter := w2.k.NewProc("squatter")
	if squatter.GlobalPID != p.GlobalPID {
		t.Fatalf("test setup: squatter pid %d != %d", squatter.GlobalPID, p.GlobalPID)
	}
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	rp := g2.Procs()[0]
	if rp.LocalPID != p.LocalPID {
		t.Fatalf("local pid = %d, want %d", rp.LocalPID, p.LocalPID)
	}
	if rp.GlobalPID == squatter.GlobalPID {
		t.Fatal("global pid collides with running process")
	}
	// Signals route by local pid within the group.
	sender := g2.Procs()[0]
	if err := sender.Kill(p.LocalPID, kern.SIGUSR1); err != nil {
		t.Fatal(err)
	}
}

func TestEphemeralChildSIGCHLD(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("parent")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	worker := p.Fork()
	g.Detach(worker) // ephemeral: not persisted
	g.Checkpoint(CkptIncremental)

	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Procs()) != 1 {
		t.Fatalf("restored %d procs, want 1 (worker was ephemeral)", len(g2.Procs()))
	}
	rp := g2.Procs()[0]
	// Parent sees SIGCHLD as if the worker exited unexpectedly, plus the
	// restore notification.
	sigs := map[kern.Signal]bool{}
	for i := 0; i < 3; i++ {
		sigs[rp.PollSignal()] = true
	}
	if !sigs[kern.SIGCHLD] {
		t.Fatal("no SIGCHLD for ephemeral child")
	}
	if !sigs[kern.SIGRESTORE] {
		t.Fatal("no restore notification signal")
	}
}

func TestRestoreFromHistoryView(t *testing.T) {
	// Time travel: restore an older named checkpoint.
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	va, _ := p.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)
	p.WriteMem(va, []byte("v1"))
	st1, _ := g.Checkpoint(CkptIncremental)
	p.WriteMem(va, []byte("v2"))
	g.Checkpoint(CkptIncremental)

	view, err := w.store.RestoreView(st1.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := w.o.RestoreGroup("app", view, RestoreFull, false)
	if err != nil {
		t.Fatal(err)
	}
	rp := g2.Procs()[0]
	got := make([]byte, 2)
	rp.ReadMem(va, got)
	if string(got) != "v1" {
		t.Fatalf("historical restore = %q, want v1", got)
	}
}

func TestLazyRestoreFaultsOnDemand(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	va, _ := p.Mmap(16<<20, vm.ProtRead|vm.ProtWrite, false)
	for i := 0; i < 1024; i++ {
		p.WriteMem(va+uint64(i)*vm.PageSize, []byte{byte(i)})
	}
	g.Checkpoint(CkptIncremental)

	w2 := w.crash(t)
	gFull, stFull, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	_ = gFull

	w3 := w.crash(t)
	gLazy, stLazy, err := w3.o.RestoreGroup("app", w3.store, RestoreLazy, true)
	if err != nil {
		t.Fatal(err)
	}
	if stLazy.PagesEager != 0 {
		t.Fatalf("lazy restore loaded %d pages eagerly", stLazy.PagesEager)
	}
	if stFull.PagesEager < 1024 {
		t.Fatalf("full restore loaded %d pages, want >= 1024", stFull.PagesEager)
	}
	if stLazy.Time >= stFull.Time {
		t.Fatalf("lazy restore (%v) not faster than full (%v)", stLazy.Time, stFull.Time)
	}
	// Lazy pages fault in correctly on access.
	rp := gLazy.Procs()[0]
	got := make([]byte, 1)
	rp.ReadMem(va+999*vm.PageSize, got)
	if got[0] != byte(999%256) {
		t.Fatalf("lazy fault-in = %d, want %d", got[0], byte(999%256))
	}
}

func TestExternalSynchrony(t *testing.T) {
	// A send from inside the group to the outside is withheld until the
	// covering checkpoint is durable.
	w := newWorld(t)
	app := w.k.NewProc("app")
	ext := w.k.NewProc("external") // not attached
	g := w.o.CreateGroup("app")
	g.Attach(app)

	efd, _ := ext.Socket(kern.KindSocketUDP)
	ext.Bind(efd, "10.0.0.9:1000")
	afd, _ := app.Socket(kern.KindSocketUDP)
	app.Bind(afd, "10.0.0.1:2000")

	if _, err := app.SendTo(afd, "10.0.0.9:1000", []byte("held")); err != nil {
		t.Fatal(err)
	}
	// Nothing delivered yet.
	if err := ext.SetFlags(efd, kern.ORead|kern.OWrite|kern.ONonblock); err != nil {
		t.Fatal(err)
	}
	if _, err := ext.Read(efd, make([]byte, 8)); err == nil {
		t.Fatal("message leaked before checkpoint (external synchrony broken)")
	}

	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil { // durable + release
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, err := ext.Read(efd, buf)
	if err != nil || string(buf[:n]) != "held" {
		t.Fatalf("after barrier: %q err=%v", buf[:n], err)
	}
}

func TestFdCtlDisablesES(t *testing.T) {
	w := newWorld(t)
	app := w.k.NewProc("app")
	ext := w.k.NewProc("external")
	g := w.o.CreateGroup("app")
	g.Attach(app)
	efd, _ := ext.Socket(kern.KindSocketUDP)
	ext.Bind(efd, "10.0.0.9:1000")
	afd, _ := app.Socket(kern.KindSocketUDP)
	app.Bind(afd, "10.0.0.1:2000")
	if err := g.FdCtl(app, afd, true); err != nil {
		t.Fatal(err)
	}
	app.SendTo(afd, "10.0.0.9:1000", []byte("fast"))
	buf := make([]byte, 8)
	n, err := ext.Read(efd, buf)
	if err != nil || string(buf[:n]) != "fast" {
		t.Fatalf("ES-disabled send not immediate: %q err=%v", buf[:n], err)
	}
}

func TestMemCkptAtomicRegion(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	va, _ := p.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)
	p.WriteMem(va, []byte("atomic"))
	// A full checkpoint first (the base image).
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	p.WriteMem(va, []byte("ATOMIC"))
	mst, err := g.MemCkpt(p, va)
	if err != nil {
		t.Fatal(err)
	}
	if mst.Pages < 1 {
		t.Fatalf("memckpt pages = %d", mst.Pages)
	}
	// The atomic checkpoint is cheaper than a full one.
	fst, err := g.Checkpoint(CkptIncremental)
	if err != nil {
		t.Fatal(err)
	}
	if mst.StopTime >= fst.StopTime {
		t.Fatalf("memckpt stop %v >= full stop %v", mst.StopTime, fst.StopTime)
	}
	// Commit and restore: the atomic region's content composes in.
	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	g2.Procs()[0].ReadMem(va, got)
	if string(got) != "ATOMIC" {
		t.Fatalf("after memckpt restore: %q", got)
	}
}

func TestJournalAPIAcrossCrash(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("db")
	g := w.o.CreateGroup("db")
	g.Attach(p)
	j, err := g.Journal("wal", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	g.Checkpoint(CkptIncremental) // journal name persists in group record
	j.Append([]byte("put k1 v1"))
	j.Append([]byte("put k2 v2"))

	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("db", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := g2.OpenJournal("wal")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := j2.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || string(entries[0].Payload) != "put k1 v1" {
		t.Fatalf("journal replay = %v", entries)
	}
}

func TestMCtlExcludesRegion(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	keep, _ := p.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)
	scratch, _ := p.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)
	if err := g.MCtl(p, scratch, true); err != nil {
		t.Fatal(err)
	}
	p.WriteMem(keep, []byte("keep"))
	p.WriteMem(scratch, []byte("scratch"))
	st, err := g.Checkpoint(CkptIncremental)
	if err != nil {
		t.Fatal(err)
	}
	if st.DirtyPages != 1 {
		t.Fatalf("dirty pages = %d, want 1 (scratch excluded)", st.DirtyPages)
	}
	// No byte of the excluded region reaches the store: after restore the
	// region exists (geometry preserved) but reads zero, while the kept
	// region has its content.
	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	rp := g2.Procs()[0]
	got := make([]byte, 7)
	if err := rp.ReadMem(scratch, got); err != nil {
		t.Fatalf("excluded region unmapped after restore: %v", err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("excluded region byte %d = %x, want 0 (content must not persist)", i, b)
		}
	}
	rp.ReadMem(keep, got[:4])
	if string(got[:4]) != "keep" {
		t.Fatalf("kept region = %q", got[:4])
	}
}

func TestVDSOReinjectedOnRestore(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	if err := p.MapVDSO(); err != nil {
		t.Fatal(err)
	}
	g.Checkpoint(CkptIncremental)

	w2 := w.crash(t)
	w2.k.VDSOVersion = "aurora-2" // the kernel was upgraded
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	rp := g2.Procs()[0]
	buf := make([]byte, 8)
	rp.ReadMem(kern.VDSOBase, buf)
	if string(buf) != "aurora-2" {
		t.Fatalf("vdso content %q, want the NEW kernel's", buf)
	}
}

func TestAnonymousFileSurvivesCrash(t *testing.T) {
	// End-to-end: an unlinked-but-open file held only by a checkpointed
	// process survives the crash and is readable after restore.
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	fd, _ := p.Open("/tmp/anon", kern.ORead|kern.OWrite, true)
	p.Write(fd, []byte("tempdata"))
	p.Unlink("/tmp/anon")
	g.Checkpoint(CkptIncremental)

	w2 := w.crash(t)
	if w2.fs.Exists("/tmp/anon") {
		t.Fatal("unlinked path resurrected")
	}
	g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	rp := g2.Procs()[0]
	rp.Lseek(fd, 0)
	buf := make([]byte, 8)
	if _, err := rp.Read(fd, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "tempdata" {
		t.Fatalf("anonymous file content %q", buf)
	}
}

func TestContinuousCheckpointingIsIncremental(t *testing.T) {
	// Checkpointing 100x/sec on a mostly-idle app must not rewrite the
	// whole image every time.
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	va, _ := p.Mmap(64<<20, vm.ProtRead|vm.ProtWrite, false)
	for i := 0; i < 4096; i++ {
		p.WriteMem(va+uint64(i)*vm.PageSize, []byte{1})
	}
	g.Checkpoint(CkptIncremental)
	dataBefore := w.store.Stats().DataBytes
	for i := 0; i < 10; i++ {
		p.WriteMem(va, []byte{byte(i)}) // one dirty page per interval
		if _, err := g.Checkpoint(CkptIncremental); err != nil {
			t.Fatal(err)
		}
	}
	written := w.store.Stats().DataBytes - dataBefore
	if written > 20*vm.PageSize {
		t.Fatalf("10 idle checkpoints wrote %d data bytes (not incremental)", written)
	}
}

func TestTable5StopTimeShape(t *testing.T) {
	// Stop time scales with the dirty set and sits in the paper's range:
	// ~185us floor, ~6ms at 1 GiB (Table 5).
	w := newWorld(t)
	p := w.k.NewProc("bench")
	g := w.o.CreateGroup("bench")
	g.Attach(p)
	va, _ := p.Mmap(1<<30, vm.ProtRead|vm.ProtWrite, false)
	page := make([]byte, vm.PageSize)

	dirty := func(n int64) {
		for i := int64(0); i < n; i++ {
			p.WriteMem(va+uint64(i)*vm.PageSize, page)
		}
	}
	// Warm up: first checkpoint is the full image.
	dirty(1)
	g.Checkpoint(CkptIncremental)

	measure := func(pages int64) time.Duration {
		dirty(pages)
		st, err := g.Checkpoint(CkptIncremental)
		if err != nil {
			t.Fatal(err)
		}
		if st.DirtyPages != pages {
			t.Fatalf("dirty = %d, want %d", st.DirtyPages, pages)
		}
		return st.StopTime
	}
	small := measure(1)                 // 4 KiB
	large := measure((64 << 20) / 4096) // 64 MiB
	if small < 150*time.Microsecond || small > 260*time.Microsecond {
		t.Errorf("4 KiB stop time = %v, want ~185us", small)
	}
	if large < 400*time.Microsecond || large > 900*time.Microsecond {
		t.Errorf("64 MiB stop time = %v, want ~600us", large)
	}
	if large <= small {
		t.Errorf("stop time not scaling: small=%v large=%v", small, large)
	}
}
