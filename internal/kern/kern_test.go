package kern

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"aurora/internal/clock"
	"aurora/internal/device"
	"aurora/internal/mem"
	"aurora/internal/objstore"
	"aurora/internal/slsfs"
	"aurora/internal/vm"
)

func newKernel(t *testing.T) *Kernel {
	t.Helper()
	clk := clock.NewVirtual()
	costs := clock.DefaultCosts()
	dev := device.NewStripe(clk, costs, 4, 64<<10, 512<<20)
	store, err := objstore.Format(dev, clk, costs)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := slsfs.Format(store, clk, costs)
	if err != nil {
		t.Fatal(err)
	}
	vmsys := vm.NewSystem(mem.New(0), clk, costs)
	return New(clk, costs, vmsys, fs)
}

func TestForkSharesOpenFileDescription(t *testing.T) {
	// §5.1's example: fork shares the file descriptor, so one process's
	// read moves the other's offset.
	k := newKernel(t)
	p := k.NewProc("parent")
	fd, err := p.Open("/shared", ORead|OWrite, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(fd, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	p.Lseek(fd, 0)

	c := p.Fork()
	buf := make([]byte, 4)
	if _, err := p.Read(fd, buf); err != nil {
		t.Fatal(err)
	}
	// The child reads from the SHARED offset: it must see "4567".
	if _, err := c.Read(fd, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "4567" {
		t.Fatalf("child read %q, want \"4567\" (shared offset)", buf)
	}
}

func TestIndependentOpensShareVnodeNotOffset(t *testing.T) {
	// The third process of §5.1: same vnode, independent offset.
	k := newKernel(t)
	p := k.NewProc("writer")
	fd, _ := p.Open("/file", ORead|OWrite, true)
	p.Write(fd, []byte("0123456789"))

	q := k.NewProc("reader")
	qfd, err := q.Open("/file", ORead, false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	q.Read(qfd, buf)
	if string(buf) != "0123" {
		t.Fatalf("independent open read %q, want \"0123\"", buf)
	}
	// Writer's offset (10) is untouched by reader's read.
	f, _ := p.FDs.Get(fd)
	if f.Offset() != 10 {
		t.Fatalf("writer offset = %d, want 10", f.Offset())
	}
}

func TestDupSharesDescription(t *testing.T) {
	k := newKernel(t)
	p := k.NewProc("p")
	fd, _ := p.Open("/f", ORead|OWrite, true)
	p.Write(fd, []byte("abcdef"))
	p.Lseek(fd, 0)
	dup, err := p.Dup(fd)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	p.Read(fd, buf)
	p.Read(dup, buf)
	if string(buf) != "def" {
		t.Fatalf("dup read %q, want \"def\"", buf)
	}
}

func TestPipeBlockingRoundTrip(t *testing.T) {
	k := newKernel(t)
	p := k.NewProc("p")
	rfd, wfd, err := p.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan string, 1)
	go func() {
		buf := make([]byte, 16)
		n, err := p.Read(rfd, buf) // blocks until write
		if err != nil {
			done <- "err:" + err.Error()
			return
		}
		done <- string(buf[:n])
	}()
	time.Sleep(5 * time.Millisecond) // let the reader block
	if _, err := p.Write(wfd, []byte("through the pipe")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-done:
		if got != "through the pipe" {
			t.Fatalf("read %q", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked reader never woke")
	}
}

func TestPipeEOFAndEPIPE(t *testing.T) {
	k := newKernel(t)
	p := k.NewProc("p")
	rfd, wfd, _ := p.Pipe()
	p.Write(wfd, []byte("tail"))
	p.Close(wfd)
	buf := make([]byte, 16)
	n, err := p.Read(rfd, buf)
	if err != nil || n != 4 {
		t.Fatalf("read residual: n=%d err=%v", n, err)
	}
	n, err = p.Read(rfd, buf)
	if err != nil || n != 0 {
		t.Fatalf("EOF read: n=%d err=%v", n, err)
	}
	// EPIPE on write after reader closes.
	rfd2, wfd2, _ := p.Pipe()
	p.Close(rfd2)
	if _, err := p.Write(wfd2, []byte("x")); !errors.Is(err, ErrPipeClosed) {
		t.Fatalf("write to closed pipe: %v", err)
	}
}

func TestPipeNonblock(t *testing.T) {
	k := newKernel(t)
	p := k.NewProc("p")
	rfd, _, _ := p.Pipe()
	if err := p.SetFlags(rfd, ORead|ONonblock); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(rfd, make([]byte, 4)); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("nonblocking empty read: %v", err)
	}
}

func TestQuiesceInterruptsAndRestartsSleepers(t *testing.T) {
	// A blocked read must transparently survive a quiesce: no EINTR, the
	// syscall restarts and completes after resume.
	k := newKernel(t)
	p := k.NewProc("p")
	rfd, wfd, _ := p.Pipe()
	got := make(chan string, 1)
	go func() {
		buf := make([]byte, 16)
		n, err := p.Read(rfd, buf)
		if err != nil {
			got <- "err:" + err.Error()
			return
		}
		got <- string(buf[:n])
	}()
	time.Sleep(5 * time.Millisecond) // reader blocks
	k.Quiesce()                      // forces the sleeper to the boundary
	select {
	case s := <-got:
		t.Fatalf("reader returned during quiesce: %q", s)
	case <-time.After(20 * time.Millisecond):
	}
	k.Resume()
	if _, err := p.Write(wfd, []byte("after resume")); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "after resume" {
			t.Fatalf("restarted read got %q", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("restarted read never completed")
	}
}

func TestQuiesceBlocksNewSyscallsAndMemoryWrites(t *testing.T) {
	k := newKernel(t)
	p := k.NewProc("p")
	va, err := p.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	k.Quiesce()
	done := make(chan struct{})
	go func() {
		p.WriteMem(va, []byte("mutation")) // must block while quiesced
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("memory write proceeded during quiesce")
	case <-time.After(20 * time.Millisecond):
	}
	k.Resume()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("memory write never completed after resume")
	}
}

func TestForkExitWait(t *testing.T) {
	k := newKernel(t)
	p := k.NewProc("parent")
	c := p.Fork()
	if c.LocalPID == p.LocalPID {
		t.Fatal("child shares pid")
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		c.Exit(42)
	}()
	pid, status, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if pid != c.LocalPID || status != 42 {
		t.Fatalf("wait = (%d,%d), want (%d,42)", pid, status, c.LocalPID)
	}
	if sig := p.PollSignal(); sig != SIGCHLD {
		t.Fatalf("parent signal = %v, want SIGCHLD", sig)
	}
	if _, _, err := p.Wait(); !errors.Is(err, ErrNoChildren) {
		t.Fatalf("second wait: %v", err)
	}
}

func TestSignalRoutingByLocalPID(t *testing.T) {
	k := newKernel(t)
	a := k.NewProc("a")
	b := k.NewProc("b")
	if err := a.Kill(b.LocalPID, SIGUSR1); err != nil {
		t.Fatal(err)
	}
	if sig := b.PollSignal(); sig != SIGUSR1 {
		t.Fatalf("b signal = %v", sig)
	}
	if err := a.Kill(9999, SIGUSR1); !errors.Is(err, ErrNoProc) {
		t.Fatalf("kill of missing pid: %v", err)
	}
}

func TestProcessGroupSignal(t *testing.T) {
	k := newKernel(t)
	leader := k.NewProc("leader")
	leader.Setsid()
	w1 := leader.Fork()
	w2 := leader.Fork()
	w1.Setpgid(leader.LocalPID)
	w2.Setpgid(leader.LocalPID)
	if err := leader.Kill(-leader.LocalPID, SIGTERM); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Proc{leader, w1, w2} {
		if sig := p.PollSignal(); sig != SIGTERM {
			t.Fatalf("%s signal = %v, want SIGTERM", p.Name, sig)
		}
	}
}

func TestSessionIds(t *testing.T) {
	k := newKernel(t)
	p := k.NewProc("p")
	sid := p.Setsid()
	if sid != p.LocalPID || p.PGID != p.LocalPID {
		t.Fatalf("setsid: sid=%d pgid=%d pid=%d", sid, p.PGID, p.LocalPID)
	}
	c := p.Fork()
	if c.SID != p.SID {
		t.Fatal("child did not inherit session")
	}
	c.Setpgid(0)
	if c.PGID != c.LocalPID {
		t.Fatalf("setpgid(0): pgid=%d", c.PGID)
	}
}

func TestUnixSocketFDPassing(t *testing.T) {
	k := newKernel(t)
	srv := k.NewProc("server")
	cli := k.NewProc("client")

	lfd, _ := srv.Socket(KindSocketUnix)
	if err := srv.Bind(lfd, "/tmp/sock"); err != nil {
		t.Fatal(err)
	}
	srv.Listen(lfd)

	cfd, _ := cli.Socket(KindSocketUnix)
	if err := cli.Connect(cfd, "/tmp/sock"); err != nil {
		t.Fatal(err)
	}
	afd, err := srv.Accept(lfd)
	if err != nil {
		t.Fatal(err)
	}

	// Client opens a file, writes, and passes the descriptor.
	ffd, _ := cli.Open("/passed", ORead|OWrite, true)
	cli.Write(ffd, []byte("fd-passing"))
	cli.Lseek(ffd, 0)
	if err := cli.SendFDs(cfd, []byte("take this"), []int{ffd}); err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, 32)
	n, fds, err := srv.RecvFDs(afd, buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "take this" || len(fds) != 1 {
		t.Fatalf("recv %q, fds=%v", buf[:n], fds)
	}
	// The passed descriptor shares the description (offset included).
	m := make([]byte, 10)
	if _, err := srv.Read(fds[0], m); err != nil {
		t.Fatal(err)
	}
	if string(m) != "fd-passing" {
		t.Fatalf("via passed fd read %q", m)
	}
}

func TestTCPConnectSendRecv(t *testing.T) {
	k := newKernel(t)
	srv := k.NewProc("server")
	cli := k.NewProc("client")
	lfd, _ := srv.Socket(KindSocketTCP)
	srv.Bind(lfd, "10.0.0.1:80")
	srv.Listen(lfd)
	cfd, _ := cli.Socket(KindSocketTCP)
	cli.Bind(cfd, "10.0.0.2:5555")
	if err := cli.Connect(cfd, "10.0.0.1:80"); err != nil {
		t.Fatal(err)
	}
	afd, _ := srv.Accept(lfd)
	cli.Write(cfd, []byte("GET /"))
	buf := make([]byte, 5)
	n, err := srv.Read(afd, buf)
	if err != nil || string(buf[:n]) != "GET /" {
		t.Fatalf("server read %q err=%v", buf[:n], err)
	}
	// Stream semantics: partial reads keep the remainder.
	srv.Write(afd, []byte("RESPONSE"))
	small := make([]byte, 3)
	cli.Read(cfd, small)
	cli.Read(cfd, small)
	if string(small) != "PON" {
		t.Fatalf("second partial read %q, want \"PON\"", small)
	}
	// Sequence numbers advanced.
	cs, _ := cli.Sock(cfd)
	if cs.Seq() != 5 {
		t.Fatalf("client seq = %d, want 5", cs.Seq())
	}
}

func TestUDPSendTo(t *testing.T) {
	k := newKernel(t)
	a := k.NewProc("a")
	b := k.NewProc("b")
	afd, _ := a.Socket(KindSocketUDP)
	a.Bind(afd, "10.0.0.1:53")
	bfd, _ := b.Socket(KindSocketUDP)
	b.Bind(bfd, "10.0.0.2:5353")
	if _, err := b.SendTo(bfd, "10.0.0.1:53", []byte("query")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := a.Read(afd, buf)
	if err != nil || string(buf[:n]) != "query" {
		t.Fatalf("udp recv %q err=%v", buf[:n], err)
	}
}

func TestPosixShmSharedBetweenProcesses(t *testing.T) {
	k := newKernel(t)
	a := k.NewProc("a")
	b := k.NewProc("b")
	afd, err := a.ShmOpen("/seg", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	bfd, err := b.ShmOpen("/seg", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	vaA, err := a.MmapShm(afd, vm.ProtRead|vm.ProtWrite)
	if err != nil {
		t.Fatal(err)
	}
	vaB, err := b.MmapShm(bfd, vm.ProtRead|vm.ProtWrite)
	if err != nil {
		t.Fatal(err)
	}
	a.WriteMem(vaA, []byte("cross-process"))
	got := make([]byte, 13)
	b.ReadMem(vaB, got)
	if string(got) != "cross-process" {
		t.Fatalf("shm read %q", got)
	}
}

func TestSysVShm(t *testing.T) {
	k := newKernel(t)
	a := k.NewProc("a")
	b := k.NewProc("b")
	id, err := a.ShmGet(0x1234, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	id2, _ := b.ShmGet(0x1234, 1<<20)
	if id != id2 {
		t.Fatalf("shmget same key gave %d and %d", id, id2)
	}
	vaA, _ := a.ShmAt(id, vm.ProtRead|vm.ProtWrite)
	vaB, _ := b.ShmAt(id, vm.ProtRead|vm.ProtWrite)
	a.WriteMem(vaA, []byte("sysv"))
	got := make([]byte, 4)
	b.ReadMem(vaB, got)
	if string(got) != "sysv" {
		t.Fatalf("sysv shm read %q", got)
	}
	if err := a.ShmRm(id); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ShmAt(id, vm.ProtRead); err == nil {
		t.Fatal("attach after IPC_RMID succeeded")
	}
}

func TestShmBackrefFollowsSystemShadow(t *testing.T) {
	// After a system shadow, NEW mappings of a segment must share with
	// existing ones — the backmap of §6.
	k := newKernel(t)
	a := k.NewProc("a")
	afd, _ := a.ShmOpen("/seg", 1<<20)
	vaA, _ := a.MmapShm(afd, vm.ProtRead|vm.ProtWrite)
	a.WriteMem(vaA, []byte("v1"))

	k.Quiesce()
	var refs []vm.BackRef
	for _, seg := range k.ShmSegments() {
		refs = append(refs, seg)
	}
	vm.SystemShadow(k.VM, []*vm.Map{a.Mem}, refs)
	k.Resume()

	b := k.NewProc("b")
	bfd, _ := b.ShmOpen("/seg", 1<<20)
	vaB, _ := b.MmapShm(bfd, vm.ProtRead|vm.ProtWrite)
	a.WriteMem(vaA, []byte("v2"))
	got := make([]byte, 2)
	b.ReadMem(vaB, got)
	if string(got) != "v2" {
		t.Fatalf("new mapping after shadow read %q, want v2", got)
	}
}

func TestKqueue(t *testing.T) {
	k := newKernel(t)
	p := k.NewProc("p")
	kq, err := p.Kqueue()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1024; i++ {
		if err := p.KeventAdd(kq, Kevent{Ident: uint64(i), Filter: FilterUser}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.KeventTrigger(kq, 77); err != nil {
		t.Fatal(err)
	}
	out := make([]Kevent, 4)
	n, err := p.KeventWait(kq, out)
	if err != nil || n != 1 || out[0].Ident != 77 {
		t.Fatalf("kevent wait: n=%d ev=%v err=%v", n, out[0], err)
	}
}

func TestPTY(t *testing.T) {
	k := newKernel(t)
	p := k.NewProc("term")
	mfd, sfd, err := p.OpenPTY()
	if err != nil {
		t.Fatal(err)
	}
	p.Write(mfd, []byte("ls -la\n"))
	buf := make([]byte, 16)
	n, _ := p.Read(sfd, buf)
	if string(buf[:n]) != "ls -la\n" {
		t.Fatalf("slave read %q", buf[:n])
	}
	p.Write(sfd, []byte("total 0\n"))
	n, _ = p.Read(mfd, buf)
	if string(buf[:n]) != "total 0\n" {
		t.Fatalf("master read %q", buf[:n])
	}
}

func TestDeviceWhitelist(t *testing.T) {
	k := newKernel(t)
	p := k.NewProc("p")
	if _, err := p.OpenDevice("random-unsupported"); err == nil {
		t.Fatal("non-whitelisted device opened")
	}
	fd, err := p.OpenDevice(DevHPET)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := p.Read(fd, buf); err != nil {
		t.Fatal(err)
	}
	va, err := p.MapDevice(DevHPET)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ReadMem(va, buf); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteMem(va, buf); err == nil {
		t.Fatal("wrote to read-only HPET mapping")
	}
}

func TestVDSO(t *testing.T) {
	k := newKernel(t)
	p := k.NewProc("p")
	if err := p.MapVDSO(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(k.VDSOVersion))
	if err := p.ReadMem(VDSOBase, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != k.VDSOVersion {
		t.Fatalf("vdso content %q", buf)
	}
}

func TestAIO(t *testing.T) {
	k := newKernel(t)
	p := k.NewProc("p")
	fd, _ := p.Open("/aio", ORead|OWrite, true)
	id, err := p.AioSubmit(AIOWrite, fd, 0, []byte("async write"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.InFlightAIOs()) != 1 {
		t.Fatal("AIO not tracked")
	}
	if err := p.AioWait(id); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 11)
	rid, _ := p.AioSubmit(AIORead, fd, 0, buf)
	p.AioWait(rid)
	if string(buf) != "async write" {
		t.Fatalf("aio read %q", buf)
	}
}

// TestFsync: fsync of a vnode descriptor succeeds for the cost of the
// syscall alone (the checkpoint, not fsync, makes a file durable); any other
// descriptor is ErrInvalid.
func TestFsync(t *testing.T) {
	k := newKernel(t)
	p := k.NewProc("p")
	fd, err := p.Open("/fsync", ORead|OWrite, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(fd, []byte("unsynced")); err != nil {
		t.Fatal(err)
	}
	before := k.Clk.Now()
	if err := p.Fsync(fd); err != nil {
		t.Fatalf("fsync of a vnode: %v", err)
	}
	if got := k.Clk.Now() - before; got != k.Costs.SyscallGate {
		t.Fatalf("fsync of a vnode took %v, want one syscall gate (%v)", got, k.Costs.SyscallGate)
	}
	rfd, _, err := p.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Fsync(rfd); !errors.Is(err, ErrInvalid) {
		t.Fatalf("fsync of a pipe = %v, want ErrInvalid", err)
	}
}

// TestNegativeOffsetsAreRefused: a negative page or byte offset is an error
// at every store entry point and at the descriptor calls that hand one down
// (lseek and aio, EINVAL), never a panic. The store calls run against an
// inline object and a paged one.
func TestNegativeOffsetsAreRefused(t *testing.T) {
	clk := clock.NewVirtual()
	store, err := objstore.Format(device.New(clk, clock.DefaultCosts(), 64<<20), clk, clock.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	const inline, paged = objstore.OID(1), objstore.OID(2)
	page := make([]byte, objstore.BlockSize)
	if err := store.PutRecord(inline, 1, []byte("inline")); err != nil {
		t.Fatal(err)
	}
	store.Ensure(paged, 1)
	if err := store.WritePage(paged, 0, page); err != nil {
		t.Fatal(err)
	}
	k := newKernel(t)
	p := k.NewProc("p")
	fd, err := p.Open("/f", ORead|OWrite, true)
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		name string
		call func() error
	}
	var rows []row
	for _, oid := range []objstore.OID{inline, paged} {
		rows = append(rows,
			row{fmt.Sprintf("ReadPage oid %d", oid), func() error { _, err := store.ReadPage(oid, -1, page); return err }},
			row{fmt.Sprintf("HasPage oid %d", oid), func() error { _, err := store.HasPage(oid, -1); return err }},
			row{fmt.Sprintf("WritePages oid %d", oid), func() error {
				_, err := store.WritePages(oid, []objstore.PageWrite{{Pg: -1, Data: page}})
				return err
			}},
			row{fmt.Sprintf("ReadAt oid %d", oid), func() error { _, err := store.ReadAt(oid, -10, page); return err }},
			row{fmt.Sprintf("WriteAt oid %d", oid), func() error { return store.WriteAt(oid, -10, page[:1]) }},
		)
	}
	rows = append(rows,
		row{"Lseek", func() error { _, err := p.Lseek(fd, -10); return err }},
		row{"AioSubmit", func() error { _, err := p.AioSubmit(AIORead, fd, -10, page); return err }},
	)
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if err := r.call(); err == nil {
				t.Fatal("a negative offset was accepted")
			}
		})
	}
	if problems := store.AuditLive(); len(problems) > 0 {
		t.Fatalf("the refused calls left the store inconsistent: %v", problems)
	}
	if _, err := p.Lseek(fd, 0); err != nil || len(p.InFlightAIOs()) != 0 {
		t.Fatalf("after the refusals: lseek 0 = %v, %d AIOs in flight", err, len(p.InFlightAIOs()))
	}
}

func TestUmtxTIDWait(t *testing.T) {
	k := newKernel(t)
	p := k.NewProc("p")
	tid := p.MainThread().LocalTID
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.UmtxWait(tid)
	}()
	time.Sleep(5 * time.Millisecond)
	p.UmtxWake(tid)
	wg.Wait()
}

func TestUnlinkedOpenFileStillReadable(t *testing.T) {
	k := newKernel(t)
	p := k.NewProc("p")
	fd, _ := p.Open("/tmp/anon", ORead|OWrite, true)
	p.Write(fd, []byte("still here"))
	if err := p.Unlink("/tmp/anon"); err != nil {
		t.Fatal(err)
	}
	p.Lseek(fd, 0)
	buf := make([]byte, 10)
	if _, err := p.Read(fd, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "still here" {
		t.Fatalf("anon read %q", buf)
	}
}

func TestMmapFilePrivateVsShared(t *testing.T) {
	k := newKernel(t)
	p := k.NewProc("p")
	fd, _ := p.Open("/mapped", ORead|OWrite, true)
	p.Write(fd, []byte("ABCDEFGH"))

	// Private mapping: writes do not reach the file.
	pva, err := p.MmapFile(fd, 0, 4096, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	p.ReadMem(pva, got)
	if string(got) != "ABCDEFGH" {
		t.Fatalf("private map read %q", got)
	}
	p.WriteMem(pva, []byte("private!"))
	p.Lseek(fd, 0)
	p.Read(fd, got)
	if string(got) != "ABCDEFGH" {
		t.Fatalf("private write leaked to file: %q", got)
	}
}
