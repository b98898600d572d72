package sls

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"aurora/internal/clock"
	"aurora/internal/device"
	"aurora/internal/flight"
	"aurora/internal/kern"
	"aurora/internal/mem"
	"aurora/internal/objstore"
	"aurora/internal/rec"
	"aurora/internal/slsfs"
	"aurora/internal/vm"
)

func benchWorld(b testing.TB) *world {
	b.Helper()
	clk := clock.NewVirtual()
	costs := clock.DefaultCosts()
	dev := device.NewStripe(clk, costs, 4, 64<<10, 4<<30)
	store, err := objstore.Format(dev, clk, costs)
	if err != nil {
		b.Fatal(err)
	}
	fs, err := slsfs.Format(store, clk, costs)
	if err != nil {
		b.Fatal(err)
	}
	vmsys := vm.NewSystem(mem.New(0), clk, costs)
	k := kern.New(clk, costs, vmsys, fs)
	return &world{clk: clk, costs: costs, dev: dev, store: store, fs: fs, k: k, o: New(k, store)}
}

// BenchmarkCheckpointIdle measures the real cost of checkpointing an idle
// process with a modest descriptor table (wall time of the simulator).
func BenchmarkCheckpointIdle(b *testing.B) {
	w := benchWorld(b)
	p := w.k.NewProc("idle")
	for i := 0; i < 32; i++ {
		p.Open("/f", kern.ORead|kern.OWrite, i == 0)
	}
	va, _ := p.Mmap(16<<20, vm.ProtRead|vm.ProtWrite, false)
	buf := make([]byte, vm.PageSize)
	for pg := uint64(0); pg < 1024; pg++ {
		p.WriteMem(va+pg*vm.PageSize, buf)
	}
	g := w.o.CreateGroup("idle")
	g.RetainEpochs = 4
	g.Attach(p)
	g.Checkpoint(CkptIncremental)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Checkpoint(CkptIncremental); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointIdle1kObjects is the memcached-ckpt shape without the
// memory: a server holding 1 000 idle descriptors (a listener and 999
// established connections, so 1 000 sockets behind them), checkpointed with
// nothing touched in between. The generation gate leaves every one of them as
// the store holds it: captured/op is the process and the group record, and
// virt-stop-us is what the walk costs at one cache miss per object.
func BenchmarkCheckpointIdle1kObjects(b *testing.B) {
	benchCheckpoint1kObjects(b, func(*kern.Proc, int) {})
}

// BenchmarkCheckpointChanged1kObjects is the gate's worst case on the same
// server: between checkpoints (off the timer) every description's flags and
// every socket's options change, so all 2 000 objects are looked up in the
// gate, captured as before it existed, staged and promoted. Against the
// parent it prices the gate's bookkeeping; virt-stop-us is the parent's.
func BenchmarkCheckpointChanged1kObjects(b *testing.B) {
	benchCheckpoint1kObjects(b, func(srv *kern.Proc, i int) {
		for fd := 0; fd < 1000; fd++ {
			if err := srv.SetFlags(fd, kern.ORead|kern.OWrite|(i&1)*kern.ONonblock); err != nil {
				b.Fatal(err)
			}
			if err := srv.SetSockOpt(fd, uint32(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchCheckpoint1kObjects(b *testing.B, between func(srv *kern.Proc, i int)) {
	w := benchWorld(b)
	srv, cli := w.k.NewProc("server"), w.k.NewProc("clients")
	lfd, _ := srv.Socket(kern.KindSocketTCP)
	srv.Bind(lfd, "10.0.0.1:11211")
	srv.Listen(lfd)
	for i := 0; i < 999; i++ {
		cfd, _ := cli.Socket(kern.KindSocketTCP)
		cli.Connect(cfd, "10.0.0.1:11211")
		if _, err := srv.Accept(lfd); err != nil {
			b.Fatal(err)
		}
	}
	g := w.o.CreateGroup("server")
	g.RetainEpochs = 4
	g.Attach(srv)
	g.Checkpoint(CkptIncremental)
	var stop time.Duration
	var captured int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		between(srv, i+1)
		b.StartTimer()
		st, err := g.Checkpoint(CkptIncremental)
		if err != nil {
			b.Fatal(err)
		}
		stop += st.StopTime
		captured += st.Captured
	}
	b.ReportMetric(float64(stop)/float64(b.N)/1e3, "virt-stop-us")
	b.ReportMetric(float64(captured)/float64(b.N), "captured/op")
}

// BenchmarkCheckpointDirty1k measures a checkpoint with 1024 dirty pages.
func BenchmarkCheckpointDirty1k(b *testing.B) {
	g, dirty := dirty1k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dirty()
		b.StartTimer()
		if _, err := g.Checkpoint(CkptIncremental); err != nil {
			b.Fatal(err)
		}
	}
}

// dirty1k is BenchmarkCheckpointDirty1k's group, checkpointed once over 16 MiB
// of written memory, and what dirties 1024 of its pages between checkpoints.
func dirty1k(tb testing.TB) (*Group, func()) {
	w := benchWorld(tb)
	p := w.k.NewProc("busy")
	va, _ := p.Mmap(16<<20, vm.ProtRead|vm.ProtWrite, false)
	buf := make([]byte, vm.PageSize)
	g := w.o.CreateGroup("busy")
	g.RetainEpochs = 4
	g.Attach(p)
	for pg := uint64(0); pg < 4096; pg++ {
		p.WriteMem(va+pg*vm.PageSize, buf)
	}
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		tb.Fatal(err)
	}
	return g, func() {
		for pg := uint64(0); pg < 1024; pg++ {
			p.WriteMem(va+pg*vm.PageSize, buf)
		}
	}
}

// TestCheckpointDirtyAllocsBounded: a checkpoint of BenchmarkCheckpointDirty1k's
// shape — 1024 dirty pages of a 16 MiB mapping — allocates at most 140 times
// (160 when pages, PTEs and block births were hash maps and the flush sorted
// what it staged).
func TestCheckpointDirtyAllocsBounded(t *testing.T) {
	g, dirty := dirty1k(t)
	ckpt := func() {
		if _, err := g.Checkpoint(CkptIncremental); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ { // into the steady state: collapses, retention, recycled blocks
		dirty()
		ckpt()
	}
	allocs, _ := allocsPer(10, dirty, ckpt)
	t.Logf("a checkpoint of 1024 dirty pages: %d allocations", allocs)
	if allocs > 140 {
		t.Fatalf("a checkpoint of 1024 dirty pages made %d allocations, gate 140", allocs)
	}
}

// BenchmarkCheckpointFlush8Objects checkpoints a group with eight
// multi-hundred-page objects dirty per interval: eight flush jobs, drained in
// plan order.
func BenchmarkCheckpointFlush8Objects(b *testing.B) {
	const procs = 8
	const dirtyPages = 512 // per process, per interval
	w := benchWorld(b)
	g := w.o.CreateGroup("flush")
	g.RetainEpochs = 4
	var ps []*kern.Proc
	var vas []uint64
	buf := make([]byte, vm.PageSize)
	for i := 0; i < procs; i++ {
		p := w.k.NewProc("busy")
		va, _ := p.Mmap(16<<20, vm.ProtRead|vm.ProtWrite, false)
		g.Attach(p)
		for pg := uint64(0); pg < dirtyPages; pg++ {
			p.WriteMem(va+pg*vm.PageSize, buf)
		}
		ps = append(ps, p)
		vas = append(vas, va)
	}
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, p := range ps {
			for pg := uint64(0); pg < dirtyPages; pg++ {
				p.WriteMem(vas[j]+pg*vm.PageSize, buf)
			}
		}
		b.StartTimer()
		if _, err := g.Checkpoint(CkptIncremental); err != nil {
			b.Fatal(err)
		}
	}
}

// restoreBenchApp is the application of the two restore benchmarks: 16 MiB of
// written memory and fds open descriptions of one file — fds gated kernel
// objects, which is what a restore primes the capture gate with.
func restoreBenchApp(b testing.TB, w *world, fds int) (*Group, uint64) {
	b.Helper()
	p := w.k.NewProc("app")
	for i := 0; i < fds; i++ {
		if _, err := p.Open("/f", kern.ORead|kern.OWrite, i == 0); err != nil {
			b.Fatal(err)
		}
	}
	va, _ := p.Mmap(16<<20, vm.ProtRead|vm.ProtWrite, false)
	buf := make([]byte, vm.PageSize)
	for pg := uint64(0); pg < 4096; pg++ {
		p.WriteMem(va+pg*vm.PageSize, buf)
	}
	g := w.o.CreateGroup("app")
	g.RetainEpochs = 4
	g.Attach(p)
	return g, va
}

// benchFDs are the descriptor counts both restore benchmarks run at: none
// (the series ROADMAP quotes) and a thousand (what priming works on).
var benchFDs = []int{0, 1000}

// BenchmarkRestore16MiB measures a full restore's wall time. Against the
// parent, fds=1000 prices the prime: one re-encoding per descriptor.
func BenchmarkRestore16MiB(b *testing.B) {
	for _, fds := range benchFDs {
		b.Run(fmt.Sprintf("fds=%d", fds), func(b *testing.B) {
			w := benchWorld(b)
			g, _ := restoreBenchApp(b, w, fds)
			if _, err := g.Checkpoint(CkptIncremental); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w2 := w.crash(b)
				b.StartTimer()
				if _, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpointAfterRestore measures the first checkpoint after an
// eager restore of a 16 MiB image of which the application then dirtied a
// tenth — the crash-restore chain's steady state, one commit per boot. Beside
// ns/op: pages the checkpoint flushed, store metadata it wrote (records,
// chunks and the index, which is where unbounded history shows), the
// modelled time from its start to its durability, and what the restore's
// priming is for: the object records it captured and its stop time.
func BenchmarkCheckpointAfterRestore(b *testing.B) {
	for _, fds := range benchFDs {
		b.Run(fmt.Sprintf("fds=%d", fds), func(b *testing.B) { benchCheckpointAfterRestore(b, fds) })
	}
}

func benchCheckpointAfterRestore(b *testing.B, fds int) {
	const pages, dirtied = 4096, 410
	w := benchWorld(b)
	g, va := restoreBenchApp(b, w, fds)
	buf := make([]byte, vm.PageSize)
	var virt, stop time.Duration
	var flushed, meta int64
	var captured int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := g.Checkpoint(CkptIncremental); err != nil {
			b.Fatal(err)
		}
		if err := g.Barrier(); err != nil {
			b.Fatal(err)
		}
		w = w.crash(b)
		var err error
		if g, _, err = w.o.RestoreGroup("app", w.store, RestoreFull, true); err != nil {
			b.Fatal(err)
		}
		p := g.Procs()[0]
		for j := uint64(0); j < dirtied; j++ {
			buf[0] = byte(i)
			p.WriteMem(va+(j*9+uint64(i))%pages*vm.PageSize, buf)
		}
		m0, t0 := w.store.Stats().MetaBytes, w.clk.Now()
		b.StartTimer()
		st, err := g.Checkpoint(CkptIncremental)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		virt += st.DurableAt - t0
		stop += st.StopTime
		captured += st.Captured
		flushed += st.FlushBytes / vm.PageSize
		meta += w.store.Stats().MetaBytes - m0
		b.StartTimer()
	}
	b.ReportMetric(float64(flushed)/float64(b.N), "pages/op")
	b.ReportMetric(float64(meta)/float64(b.N), "meta-bytes/op")
	b.ReportMetric(float64(virt)/float64(b.N)/1e3, "virt-us/op")
	b.ReportMetric(float64(stop)/float64(b.N)/1e3, "virt-stop-us/op")
	b.ReportMetric(float64(captured)/float64(b.N), "captured/op")
}

// BenchmarkDeltaShip1kObjects measures encoding one delta stream of a group
// with a thousand store objects and 64 changed pages, on both clocks: ns/op
// is the Go, virt-us/op the modelled time reading the base and the pages.
func BenchmarkDeltaShip1kObjects(b *testing.B) {
	w := benchWorld(b)
	p := w.k.NewProc("app")
	for i := 0; i < 1000; i++ {
		p.Open("/f", kern.ORead|kern.OWrite, i == 0)
	}
	va, _ := p.Mmap(4<<20, vm.ProtRead|vm.ProtWrite, false)
	buf := make([]byte, vm.PageSize)
	for pg := uint64(0); pg < 1024; pg++ {
		p.WriteMem(va+pg*vm.PageSize, buf)
	}
	g := w.o.CreateGroup("app")
	g.RetainEpochs = 4
	g.Attach(p)
	commit := func() {
		if _, err := g.Checkpoint(CkptIncremental); err != nil {
			b.Fatal(err)
		}
		if err := g.Barrier(); err != nil {
			b.Fatal(err)
		}
	}
	commit()
	if n := len(w.store.Objects()); n < 1000 {
		b.Fatalf("image has %d store objects, want at least 1000", n)
	}
	var virt time.Duration
	var e rec.Encoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for pg := uint64(0); pg < 64; pg++ {
			buf[0] = byte(i)
			p.WriteMem(va+pg*16*vm.PageSize, buf)
		}
		base := g.lastEpoch
		commit()
		b.StartTimer()
		t0 := w.clk.Now()
		e.Reset()
		if _, err := g.encodeStream(&e, base, nil); err != nil {
			b.Fatal(err)
		}
		virt += w.clk.Now() - t0
	}
	b.ReportMetric(float64(virt)/float64(b.N)/1e3, "virt-us/op")
}

// BenchmarkDeltaShipJournal measures one sync to a standby of a group whose
// journal holds N KiB, with one new append per sync, over the direct path:
// ns/op and B/op are the Go, virt-us/op the modelled sync (checkpoint, ship,
// the standby's receive). The standby keeps the frames it was sent, so none
// of the three may grow with N.
func BenchmarkDeltaShipJournal(b *testing.B) {
	for _, kib := range []int64{64, 4096} {
		b.Run(fmt.Sprintf("journal=%dKiB", kib), func(b *testing.B) {
			src, dst := benchWorld(b), benchWorld(b)
			p := src.k.NewProc("app")
			g := src.o.CreateGroup("app")
			g.Period = 0
			g.RetainEpochs = 4
			if err := g.Attach(p); err != nil {
				b.Fatal(err)
			}
			va, _ := p.Mmap(16*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
			// Room for the held entries and a few hundred thousand appends.
			j, err := g.Journal("wal", kib<<10+64<<20)
			if err != nil {
				b.Fatal(err)
			}
			entry := make([]byte, 1000)
			for j.Used() < kib<<10 {
				if _, err := j.Append(entry); err != nil {
					b.Fatal(err)
				}
			}
			rep, err := g.ReplicateTo(dst.o)
			if err != nil {
				b.Fatal(err)
			}
			var virt time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p.WriteMem(va, []byte{byte(i)})
				if _, err := j.Append(entry[:64]); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				t0 := src.clk.Now()
				if err := rep.Sync(); err != nil {
					b.Fatal(err)
				}
				virt += src.clk.Now() - t0
			}
			b.ReportMetric(float64(virt)/float64(b.N)/1e3, "virt-us/op")
		})
	}
}

// walCommitWorld builds the wal-commit shape: one process with a resident
// region of the given size, a flight recorder wired as a machine wires it,
// WAL-first commits folding every 16th. dirty writes round i's 4 pages, commit
// checkpoints them.
func walCommitWorld(tb testing.TB, pages uint64) (w *world, dirty func(i int), commit func() CheckpointStats) {
	w = benchWorld(tb)
	fl := flight.NewRecorder(0)
	w.dev.SetFlight(fl)
	w.store.SetFlight(fl)
	clk := w.clk
	p := w.k.NewProc("walapp")
	va, _ := p.Mmap(int64(pages)*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	buf := make([]byte, 64)
	for pg := uint64(0); pg < pages; pg++ {
		p.WriteMem(va+pg*vm.PageSize, buf)
	}
	g := w.o.CreateGroup("walapp")
	g.RetainEpochs = 4
	g.Options.FoldEvery = 16
	g.Attach(p)
	dirty = func(i int) {
		clk.Advance(250 * time.Microsecond) // think time: the device drains between commits
		for j := uint64(0); j < 4; j++ {
			buf[0] = byte(i)
			p.WriteMem(va+(uint64(i)*977%(pages/4)*4+j)*vm.PageSize, buf)
		}
	}
	commit = func() CheckpointStats {
		st, err := g.Checkpoint(CkptWAL)
		if err != nil {
			tb.Fatal(err)
		}
		return st
	}
	for i := 0; i < 64; i++ { // past the full first image, the ring full, pools warm
		dirty(i)
		commit()
	}
	return w, dirty, commit
}

// BenchmarkWALCommit4Pages measures a WAL-first commit of a 4-page delta
// (every 16th is the fold) against a 16 MiB and a 256 MiB resident region:
// the commit pays for the delta, so ns/op must not follow the region. Beside
// ns/op and allocs: WAL frame bytes and all device bytes per commit.
func BenchmarkWALCommit4Pages(b *testing.B) {
	for _, pages := range []uint64{4096, 65536} {
		b.Run(fmt.Sprintf("%dpages", pages), func(b *testing.B) {
			w, dirty, commit := walCommitWorld(b, pages)
			dev0 := w.dev.Stats().BytesWritten
			dev, frames := dev0, int64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dirty(64 + i)
				b.StartTimer()
				st := commit()
				now := w.dev.Stats().BytesWritten
				if st.WALSeq != 0 { // a frame commit writes the flushed pages and the frame
					frames += now - dev - st.FlushBytes
				}
				dev = now
			}
			b.ReportMetric(float64(frames)/float64(b.N), "frame-bytes/op")
			b.ReportMetric(float64(dev-dev0)/float64(b.N), "device-bytes/op")
		})
	}
}

// raceDetector is set by race_test.go: under the race detector the runtime
// allocates on paths the plain build does not and sync.Pool drops entries at
// random, so a pin on allocated bytes holds for the plain build only.
var raceDetector bool

// TestWALCommitAllocBytesPinned: steady-state heap bytes per WAL commit of a
// 4-page delta, folds included, with the flight ring full. The ceiling is 1.25
// × what this commit path measures (28.1 KB on go1.24; it was 114.9 KB while
// every frame re-serialized the whole ring), so the snapshot cannot creep back.
func TestWALCommitAllocBytesPinned(t *testing.T) {
	if raceDetector {
		t.Skip("allocation pin: plain build only")
	}
	const commits, ceiling = 320, 35000
	_, dirty, commit := walCommitWorld(t, 1024)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < commits; i++ {
		dirty(64 + i)
		commit()
	}
	runtime.ReadMemStats(&m1)
	per := (m1.TotalAlloc - m0.TotalAlloc) / commits
	t.Logf("%d bytes allocated per WAL commit", per)
	if per > ceiling {
		t.Fatalf("%d bytes allocated per WAL commit, ceiling %d", per, ceiling)
	}
}
