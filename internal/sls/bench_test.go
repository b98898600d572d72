package sls

import (
	"io"
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

func benchWorld(b *testing.B) *world {
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

// BenchmarkCheckpointDirty1k measures a checkpoint with 1024 dirty pages.
func BenchmarkCheckpointDirty1k(b *testing.B) {
	w := benchWorld(b)
	p := w.k.NewProc("busy")
	va, _ := p.Mmap(16<<20, vm.ProtRead|vm.ProtWrite, false)
	buf := make([]byte, vm.PageSize)
	g := w.o.CreateGroup("busy")
	g.RetainEpochs = 4
	g.Attach(p)
	for pg := uint64(0); pg < 4096; pg++ {
		p.WriteMem(va+pg*vm.PageSize, buf)
	}
	g.Checkpoint(CkptIncremental)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for pg := uint64(0); pg < 1024; pg++ {
			p.WriteMem(va+pg*vm.PageSize, buf)
		}
		b.StartTimer()
		if _, err := g.Checkpoint(CkptIncremental); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointFlushParallel compares the flush pipeline drained
// serially (FlushWorkers=1) against the full worker pool on a group with
// several multi-hundred-page objects dirty per interval — the shape where
// one object's encode should overlap another's store write.
func BenchmarkCheckpointFlushParallel(b *testing.B) {
	const procs = 8
	const dirtyPages = 512 // per process, per interval
	run := func(b *testing.B, workers int) {
		w := benchWorld(b)
		g := w.o.CreateGroup("flush")
		g.RetainEpochs = 4
		g.Options.FlushWorkers = workers
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
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0) })
}

// BenchmarkRestore16MiB measures a full restore's wall time.
func BenchmarkRestore16MiB(b *testing.B) {
	w := benchWorld(b)
	p := w.k.NewProc("app")
	va, _ := p.Mmap(16<<20, vm.ProtRead|vm.ProtWrite, false)
	buf := make([]byte, vm.PageSize)
	for pg := uint64(0); pg < 4096; pg++ {
		p.WriteMem(va+pg*vm.PageSize, buf)
	}
	g := w.o.CreateGroup("app")
	g.Attach(p)
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
}

// BenchmarkCheckpointAfterRestore measures the first checkpoint after an
// eager restore of a 16 MiB image of which the application then dirtied a
// tenth — the crash-restore chain's steady state, one commit per boot. Beside
// ns/op: pages the checkpoint flushed, store metadata it wrote (records,
// chunks and the index, which is where unbounded history shows) and the
// modelled time from its start to its durability.
func BenchmarkCheckpointAfterRestore(b *testing.B) {
	const pages, dirtied = 4096, 410
	w := benchWorld(b)
	p := w.k.NewProc("app")
	va, _ := p.Mmap(pages*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	buf := make([]byte, vm.PageSize)
	for pg := uint64(0); pg < pages; pg++ {
		p.WriteMem(va+pg*vm.PageSize, buf)
	}
	g := w.o.CreateGroup("app")
	g.RetainEpochs = 4
	g.Attach(p)
	var virt time.Duration
	var flushed, meta int64
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
		p = g.Procs()[0]
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
		flushed += st.FlushBytes / vm.PageSize
		meta += w.store.Stats().MetaBytes - m0
		b.StartTimer()
	}
	b.ReportMetric(float64(flushed)/float64(b.N), "pages/op")
	b.ReportMetric(float64(meta)/float64(b.N), "meta-bytes/op")
	b.ReportMetric(float64(virt)/float64(b.N)/1e3, "virt-us/op")
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
		if _, err := g.encodeStream(io.Discard, base); err != nil {
			b.Fatal(err)
		}
		virt += w.clk.Now() - t0
	}
	b.ReportMetric(float64(virt)/float64(b.N)/1e3, "virt-us/op")
}
