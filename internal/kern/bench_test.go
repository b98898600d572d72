package kern

import (
	"testing"

	"aurora/internal/clock"
	"aurora/internal/device"
	"aurora/internal/mem"
	"aurora/internal/objstore"
	"aurora/internal/slsfs"
	"aurora/internal/vm"
)

func benchKernel(b *testing.B) *Kernel {
	b.Helper()
	clk := clock.NewVirtual()
	costs := clock.DefaultCosts()
	dev := device.NewStripe(clk, costs, 4, 64<<10, 1<<30)
	store, err := objstore.Format(dev, clk, costs)
	if err != nil {
		b.Fatal(err)
	}
	fs, err := slsfs.Format(store, clk, costs)
	if err != nil {
		b.Fatal(err)
	}
	return New(clk, costs, vm.NewSystem(mem.New(0), clk, costs), fs)
}

func BenchmarkSyscallGateEnterExit(b *testing.B) {
	k := benchKernel(b)
	p := k.NewProc("bench")
	fd, _ := p.Open("/f", ORead|OWrite, true)
	buf := []byte("x")
	p.Write(fd, buf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Lseek(fd, 0)
	}
}

func BenchmarkPipeRoundTrip(b *testing.B) {
	k := benchKernel(b)
	p := k.NewProc("bench")
	rfd, wfd, _ := p.Pipe()
	msg := make([]byte, 128)
	b.SetBytes(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Write(wfd, msg); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Read(rfd, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuiesceResumeIdle(b *testing.B) {
	k := benchKernel(b)
	k.NewProc("idle")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Quiesce()
		k.Resume()
	}
}

func BenchmarkFork64Entries(b *testing.B) {
	k := benchKernel(b)
	p := k.NewProc("parent")
	for i := 0; i < 64; i++ {
		va, _ := p.Mmap(64<<10, vm.ProtRead|vm.ProtWrite, false)
		p.WriteMem(va, []byte{1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := p.Fork()
		b.StopTimer()
		c.Exit(0)
		b.StartTimer()
	}
}
