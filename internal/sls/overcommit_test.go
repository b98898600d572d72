package sls

import (
	"errors"
	"fmt"
	"testing"

	"aurora/internal/clock"
	"aurora/internal/device"
	"aurora/internal/kern"
	"aurora/internal/mem"
	"aurora/internal/objstore"
	"aurora/internal/slsfs"
	"aurora/internal/vm"
)

// Memory overcommitment end to end (§6): an application whose working set
// exceeds physical memory keeps running, with the page daemon evicting
// checkpoint-clean pages and laundering dirty ones — no swap partition,
// the object store IS the swap.
func TestWorkingSetLargerThanPhysicalMemory(t *testing.T) {
	clk := clock.NewVirtual()
	costs := clock.DefaultCosts()
	dev := device.NewStripe(clk, costs, 4, 64<<10, 2<<30)
	store, err := objstore.Format(dev, clk, costs)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := slsfs.Format(store, clk, costs)
	if err != nil {
		t.Fatal(err)
	}
	// Physical memory: 512 frames (2 MiB). Working set: 1024 pages.
	pm := mem.New(512 * mem.PageSize)
	k := kern.New(clk, costs, vm.NewSystem(pm, clk, costs), fs)
	o := New(k, store)

	p := k.NewProc("big")
	g := o.CreateGroup("big")
	g.RetainEpochs = 2
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	const pages = 1024
	va, err := p.Mmap(pages*mem.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}

	// Touch every page, invoking the page daemon under memory pressure
	// exactly as the kernel's allocation path would.
	write := func(pg int, val byte) error {
		for attempt := 0; attempt < 4; attempt++ {
			err := p.WriteMem(va+uint64(pg)*mem.PageSize, []byte{val})
			if err == nil {
				return nil
			}
			if !errors.Is(err, mem.ErrNoMemory) {
				return err
			}
			if _, derr := o.PageDaemonPass(0, 0, 256); derr != nil {
				return derr
			}
		}
		return fmt.Errorf("page %d: still out of memory after daemon passes", pg)
	}
	for pg := 0; pg < pages; pg++ {
		if err := write(pg, byte(pg)); err != nil {
			t.Fatal(err)
		}
	}
	if got := pm.Used(); got > 512 {
		t.Fatalf("resident frames %d exceed physical memory", got)
	}

	// Every page readable with its content (faulting back from the store).
	buf := make([]byte, 1)
	for _, pg := range []int{0, 100, 511, 512, 800, 1023} {
		if err := func() error {
			for attempt := 0; attempt < 4; attempt++ {
				err := p.ReadMem(va+uint64(pg)*mem.PageSize, buf)
				if err == nil {
					return nil
				}
				if !errors.Is(err, mem.ErrNoMemory) {
					return err
				}
				if _, derr := o.PageDaemonPass(0, 0, 256); derr != nil {
					return derr
				}
			}
			return fmt.Errorf("still out of memory")
		}(); err != nil {
			t.Fatalf("page %d: %v", pg, err)
		}
		if buf[0] != byte(pg) {
			t.Fatalf("page %d = %d, want %d", pg, buf[0], byte(pg))
		}
	}

	// And the whole overcommitted application still survives a crash.
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	store2, err := objstore.Recover(dev, clk, costs, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := slsfs.Recover(store2, clk, costs)
	if err != nil {
		t.Fatal(err)
	}
	k2 := kern.New(clk, costs, vm.NewSystem(mem.New(0), clk, costs), fs2)
	o2 := New(k2, store2)
	g2, _, err := o2.RestoreGroup("big", store2, RestoreLazy, true)
	if err != nil {
		t.Fatal(err)
	}
	rp := g2.Procs()[0]
	rp.ReadMem(va+777*mem.PageSize, buf)
	if buf[0] != byte(777%256) {
		t.Fatalf("post-crash page 777 = %d", buf[0])
	}
}
