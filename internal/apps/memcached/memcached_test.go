package memcached

import (
	"bytes"
	"fmt"
	"testing"

	"aurora/internal/clock"
	"aurora/internal/device"
	"aurora/internal/kern"
	"aurora/internal/mem"
	"aurora/internal/objstore"
	"aurora/internal/sls"
	"aurora/internal/slsfs"
	"aurora/internal/vm"
	"aurora/internal/workload"
)

func newWorld(t *testing.T) (*kern.Kernel, *sls.Orchestrator, *clock.Virtual) {
	t.Helper()
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
	k := kern.New(clk, costs, vm.NewSystem(mem.New(0), clk, costs), fs)
	return k, sls.New(k, store), clk
}

func TestSetGet(t *testing.T) {
	k, _, _ := newWorld(t)
	s, err := New(k, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("get: %q ok=%v err=%v", v, ok, err)
	}
	if _, ok, _ := s.Get("missing"); ok {
		t.Fatal("phantom key")
	}
}

func TestGetDirtiesPage(t *testing.T) {
	// The LRU stamp on GET is the fault-amplification mechanism: after a
	// checkpoint, even a read-only workload dirties pages.
	k, o, _ := newWorld(t)
	s, _ := New(k, 1000)
	g := o.CreateGroup("mc")
	g.Attach(s.Proc)
	for i := 0; i < 100; i++ {
		s.Set(fmt.Sprintf("key-%03d", i), bytes.Repeat([]byte{1}, 100))
	}
	g.Checkpoint(sls.CkptIncremental)
	// GET-only traffic.
	for i := 0; i < 100; i++ {
		s.Get(fmt.Sprintf("key-%03d", i))
	}
	st, err := g.Checkpoint(sls.CkptIncremental)
	if err != nil {
		t.Fatal(err)
	}
	if st.DirtyPages == 0 {
		t.Fatal("GET traffic dirtied no pages; LRU stamping broken")
	}
}

func TestOverwriteAndTruncation(t *testing.T) {
	k, _, _ := newWorld(t)
	s, _ := New(k, 10)
	s.Set("k", bytes.Repeat([]byte{1}, 100))
	s.Set("k", bytes.Repeat([]byte{2}, 50)) // same slot
	v, ok, _ := s.Get("k")
	if !ok || len(v) != 50 || v[0] != 2 {
		t.Fatalf("overwrite: %d bytes, first=%d", len(v), v[0])
	}
	// Oversized values are truncated to the slab slot.
	s.Set("big", bytes.Repeat([]byte{3}, 2*SlotSize))
	v, _, _ = s.Get("big")
	if len(v) >= SlotSize {
		t.Fatalf("value not truncated: %d", len(v))
	}
	if s.Items() != 2 {
		t.Fatalf("items = %d", s.Items())
	}
}

func TestCapacity(t *testing.T) {
	k, _, _ := newWorld(t)
	s, _ := New(k, 2)
	s.Set("a", []byte("1"))
	s.Set("b", []byte("2"))
	if err := s.Set("c", []byte("3")); err == nil {
		t.Fatal("exceeded slot capacity silently")
	}
}

func TestApplyWorkload(t *testing.T) {
	k, _, _ := newWorld(t)
	s, _ := New(k, 5000)
	gen := workload.NewETC(1, 2000)
	for _, op := range workload.Fill(2000, "etc", 100) {
		if err := s.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	kinds := make(map[workload.OpKind]int)
	for i := 0; i < 5000; i++ {
		op := gen.Next()
		kinds[op.Kind]++
		if err := s.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	if kinds[workload.OpGet] == 0 || kinds[workload.OpSet] == 0 {
		t.Fatal("workload did not exercise both ops")
	}
}

func TestRebuildAfterRestore(t *testing.T) {
	k, o, _ := newWorld(t)
	s, _ := New(k, 1000)
	g := o.CreateGroup("mc")
	g.Attach(s.Proc)
	for i := 0; i < 200; i++ {
		s.Set(fmt.Sprintf("key-%04d", i), []byte(fmt.Sprintf("val-%d", i)))
	}
	if _, err := g.Checkpoint(sls.CkptIncremental); err != nil {
		t.Fatal(err)
	}
	arena, capacity := s.Arena()

	// Restore into the same store/orchestrator (soft restart).
	g2, _, err := o.RestoreGroup("mc", o.Store, sls.RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := RebuildIndex(g2.Procs()[0], arena, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Items() != 200 {
		t.Fatalf("rebuilt items = %d", s2.Items())
	}
	v, ok, _ := s2.Get("key-0123")
	if !ok || string(v) != "val-123" {
		t.Fatalf("key-0123 = %q ok=%v", v, ok)
	}
}

func TestCheckpointOverheadGrowsWithFrequency(t *testing.T) {
	// The Figure 4 mechanism in miniature: the same op count costs more
	// virtual time under frequent checkpoints than infrequent ones.
	run := func(everyNOps int) float64 {
		k, o, clk := newWorld(t)
		s, _ := New(k, 2000)
		g := o.CreateGroup("mc")
		g.Attach(s.Proc)
		for _, op := range workload.Fill(2000, "etc", 100) {
			s.Apply(op)
		}
		g.Checkpoint(sls.CkptIncremental)
		gen := workload.NewETC(1, 2000)
		start := clk.Now()
		for i := 0; i < 20000; i++ {
			s.Apply(gen.Next())
			if everyNOps > 0 && i%everyNOps == 0 {
				if _, err := g.Checkpoint(sls.CkptIncremental); err != nil {
					t.Fatal(err)
				}
			}
		}
		return float64(20000) / (clk.Now() - start).Seconds()
	}
	base := run(0)
	frequent := run(1000)
	rare := run(10000)
	if !(base > rare && rare > frequent) {
		t.Fatalf("throughput ordering wrong: base=%.0f rare=%.0f frequent=%.0f", base, rare, frequent)
	}
	if frequent > 0.8*base {
		t.Fatalf("frequent checkpointing only cost %.0f%% (want substantial overhead)", 100*(1-frequent/base))
	}
}
