package redis

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
)

type harness struct {
	clk   *clock.Virtual
	costs *clock.Costs
	dev   *device.Stripe
	store *objstore.Store
	k     *kern.Kernel
	o     *sls.Orchestrator
}

func newHarness(t *testing.T) *harness {
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
	return &harness{clk: clk, costs: costs, dev: dev, store: store, k: k, o: sls.New(k, store)}
}

func TestSetGetDel(t *testing.T) {
	h := newHarness(t)
	r, err := New(h.k, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Set("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	r.Set("k2", []byte("v2"))
	v, ok, err := r.Get("k1")
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("get k1 = %q ok=%v err=%v", v, ok, err)
	}
	// Overwrite.
	r.Set("k1", []byte("v1-prime"))
	v, _, _ = r.Get("k1")
	if string(v) != "v1-prime" {
		t.Fatalf("after overwrite %q", v)
	}
	if err := r.Del("k2"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := r.Get("k2"); ok {
		t.Fatal("deleted key still present")
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d", r.Len())
	}
}

func TestCompaction(t *testing.T) {
	h := newHarness(t)
	r, err := New(h.k, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the same key until the arena would overflow; compaction
	// must reclaim the dead versions.
	val := bytes.Repeat([]byte{7}, 1024)
	for i := 0; i < 200; i++ {
		if err := r.Set("hot", val); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	v, ok, _ := r.Get("hot")
	if !ok || !bytes.Equal(v, val) {
		t.Fatal("value corrupted by compaction")
	}
}

func TestRebuildIndexAfterAuroraRestore(t *testing.T) {
	// The full single-level-store story: the database needs NO save
	// logic; Aurora checkpoints its memory, and after a crash the app
	// rebuilds its index from restored memory.
	h := newHarness(t)
	r, err := New(h.k, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	g := h.o.CreateGroup("redis")
	if err := g.Attach(r.Proc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		r.Set(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("value-%d", i)))
	}
	r.Del("key-13")
	if _, err := g.Checkpoint(sls.CkptIncremental); err != nil {
		t.Fatal(err)
	}

	// Crash and restore on a fresh kernel.
	store2, err := objstore.Recover(h.dev, h.clk, h.costs, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := slsfs.Recover(store2, h.clk, h.costs)
	if err != nil {
		t.Fatal(err)
	}
	k2 := kern.New(h.clk, h.costs, vm.NewSystem(mem.New(0), h.clk, h.costs), fs2)
	o2 := sls.New(k2, store2)
	g2, _, err := o2.RestoreGroup("redis", store2, sls.RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	rp := g2.Procs()[0]
	r2, err := RebuildIndex(rp, r.Arena())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 49 {
		t.Fatalf("rebuilt keys = %d, want 49", r2.Len())
	}
	v, ok, err := r2.Get("key-7")
	if err != nil || !ok || string(v) != "value-7" {
		t.Fatalf("key-7 after restore: %q ok=%v err=%v", v, ok, err)
	}
	if _, ok, _ := r2.Get("key-13"); ok {
		t.Fatal("deleted key resurrected")
	}
}

func TestBGSave(t *testing.T) {
	h := newHarness(t)
	r, err := New(h.k, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{3}, 4096)
	for i := 0; i < 100; i++ {
		r.Set(fmt.Sprintf("key-%04d", i), val)
	}
	imgDev := device.New(h.clk, h.costs, 64<<20)
	st, err := r.BGSave(imgDev)
	if err != nil {
		t.Fatal(err)
	}
	// The image is every pair, each as key length, key, value length, value.
	rec := 4 + len("key-0000") + 4 + len(val)
	img := make([]byte, 100*rec)
	if _, err := imgDev.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	saved := map[string]bool{}
	for off := 0; off < len(img); off += rec {
		key := string(img[off+4 : off+4+len("key-0000")])
		if !bytes.Equal(img[off+rec-len(val):off+rec], val) {
			t.Fatalf("saved value of %q differs", key)
		}
		saved[key] = true
	}
	if len(saved) != 100 {
		t.Fatalf("saved keys = %d", len(saved))
	}
	if st.StopTime <= 0 || st.SaveTime <= st.StopTime {
		t.Fatalf("timing shape wrong: %+v", st)
	}
	// Parent unaffected: data intact, child reaped.
	v, ok, _ := r.Get("key-0050")
	if !ok || !bytes.Equal(v, val) {
		t.Fatal("parent data corrupted by BGSAVE")
	}
	// Parent can keep writing during/after save (COW isolation).
	if err := r.Set("post-save", []byte("x")); err != nil {
		t.Fatal(err)
	}
}
