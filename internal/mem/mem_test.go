package mem

import (
	"testing"
	"testing/quick"
)

func TestAllocZeroed(t *testing.T) {
	pm := New(1 << 20)
	p, err := pm.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Data) != PageSize {
		t.Fatalf("frame size = %d, want %d", len(p.Data), PageSize)
	}
	for i, b := range p.Data {
		if b != 0 {
			t.Fatalf("byte %d = %d, want 0", i, b)
		}
	}
	if p.Dirty || p.Backed {
		t.Fatalf("fresh frame has stale flags: %+v", p)
	}
}

func TestCapacityEnforced(t *testing.T) {
	pm := New(4 * PageSize)
	var pages []*Page
	for i := 0; i < 4; i++ {
		p, err := pm.Alloc()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		pages = append(pages, p)
	}
	if _, err := pm.Alloc(); err != ErrNoMemory {
		t.Fatalf("alloc past capacity: err = %v, want ErrNoMemory", err)
	}
	pm.Free(pages[0])
	if _, err := pm.Alloc(); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}

func TestRecycledFrameIsClean(t *testing.T) {
	pm := New(PageSize)
	p := pm.MustAlloc()
	p.Data[123] = 0xAB
	p.Dirty = true
	p.Backed = true
	pm.Free(p)
	q := pm.MustAlloc()
	if q.Data[123] != 0 || q.Dirty || q.Backed {
		t.Fatalf("recycled frame not reset: %+v", q)
	}
}

func TestPageCopyMarksDirty(t *testing.T) {
	pm := New(0)
	src, dst := pm.MustAlloc(), pm.MustAlloc()
	src.Data[0] = 42
	dst.Backed = true
	dst.Copy(src)
	if dst.Data[0] != 42 || !dst.Dirty || dst.Backed {
		t.Fatalf("Copy: data=%d dirty=%v backed=%v", dst.Data[0], dst.Dirty, dst.Backed)
	}
}

func TestPagesFor(t *testing.T) {
	tests := []struct{ n, want int64 }{
		{0, 0}, {-5, 0}, {1, 1}, {PageSize, 1}, {PageSize + 1, 2}, {10 * PageSize, 10},
	}
	for _, tt := range tests {
		if got := PagesFor(tt.n); got != tt.want {
			t.Errorf("PagesFor(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestPressure(t *testing.T) {
	pm := New(10 * PageSize)
	if got := pm.Pressure(); got != 0 {
		t.Fatalf("empty pressure = %v", got)
	}
	for i := 0; i < 5; i++ {
		pm.MustAlloc()
	}
	if got := pm.Pressure(); got != 0.5 {
		t.Fatalf("pressure = %v, want 0.5", got)
	}
	if got := New(0).Pressure(); got != 0 {
		t.Fatalf("unlimited pressure = %v, want 0", got)
	}
}

// Property: used count always equals allocs minus frees.
func TestUsedAccountingProperty(t *testing.T) {
	f := func(ops []bool) bool {
		pm := New(0)
		var live []*Page
		var want int64
		for _, alloc := range ops {
			if alloc || len(live) == 0 {
				live = append(live, pm.MustAlloc())
				want++
			} else {
				pm.Free(live[len(live)-1])
				live = live[:len(live)-1]
				want--
			}
		}
		return pm.Used() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
