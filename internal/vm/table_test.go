package vm

import (
	"runtime"
	"slices"
	"testing"

	"aurora/internal/mem"
)

// TestHugeSparseObjectStaysSmall: an object of 1 TiB with pages only at its
// first and last index allocates what two pages need, not what its size
// would: the page index is sparse at every level.
func TestHugeSparseObjectStaysSmall(t *testing.T) {
	const size = int64(1) << 40
	sys := newSys()
	first, _ := sys.PM.Alloc()
	last, _ := sys.PM.Alloc()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	obj := sys.NewObject(Anonymous, size)
	obj.InsertPage(0, first)
	obj.InsertPage(size/PageSize-1, last)
	runtime.ReadMemStats(&m1)
	if n := m1.TotalAlloc - m0.TotalAlloc; n >= 64<<10 {
		t.Fatalf("a 1 TiB object with 2 resident pages allocated %d bytes, want under 64 KiB", n)
	}
	var got []int64
	obj.EachPage(func(pg int64, p *mem.Page) { got = append(got, pg) })
	if want := []int64{0, size/PageSize - 1}; !slices.Equal(got, want) || obj.Pages() != 2 {
		t.Fatalf("EachPage visited %v (%d resident), want %v", got, obj.Pages(), want)
	}
}

// TestCollapseReownsMovedPTEs: the reversed collapse re-owns exactly the PTEs
// whose page it moved, and afterwards no PTE of the map names the dead shadow
// — every owner is alive, and a PTE still usable resolves to the object that
// holds its page now.
func TestCollapseReownsMovedPTEs(t *testing.T) {
	const pages = 300 // five leaves, so the moved set crosses leaf edges
	sys := newSys()
	m := sys.NewMap()
	start, err := m.Map(sys.NewObject(Anonymous, pages*PageSize), 0, pages*PageSize, ProtRead|ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte{1}
	for pg := uint64(0); pg < pages; pg++ {
		m.Write(start+pg*PageSize, buf) //nolint:errcheck
	}
	first := SystemShadow(sys, []*Map{m}, nil)[0] // root <- S1
	for pg := uint64(0); pg < pages; pg += 3 {    // the pages S1 will hold
		m.Write(start+pg*PageSize, buf) //nolint:errcheck
	}
	second := SystemShadow(sys, []*Map{m}, nil)[0] // root <- S1 <- S2
	for pg := uint64(0); pg < pages; pg++ {        // read faults: owners S1 and root
		m.Read(start+pg*PageSize, buf) //nolint:errcheck
	}
	s1, root := second.Frozen, first.Frozen
	owned := map[*Object]int{}
	m.AuditPTEs(func(_ uint64, pte PTE, obj *Object) { owned[obj]++ })
	if owned[s1] != pages/3 || owned[root] != pages-pages/3 {
		t.Fatalf("before the collapse S1 owns %d PTEs and the root %d, want %d and %d", owned[s1], owned[root], pages/3, pages-pages/3)
	}
	if moved := CollapseAurora(second.Live, s1, m); moved != pages/3 {
		t.Fatalf("collapse moved %d pages, want %d", moved, pages/3)
	}
	m.AuditPTEs(func(va uint64, pte PTE, obj *Object) {
		if obj != root {
			t.Fatalf("PTE %#x is owned by object %d (dead %v), not the root it now lives in", va, obj.ID, obj.Dead())
		}
		if p, owner := second.Live.Lookup(int64(va-start) / PageSize); p != pte.Page || owner != root {
			t.Fatalf("PTE %#x translates a page the chain does not resolve to it in the root", va)
		}
	})
}
