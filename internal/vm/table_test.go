package vm

import (
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"aurora/internal/mem"
)

// TestTableMatchesMapOracle drives the page table with random set, get, del
// and walks, checking every answer against a map. Keys cluster around
// leaf (64) and directory (4 096) boundaries, spread over a sparse range and
// go negative, so leaves and directories are created, emptied and dropped all
// the time.
func TestTableMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tb table[int]
		oracle := make(map[int64]int)
		key := func() int64 {
			switch rng.Intn(4) {
			case 0:
				return rng.Int63n(200) - 100 // around zero, both signs
			case 1:
				return int64(rng.Intn(40))*leafSize + rng.Int63n(3) - 1 // leaf edges
			case 2:
				return int64(rng.Intn(8))<<dirBits + rng.Int63n(3) - 1 // directory edges
			default:
				return rng.Int63n(1 << 40) // sparse
			}
		}
		for step := 0; step < 4000; step++ {
			k := key()
			switch op := rng.Intn(1000); {
			case op < 500:
				v := rng.Int()
				old, had := tb.set(k, v)
				want, wantHad := oracle[k]
				if had != wantHad || old != want {
					t.Fatalf("seed %d step %d: set(%d) replaced (%d, %v), oracle (%d, %v)", seed, step, k, old, had, want, wantHad)
				}
				oracle[k] = v
			case op < 800:
				v, ok := tb.del(k)
				want, wantOK := oracle[k]
				if ok != wantOK || v != want {
					t.Fatalf("seed %d step %d: del(%d) = (%d, %v), oracle (%d, %v)", seed, step, k, v, ok, want, wantOK)
				}
				delete(oracle, k)
			default:
				v, ok := tb.get(k)
				want, wantOK := oracle[k]
				if ok != wantOK || v != want {
					t.Fatalf("seed %d step %d: get(%d) = (%d, %v), oracle (%d, %v)", seed, step, k, v, ok, want, wantOK)
				}
				if p := tb.ptr(k); (p != nil) != wantOK || p != nil && *p != want {
					t.Fatalf("seed %d step %d: ptr(%d) disagrees with the oracle", seed, step, k)
				}
			}
			if tb.len() != len(oracle) {
				t.Fatalf("seed %d step %d: len %d, oracle %d", seed, step, tb.len(), len(oracle))
			}
			if step%200 == 0 {
				checkWalks(t, &tb, oracle)
			}
		}
		checkWalks(t, &tb, oracle)
	}
}

// checkWalks: each visits exactly the oracle's keys, strictly ascending, with
// their values, and a walk by leafFrom sees the same.
func checkWalks(t *testing.T, tb *table[int], oracle map[int64]int) {
	t.Helper()
	want := slices.Sorted(maps.Keys(oracle))
	var got []int64
	tb.each(func(k int64, v int) {
		if n := len(got); n > 0 && k <= got[n-1] {
			t.Fatalf("each visited %d after %d", k, got[n-1])
		}
		if v != oracle[k] {
			t.Fatalf("each gave %d at %d, oracle %d", v, k, oracle[k])
		}
		got = append(got, k)
	})
	if !slices.Equal(got, want) {
		t.Fatalf("each visited %d keys, oracle holds %d", len(got), len(want))
	}
	var walked []int64
	from := int64(-1 << 62)
	for {
		base, l := tb.leafFrom(from)
		if l == nil {
			break
		}
		if l.used == 0 {
			t.Fatalf("leafFrom(%d) returned an empty leaf", from)
		}
		for i := int64(0); i < leafSize; i++ {
			if l.used&(1<<i) != 0 {
				walked = append(walked, base+i)
			}
		}
		from = base + leafSize
	}
	if !slices.Equal(walked, want) {
		t.Fatalf("a leafFrom walk visited %d keys, oracle holds %d", len(walked), len(want))
	}
}

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
