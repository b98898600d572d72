package vm

import (
	"math/rand"
	"testing"
	"time"
)

// The downgrade visits an entry's writable list instead of its address range.
// These tests hold it to the full walk it replaced: the same PTEs go, the same
// virtual time is charged, and the list stays as small as the mapping.

// fullWalk is the replaced algorithm, as an oracle: every VA of the entry is
// looked up and the writable translations are the ones a downgrade removes.
func fullWalk(m *Map, e *Entry) (writable []uint64) {
	for va := e.Start; va < e.End; va += PageSize {
		if pte, ok := m.ptes[va]; ok && pte.Writable {
			writable = append(writable, va)
		}
	}
	return writable
}

// checkWritableInvariant: every writable PTE is on its entry's list, and no
// list outgrows its mapping.
func checkWritableInvariant(t *testing.T, step int, maps []*Map) {
	t.Helper()
	for mi, m := range maps {
		for _, e := range m.entries {
			if int64(len(e.writable)) > e.Pages() {
				t.Fatalf("step %d map %d: entry [%#x,%#x) lists %d writable VAs over %d pages",
					step, mi, e.Start, e.End, len(e.writable), e.Pages())
			}
			listed := make(map[uint64]bool, len(e.writable))
			for _, va := range e.writable {
				listed[va] = true
			}
			for _, va := range fullWalk(m, e) {
				if !listed[va] {
					t.Fatalf("step %d map %d: writable PTE at %#x is not on its entry's list", step, mi, va)
				}
			}
		}
	}
}

func pteSet(m *Map) map[uint64]bool {
	out := make(map[uint64]bool, len(m.ptes))
	for va := range m.ptes {
		out[va] = true
	}
	return out
}

func TestWritableSetDowngradeMatchesFullWalk(t *testing.T) {
	const regionPages = 48
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sys := newSys()
		costs := sys.Costs
		root := sys.NewMap()
		maps := []*Map{root}
		var bases []uint64
		mapRegion := func(shared bool) {
			va, err := root.Map(sys.NewObject(Anonymous, regionPages*PageSize), 0, regionPages*PageSize, ProtRead|ProtWrite, shared)
			if err != nil {
				t.Fatal(err)
			}
			bases = append(bases, va)
		}
		mapRegion(false)
		mapRegion(true)
		mapRegion(false)

		for step := 0; step < 400; step++ {
			m := maps[rng.Intn(len(maps))]
			base := bases[rng.Intn(len(bases))]
			va := base + uint64(rng.Intn(regionPages))*PageSize
			if _, ok := m.EntryAt(va); !ok {
				continue // forked before the region was mapped, or unmapped since
			}
			switch op := rng.Intn(20); {
			case op < 8:
				if err := m.Write(va, []byte{byte(step)}); err != nil {
					t.Fatal(err)
				}
			case op < 12:
				if err := m.Read(va, make([]byte, 1)); err != nil {
					t.Fatal(err)
				}
			case op < 14: // re-fault a page that may already be writable
				if _, err := m.Fault(va, true); err != nil {
					t.Fatal(err)
				}
			case op == 14:
				m.InvalidateAll()
			case op == 15 && m == root && len(bases) > 2:
				if err := root.Unmap(base); err != nil {
					t.Fatal(err)
				}
				for i, b := range bases {
					if b == base {
						bases = append(bases[:i], bases[i+1:]...)
					}
				}
				mapRegion(rng.Intn(2) == 0)
			case op == 16 && len(maps) < 4:
				// Fork downgrades every private writable entry of the parent.
				var replaced []*Entry
				for _, e := range m.entries {
					if !e.Shared && e.Prot&ProtWrite != 0 {
						replaced = append(replaced, e)
					}
				}
				want, n := pteSet(m), 0
				for _, e := range replaced {
					for _, va := range fullWalk(m, e) {
						delete(want, va)
						n++
					}
				}
				t0 := sys.Clk.Now()
				maps = append(maps, m.Fork())
				charged := sys.Clk.Now() - t0
				wantCharge := time.Duration(2*len(replaced))*costs.ShadowCreate + costs.TLBFlush +
					time.Duration(n)*costs.PageMarkCOW
				if charged != wantCharge {
					t.Fatalf("seed %d step %d: fork charged %v, the full walk charges %v (%d writable PTEs)", seed, step, charged, wantCharge, n)
				}
				if got := pteSet(m); !sameSet(got, want) {
					t.Fatalf("seed %d step %d: fork left %d PTEs, the full walk leaves %d", seed, step, len(got), len(want))
				}
			case op >= 17:
				// System shadow replaces every entry of every writable object.
				targets := make(map[*Object]bool)
				for _, mm := range maps {
					for _, e := range mm.entries {
						if e.Prot&ProtWrite != 0 {
							targets[e.Obj] = true
						}
					}
				}
				want := make([]map[uint64]bool, len(maps))
				n, touched := 0, 0
				for i, mm := range maps {
					want[i] = pteSet(mm)
					hit := false
					for _, e := range mm.entries {
						if !targets[e.Obj] {
							continue
						}
						hit = true
						for _, va := range fullWalk(mm, e) {
							delete(want[i], va)
							n++
						}
					}
					if hit {
						touched++
					}
				}
				t0 := sys.Clk.Now()
				SystemShadow(sys, maps, nil)
				charged := sys.Clk.Now() - t0
				wantCharge := time.Duration(len(targets))*costs.ShadowCreate + time.Duration(touched)*costs.TLBFlush +
					time.Duration(n)*costs.PageMarkCOW
				if charged != wantCharge {
					t.Fatalf("seed %d step %d: shadow pass charged %v, the full walk charges %v (%d writable PTEs)", seed, step, charged, wantCharge, n)
				}
				for i, mm := range maps {
					if got := pteSet(mm); !sameSet(got, want[i]) {
						t.Fatalf("seed %d step %d map %d: shadow pass left %d PTEs, the full walk leaves %d", seed, step, i, len(got), len(want[i]))
					}
				}
			}
			checkWritableInvariant(t, step, maps)
		}
	}
}

func sameSet(a, b map[uint64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestWritableSetBoundedWithoutShadowing: an entry nothing ever shadows still
// has its list emptied by every page-table drop, so write / evict / re-fault
// cycles cannot grow it past the mapping.
func TestWritableSetBoundedWithoutShadowing(t *testing.T) {
	const pages = 32
	sys := newSys()
	m := sys.NewMap()
	va, err := m.Map(sys.NewObject(Anonymous, pages*PageSize), 0, pages*PageSize, ProtRead|ProtWrite, true)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := m.EntryAt(va)
	for round := 0; round < 200; round++ {
		for pg := 0; pg < pages; pg++ {
			if err := m.Write(va+uint64(pg)*PageSize, []byte{byte(round)}); err != nil {
				t.Fatal(err)
			}
		}
		if round%3 == 0 {
			m.InvalidateAll()
		}
		if len(e.writable) > pages {
			t.Fatalf("round %d: %d listed VAs over %d pages", round, len(e.writable), pages)
		}
	}
}
