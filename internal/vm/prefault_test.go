package vm

import (
	"testing"
	"time"

	"aurora/internal/mem"
)

// prefaultWorld maps object pages 2–13 of a shadow over a paged root. The
// root holds pages 1, 3, 4, 6, 7, 12, 13 and 14 (1 and 14 lie outside the
// entry), the shadow holds 5 and 8, and 2 and 9–11 are resident nowhere. Slot
// s of the entry is object page s+2.
type prefaultWorld struct {
	sys       *System
	m         *Map
	e         *Entry
	top, root *Object
	pageIns   int // calls of the root's pager
}

func newPrefaultWorld(t *testing.T) *prefaultWorld {
	t.Helper()
	w := &prefaultWorld{sys: newSys()}
	w.root = w.sys.NewPagedObject(Anonymous, 16*PageSize, pagerFunc{fn: func(int64, *mem.Page) error {
		w.pageIns++
		return nil
	}})
	w.top = w.sys.Shadow(w.root)
	for obj, pages := range map[*Object][]int64{w.root: {1, 3, 4, 6, 7, 12, 13, 14}, w.top: {5, 8}} {
		for _, pg := range pages {
			p, err := w.sys.PM.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			obj.InsertPage(pg, p)
		}
	}
	w.m = w.sys.NewMap()
	va, err := w.m.Map(w.top, 2*PageSize, 12*PageSize, ProtRead|ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	w.e, _ = w.m.EntryAt(va)
	return w
}

// access reads (or writes) one byte of slot and returns the virtual time it
// took.
func (w *prefaultWorld) access(t *testing.T, slot int64, write bool) time.Duration {
	t.Helper()
	t0, va := w.sys.Clk.Now(), w.e.Start+uint64(slot)*PageSize
	var err error
	if write {
		err = w.m.Write(va, []byte{1})
	} else {
		err = w.m.Read(va, make([]byte, 1))
	}
	if err != nil {
		t.Fatal(err)
	}
	return w.sys.Clk.Now() - t0
}

// check requires the entry's PTEs to be exactly the slots of owners, each
// translating the page the chain resolves for it, owned by the object that
// holds it, current and clean unless writable — internal/audit's vm.pte rules
// and then some.
func (w *prefaultWorld) check(t *testing.T, owners map[int64]*Object) {
	t.Helper()
	n := 0
	w.m.AuditPTEs(func(va uint64, pte PTE, obj *Object) {
		n++
		slot := w.e.slot(va)
		p, owner := w.e.Obj.Lookup(slot + 2)
		switch {
		case owners[slot] == nil:
			t.Errorf("slot %d is mapped", slot)
		case obj != owners[slot] || owner != obj || pte.Page != p:
			t.Errorf("slot %d translates object %d's page, want object %d's", slot, obj.ID, owners[slot].ID)
		case obj.Dead() || pte.gen != w.e.gen || pte.Dirty && !pte.Writable:
			t.Errorf("slot %d: owner dead %v, gen %d of %d, dirty %v, writable %v", slot, obj.Dead(), pte.gen, w.e.gen, pte.Dirty, pte.Writable)
		}
	})
	if n != len(owners) {
		t.Errorf("%d PTEs, want %d", n, len(owners))
	}
}

// TestReadFaultPrefaultsResidentNeighbours: a read fault maps the resident
// pages within prefaultSpan slots of it, found down the shadow chain,
// read-only, for one PageInstall each; a page resident nowhere
// stays unmapped with its pager uncalled, nothing past the entry's ends is
// mapped, a mapped slot is skipped, and a write fault maps only its own page.
// A prefaulted page takes the ordinary write fault, which lists it writable
// for the next shadow pass to downgrade, and a collapse re-owns prefaulted
// PTEs like any other. A read in a shared entry prefaults too, and a PTE
// there drops once another map copies its page up, so one map never reads a
// frozen page another has since written.
func TestReadFaultPrefaultsResidentNeighbours(t *testing.T) {
	costs := newSys().Costs
	fault, install := costs.PageFault, costs.PageInstall

	t.Run("read", func(t *testing.T) {
		w := newPrefaultWorld(t)
		root, top := w.root, w.top
		// Slots 0–5 are in reach of slot 1; slot 0's page is resident nowhere.
		if got := w.access(t, 1, false); got != fault+5*install {
			t.Fatalf("read fault with 4 resident neighbours took %v, want %v", got, fault+5*install)
		}
		w.check(t, map[int64]*Object{1: root, 2: root, 3: top, 4: root, 5: root})
		for slot, pte := range w.e.ptes.All() {
			if pte.Writable {
				t.Fatalf("slot %d: a read mapped it writable", slot)
			}
		}
		// Slot 11 is the entry's last: object page 14 is resident but
		// past the end, and 9–11 are resident nowhere.
		if got := w.access(t, 11, false); got != fault+2*install {
			t.Fatalf("read fault at the entry's end took %v, want %v", got, fault+2*install)
		}
		w.check(t, map[int64]*Object{1: root, 2: root, 3: top, 4: root, 5: root, 10: root, 11: root})
		// A prefaulted page reads without a trap.
		if got := w.access(t, 3, false); got != 0 {
			t.Fatalf("read of a prefaulted page took %v", got)
		}
		// Every slot in reach of slot 6 is mapped already or resident nowhere.
		if got := w.access(t, 6, false); got != fault+install {
			t.Fatalf("read fault among mapped neighbours took %v, want %v", got, fault+install)
		}
		w.check(t, map[int64]*Object{1: root, 2: root, 3: top, 4: root, 5: root, 6: top, 10: root, 11: root})
		if w.pageIns != 0 || w.root.Pages() != 8 || w.top.Pages() != 2 {
			t.Fatalf("prefault paged in %d, root holds %d pages, shadow %d", w.pageIns, w.root.Pages(), w.top.Pages())
		}
	})

	t.Run("write", func(t *testing.T) {
		w := newPrefaultWorld(t)
		if got, want := w.access(t, 5, true), fault+costs.COWShootdown+costs.MemCopyPerPage+install; got != want {
			t.Fatalf("write fault took %v, want %v", got, want)
		}
		w.check(t, map[int64]*Object{5: w.top})
	})

	t.Run("write after prefault, then a shadow pass", func(t *testing.T) {
		w := newPrefaultWorld(t)
		w.access(t, 1, false)
		w.access(t, 2, true) // prefaulted from the root: copies into the shadow
		w.check(t, map[int64]*Object{1: w.root, 2: w.top, 3: w.top, 4: w.root, 5: w.root})
		if pte := w.e.ptes.Ptr(2); !pte.Writable || !pte.Dirty || len(w.e.writable) != 1 || w.e.writable[0] != 2 {
			t.Fatalf("write to a prefaulted page: %+v, writable list %v", *pte, w.e.writable)
		}
		SystemShadow(w.sys, []*Map{w.m}, nil)
		if w.e.ptes.Ptr(2) != nil || len(w.e.writable) != 0 {
			t.Fatalf("the shadow pass kept slot 2's PTE or the writable list %v", w.e.writable)
		}
		// Slot 1's stale PTE drops and faults again; the stale PTEs of
		// slots 3–5 stay as they are, and slot 2, unmapped, is prefaulted
		// from the frozen shadow.
		if got := w.access(t, 1, false); got != fault+2*install {
			t.Fatalf("read fault beside stale PTEs took %v, want %v", got, fault+2*install)
		}
		for slot := int64(3); slot <= 5; slot++ {
			if pte := w.e.ptes.Ptr(slot); pte == nil || pte.gen == w.e.gen {
				t.Fatalf("slot %d's stale PTE was replaced", slot)
			}
		}
		if pte := w.e.ptes.Ptr(2); pte == nil || pte.owner != w.top || pte.gen != w.e.gen || pte.Writable {
			t.Fatal("slot 2 was not prefaulted read-only from the frozen shadow")
		}
	})

	t.Run("shared", func(t *testing.T) {
		// Two maps of one shared object, shadowed by a checkpoint. A's
		// read of slot 0 prefaults slots 1–3 from the frozen object. B's
		// writes copy slots 1 and 2 up into the shared shadow and drop no
		// PTE of A's, so neither the PTE prefaulted at slot 1 nor the one
		// A's own read of slot 2 installs may outlive the copy-up.
		sys := newSys()
		a := sys.NewMap()
		va, err := a.Map(sys.NewObject(Anonymous, 4*PageSize), 0, 4*PageSize, ProtRead|ProtWrite, true)
		if err != nil {
			t.Fatal(err)
		}
		b := a.Fork()
		for slot := uint64(0); slot < 4; slot++ {
			if err := b.Write(va+slot*PageSize, []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
		SystemShadow(sys, []*Map{a, b}, nil)
		got := make([]byte, 1)
		before := sys.Clk.Now()
		if err := a.Read(va, got); err != nil {
			t.Fatal(err)
		}
		if took := sys.Clk.Now() - before; took != fault+4*install {
			t.Fatalf("shared read fault with 3 resident neighbours took %v, want %v", took, fault+4*install)
		}
		if err := b.Write(va+PageSize, []byte{2}); err != nil {
			t.Fatal(err)
		}
		if err := a.Read(va+PageSize, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != 2 {
			t.Fatalf("map A reads %d at slot 1 after map B wrote 2 there", got[0])
		}
		if err := a.Read(va+2*PageSize, got); err != nil {
			t.Fatal(err)
		}
		if err := b.Write(va+2*PageSize, []byte{2}); err != nil {
			t.Fatal(err)
		}
		if err := a.Read(va+2*PageSize, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != 2 {
			t.Fatalf("map A reads %d at slot 2, which it had read, after map B wrote 2 there", got[0])
		}
	})

	t.Run("collapse", func(t *testing.T) {
		w := newPrefaultWorld(t)
		pair := SystemShadow(w.sys, []*Map{w.m}, nil)[0]
		w.access(t, 5, false) // slots 1–9 in reach; the frozen shadow holds 3 and 6
		w.check(t, map[int64]*Object{1: w.root, 2: w.root, 3: w.top, 4: w.root, 5: w.root, 6: w.top})
		if moved := CollapseAurora(pair.Live, pair.Frozen, w.m); moved != 2 {
			t.Fatalf("collapse moved %d pages, want 2", moved)
		}
		w.check(t, map[int64]*Object{1: w.root, 2: w.root, 3: w.root, 4: w.root, 5: w.root, 6: w.root})
	})
}
