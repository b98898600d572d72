package vm

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"aurora/internal/mem"
	"aurora/internal/radix"
)

// Prot is a permission bitmask for a mapping.
type Prot uint8

// Mapping permissions.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

// Entry is one vm_map_entry: a virtual address range backed by an object at
// an offset, with permissions and sharing semantics.
type Entry struct {
	Start uint64 // inclusive, page aligned
	End   uint64 // exclusive, page aligned
	Prot  Prot
	Obj   *Object
	// Off is the byte offset within Obj that Start maps to.
	Off int64
	// Shared marks MAP_SHARED semantics: fork aliases the object instead
	// of interposing copy-on-write shadows. Private file mappings
	// (MAP_PRIVATE of a vnode object) are expressed by the caller mapping
	// a shadow of the file object, so the vnode object itself only ever
	// stores the file's true pages.
	Shared bool
	// NoCheckpoint marks an sls_mctl exclusion: the checkpoint neither
	// shadows nor flushes the entry, and records its geometry only. Fork
	// copies it, as FreeBSD copies an entry's MAP_ENTRY_NOCOREDUMP.
	NoCheckpoint bool

	// ptes is the entry's page table: the PTE of each translated page, by
	// page number within the entry.
	ptes radix.Table[PTE]
	// gen counts the objects the entry has mapped: a PTE installed under an
	// earlier one is stale (the mapping was downgraded since).
	gen uint32
	// writable lists the pages whose PTE Fault installed writable (the only
	// place one becomes so) since the last downgrade. Invariant: every
	// writable PTE of the entry is listed, so a downgrade
	// visits the pages written, not the mapping. Emptied by a downgrade and
	// by InvalidateAll; a listed page whose PTE has since gone is skipped.
	writable []int64
}

// Pages returns the number of pages the entry spans.
func (e *Entry) Pages() int64 { return int64(e.End-e.Start) / PageSize }

// slot converts a virtual address within the entry to its page number
// within the entry: the index of its PTE.
func (e *Entry) slot(va uint64) int64 { return int64(va-e.Start) / PageSize }

// PTE is a software page-table entry.
type PTE struct {
	Page     *mem.Page
	Writable bool
	Dirty    bool
	Accessed bool
	gen      uint32  // the entry's gen when it was installed
	owner    *Object // the object Page was resident in when it was installed
}

// Map is an address space: the entry list plus the physical map (page
// tables). Address spaces are created by a System and manipulated through
// Read/Write/Fault, which is how the simulation observes every memory
// access — the stand-in for the MMU.
type Map struct {
	vm *System

	entries  []*Entry // sorted by Start; each holds its own page table
	nextAddr uint64
}

// UserBase is where mmap allocations start.
const UserBase = 0x0000_7000_0000_0000

// NewMap returns an empty address space.
func (vm *System) NewMap() *Map {
	return &Map{
		vm:       vm,
		nextAddr: UserBase,
	}
}

// Entries returns a snapshot of the entry list.
func (m *Map) Entries() []*Entry {
	out := make([]*Entry, len(m.entries))
	copy(out, m.entries)
	return out
}

// ResidentBytes sums the resident pages mapped by this address space's page
// tables.
func (m *Map) ResidentBytes() int64 {
	n := 0
	for _, e := range m.entries {
		n += e.ptes.Len()
	}
	return int64(n) * PageSize
}

// AuditPTEs calls fn for every installed page-table entry, in ascending
// virtual-address order, with the owning object recorded at install time.
// For the invariant auditor: it needs the PTE->object association (private
// elsewhere) to cross-check dirty bits and residency against the objects.
func (m *Map) AuditPTEs(fn func(va uint64, pte PTE, obj *Object)) {
	for _, e := range m.entries {
		for i, pte := range e.ptes.All() {
			fn(e.Start+uint64(i)*PageSize, pte, pte.owner)
		}
	}
}

// Map inserts a mapping of obj at a chosen address and returns it. The
// object reference is consumed (the entry now holds it). Length is rounded
// up to whole pages. For a MAP_PRIVATE mapping of a shared object (e.g. a
// file), pass a shadow of that object instead: writes then populate the
// shadow while reads fall through.
func (m *Map) Map(obj *Object, off, length int64, prot Prot, shared bool) (uint64, error) {
	if length <= 0 {
		return 0, fmt.Errorf("vm: non-positive mapping length %d", length)
	}
	if off%PageSize != 0 {
		return 0, fmt.Errorf("vm: unaligned mapping offset %d", off)
	}
	pages := mem.PagesFor(length)
	start := m.nextAddr
	m.nextAddr += uint64(pages*PageSize) + PageSize // guard page gap
	e := &Entry{
		Start:  start,
		End:    start + uint64(pages*PageSize),
		Prot:   prot,
		Obj:    obj,
		Off:    off,
		Shared: shared,
	}
	m.insert(e)
	return start, nil
}

// MapAt inserts a mapping at a fixed address (restore path).
func (m *Map) MapAt(start uint64, obj *Object, off, length int64, prot Prot, shared bool) error {
	if start%PageSize != 0 || off%PageSize != 0 {
		return fmt.Errorf("vm: unaligned MapAt(%#x, off=%d)", start, off)
	}
	pages := mem.PagesFor(length)
	end := start + uint64(pages*PageSize)
	for _, e := range m.entries {
		if start < e.End && e.Start < end {
			return fmt.Errorf("vm: MapAt(%#x) overlaps [%#x,%#x)", start, e.Start, e.End)
		}
	}
	if end+PageSize > m.nextAddr && start >= UserBase {
		m.nextAddr = end + PageSize
	}
	m.insert(&Entry{Start: start, End: end, Prot: prot, Obj: obj, Off: off, Shared: shared})
	return nil
}

// insert adds e to the entry list, keeping it sorted by Start.
func (m *Map) insert(e *Entry) {
	i := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].Start >= e.Start })
	m.entries = append(m.entries, nil)
	copy(m.entries[i+1:], m.entries[i:])
	m.entries[i] = e
}

// Unmap removes the entry containing start, invalidating its PTEs and
// dropping the object reference.
func (m *Map) Unmap(start uint64) error {
	var e *Entry
	idx := -1
	for i, cand := range m.entries {
		if cand.Start == start {
			e, idx = cand, i
			break
		}
	}
	if e == nil {
		return fmt.Errorf("vm: no entry at %#x", start)
	}
	m.entries = append(m.entries[:idx], m.entries[idx+1:]...)
	e.ptes, e.writable = radix.Table[PTE]{}, nil
	m.vm.Clk.Advance(m.vm.Costs.TLBFlush)
	e.Obj.Deref()
	return nil
}

// findEntry returns the entry containing va, nil if none does.
func (m *Map) findEntry(va uint64) *Entry {
	i := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].End > va })
	if i < len(m.entries) && m.entries[i].Start <= va {
		return m.entries[i]
	}
	return nil
}

// EntryAt returns the entry containing va.
func (m *Map) EntryAt(va uint64) (*Entry, bool) {
	e := m.findEntry(va)
	return e, e != nil
}

// Fault resolves a page fault at va, returning the frame. Write faults on
// COW pages copy into the entry's object; read faults may map the backer's
// page read-only, and in a private entry map its resident neighbours too
// (prefault).
func (m *Map) Fault(va uint64, write bool) (*mem.Page, error) {
	base := va &^ uint64(PageSize-1)
	e := m.findEntry(base)
	if e == nil {
		return nil, fmt.Errorf("vm: segmentation fault at %#x", va)
	}
	if write && e.Prot&ProtWrite == 0 {
		return nil, fmt.Errorf("vm: write protection fault at %#x", va)
	}
	obj, gen, slot := e.Obj, e.gen, e.slot(base)
	pg := slot + e.Off/PageSize

	m.vm.Clk.Advance(m.vm.Costs.PageFault)
	if write {
		// Breaking COW upgrades a previously read-only (or absent)
		// translation; sibling cores' TLBs must be shot down.
		m.vm.Clk.Advance(m.vm.Costs.COWShootdown)
	}
	if m.vm.ContentionExtra != nil {
		if extra := m.vm.ContentionExtra(); extra > 0 {
			m.vm.Clk.Advance(extra)
		}
	}
	var (
		p     *mem.Page
		owner *Object
		err   error
	)
	if !write {
		// Read: any page in the chain will do; fill the base on miss.
		p, owner = obj.Lookup(pg)
	}
	if p == nil {
		p, owner, err = obj.getPage(pg, write)
	}
	if err != nil {
		return nil, err
	}
	m.vm.Clk.Advance(m.vm.Costs.PageInstall)
	old, _ := e.ptes.Set(slot, PTE{Page: p, Writable: write, Accessed: true, Dirty: write, gen: gen, owner: owner})
	if write && !old.Writable {
		e.writable = append(e.writable, slot)
	}
	if write {
		p.Dirty = true
		p.Backed = false
	} else {
		m.prefault(e, slot)
	}
	return p, nil
}

// prefaultSpan is how far prefault looks on each side of a read fault's
// slot: FreeBSD's PFBAK and PFFOR.
const prefaultSpan = 4

// prefault maps the resident pages within prefaultSpan slots of a read
// fault's slot that have no PTE, as FreeBSD's vm_fault_prefault does: each
// read-only and not yet accessed, for one PageInstall and no trap. It never
// pages in or allocates, so a page that is not resident stays unmapped, and
// a slot that has a PTE, current or stale, keeps it. In a shared entry,
// pteFor drops a prefaulted PTE once another map copies its page up.
func (m *Map) prefault(e *Entry, slot int64) {
	for s := max(slot-prefaultSpan, 0); s <= min(slot+prefaultSpan, e.Pages()-1); s++ {
		if e.ptes.Ptr(s) != nil {
			continue
		}
		if p, owner := e.Obj.Lookup(s + e.Off/PageSize); p != nil {
			m.vm.Clk.Advance(m.vm.Costs.PageInstall)
			e.ptes.Set(s, PTE{Page: p, gen: e.gen, owner: owner})
		}
	}
}

// pteFor returns the page a usable PTE translates the access to, with the
// PTE's accessed bit (and for a write its dirty bit) set, or nil to take the
// slow path.
func (m *Map) pteFor(base uint64, write bool) *mem.Page {
	e := m.findEntry(base)
	if e == nil {
		return nil
	}
	slot := e.slot(base)
	pte := e.ptes.Ptr(slot)
	if pte == nil || (write && !pte.Writable) {
		return nil
	}
	// The TLB-hit path must still honour object replacement: a stale PTE
	// into a replaced object means the mapping was downgraded. In a shared
	// entry, another map's write may have copied the page up into the top
	// object since this PTE mapped it from below; the PTE drops then, as
	// FreeBSD's pmap_remove_all does on a copy-up.
	if pte.gen != e.gen || e.Shared && pte.owner != e.Obj && e.Obj.pages.Ptr(slot+e.Off/PageSize) != nil {
		e.ptes.Del(slot)
		return nil
	}
	pte.Accessed = true
	pte.Dirty = pte.Dirty || write
	return pte.Page
}

// Write copies buf into the address space at va through the simulated MMU,
// faulting and COW-copying as needed and setting dirty bits.
func (m *Map) Write(va uint64, buf []byte) error {
	for len(buf) > 0 {
		base := va &^ uint64(PageSize-1)
		in := int(va - base)
		run := PageSize - in
		if run > len(buf) {
			run = len(buf)
		}
		p := m.pteFor(base, true)
		if p != nil {
			p.Dirty = true
			p.Backed = false
		} else {
			var err error
			p, err = m.Fault(base, true)
			if err != nil {
				return err
			}
		}
		copy(p.Data[in:], buf[:run])
		buf = buf[run:]
		va += uint64(run)
	}
	return nil
}

// Read copies from the address space at va into buf through the simulated
// MMU.
func (m *Map) Read(va uint64, buf []byte) error {
	for len(buf) > 0 {
		base := va &^ uint64(PageSize-1)
		in := int(va - base)
		run := PageSize - in
		if run > len(buf) {
			run = len(buf)
		}
		p := m.pteFor(base, false)
		if p == nil {
			var err error
			p, err = m.Fault(base, false)
			if err != nil {
				return err
			}
		}
		copy(buf[:run], p.Data[in:in+run])
		buf = buf[run:]
		va += uint64(run)
	}
	return nil
}

// Fork clones the address space with COW semantics: shared mappings alias
// the same object; private writable mappings get one shadow on each side,
// with the original becoming the shared read-only backer — the fork
// behaviour system shadowing must coexist with.
func (m *Map) Fork() *Map {
	child := m.vm.NewMap()
	child.nextAddr = m.nextAddr
	for _, e := range m.entries {
		ce := &Entry{Start: e.Start, End: e.End, Prot: e.Prot, Off: e.Off, Shared: e.Shared, NoCheckpoint: e.NoCheckpoint}
		if !e.Shared && e.Prot&ProtWrite != 0 {
			// Private writable mapping: both sides shadow the original,
			// which becomes the shared read-only backer.
			orig := e.Obj
			parentShadow := m.vm.Shadow(orig)
			childShadow := m.vm.Shadow(orig)
			// Entry references: orig loses the parent entry's ref; the
			// two shadows hold their own backer refs.
			m.replaceEntryObject(e, parentShadow)
			orig.Deref()
			ce.Obj = childShadow
		} else {
			// Shared (or read-only private) mapping: alias the object.
			e.Obj.Ref()
			ce.Obj = e.Obj
		}
		child.insert(ce)
	}
	m.vm.Clk.Advance(m.vm.Costs.TLBFlush)
	return child
}

// replaceEntryObject swaps the object behind an entry and downgrades any
// writable PTEs in the entry's range (they must fault again to land in the
// new object), found through the entry's writable list. The PTEs it keeps
// are stale from here on: the next access through one drops it.
func (m *Map) replaceEntryObject(e *Entry, newObj *Object) {
	e.Obj = newObj
	e.gen++
	downgraded := 0
	for _, slot := range e.writable {
		if pte := e.ptes.Ptr(slot); pte != nil && pte.Writable {
			e.ptes.Del(slot)
			downgraded++
		}
	}
	e.writable = e.writable[:0]
	m.vm.Clk.Advance(time.Duration(downgraded) * m.vm.Costs.PageMarkCOW)
}

// reownPTEs transfers install-owner bookkeeping from one object to another
// for the pages a reversed collapse moved (moved, ascending). The collapse
// moves a frozen shadow's pages down into its backer without touching the
// pmap — page identity is stable, so the installed translations stay valid,
// but the owner recorded at install time would otherwise dangle on the dying
// shadow. Only a moved page can have been resident in it, so the pass visits
// those pages of each entry, not every installed translation.
func (m *Map) reownPTEs(from, to *Object, moved []int64) {
	for _, e := range m.entries {
		first := e.Off / PageSize
		i, _ := slices.BinarySearch(moved, first)
		for _, pg := range moved[i:] {
			if pg >= first+e.Pages() {
				break
			}
			if pte := e.ptes.Ptr(pg - first); pte != nil && pte.owner == from {
				pte.owner = to
			}
		}
	}
}

// InvalidateAll drops every PTE — a full page-table invalidation plus TLB
// shootdown, used after page eviction and lazy restores.
func (m *Map) InvalidateAll() {
	for _, e := range m.entries {
		e.ptes = radix.Table[PTE]{}
		e.writable = e.writable[:0]
	}
	m.vm.Clk.Advance(m.vm.Costs.TLBFlush)
}

// Destroy tears down the address space, releasing all objects.
func (m *Map) Destroy() {
	for _, e := range m.entries {
		e.ptes, e.writable = radix.Table[PTE]{}, nil
		e.Obj.Deref()
	}
	m.entries = nil
}
