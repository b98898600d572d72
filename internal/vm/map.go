package vm

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"aurora/internal/mem"
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

	// writable lists the VAs whose PTE Fault installed writable (the only
	// place one becomes so) since the last downgrade. Invariant, under
	// Map.mu: every writable PTE in [Start, End) is listed, so a downgrade
	// visits the pages written, not the mapping. Emptied by a downgrade and
	// by InvalidateAll; a listed VA whose PTE has since gone is skipped.
	writable []uint64
}

// Pages returns the number of pages the entry spans.
func (e *Entry) Pages() int64 { return int64(e.End-e.Start) / PageSize }

// pageIndex converts a virtual address within the entry to the backing
// object's page index.
func (e *Entry) pageIndex(va uint64) int64 {
	return int64(va-e.Start)/PageSize + e.Off/PageSize
}

// PTE is a software page-table entry.
type PTE struct {
	Page     *mem.Page
	Writable bool
	Dirty    bool
	Accessed bool
	obj      *Object // the object owning Page when it was installed
}

// Map is an address space: the entry list plus the physical map (page
// tables). Address spaces are created by a System and manipulated through
// Read/Write/Fault, which is how the simulation observes every memory
// access — the stand-in for the MMU.
type Map struct {
	vm *System

	mu       sync.Mutex
	entries  []*Entry // sorted by Start
	ptes     map[uint64]*PTE
	nextAddr uint64
}

// UserBase is where mmap allocations start.
const UserBase = 0x0000_7000_0000_0000

// NewMap returns an empty address space.
func (vm *System) NewMap() *Map {
	return &Map{
		vm:       vm,
		ptes:     make(map[uint64]*PTE),
		nextAddr: UserBase,
	}
}

// System returns the owning VM system.
func (m *Map) System() *System { return m.vm }

// Entries returns a snapshot of the entry list.
func (m *Map) Entries() []*Entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Entry, len(m.entries))
	copy(out, m.entries)
	return out
}

// ResidentBytes sums the resident pages mapped by this address space's page
// tables.
func (m *Map) ResidentBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(len(m.ptes)) * PageSize
}

// AuditPTEs calls fn for every installed page-table entry, in ascending
// virtual-address order, with the owning object recorded at install time.
// For the invariant auditor: it needs the PTE->object association (private
// elsewhere) to cross-check dirty bits and residency against the objects.
func (m *Map) AuditPTEs(fn func(va uint64, pte PTE, obj *Object)) {
	m.mu.Lock()
	vas := make([]uint64, 0, len(m.ptes))
	for va := range m.ptes {
		vas = append(vas, va)
	}
	sort.Slice(vas, func(i, j int) bool { return vas[i] < vas[j] })
	type ent struct {
		va  uint64
		pte PTE
		obj *Object
	}
	ents := make([]ent, 0, len(vas))
	for _, va := range vas {
		p := m.ptes[va]
		ents = append(ents, ent{va, *p, p.obj})
	}
	m.mu.Unlock()
	for _, e := range ents {
		fn(e.va, e.pte, e.obj)
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
	m.mu.Lock()
	defer m.mu.Unlock()
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
	m.insertLocked(e)
	return start, nil
}

// MapAt inserts a mapping at a fixed address (restore path).
func (m *Map) MapAt(start uint64, obj *Object, off, length int64, prot Prot, shared bool) error {
	if start%PageSize != 0 || off%PageSize != 0 {
		return fmt.Errorf("vm: unaligned MapAt(%#x, off=%d)", start, off)
	}
	pages := mem.PagesFor(length)
	end := start + uint64(pages*PageSize)
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.entries {
		if start < e.End && e.Start < end {
			return fmt.Errorf("vm: MapAt(%#x) overlaps [%#x,%#x)", start, e.Start, e.End)
		}
	}
	if end+PageSize > m.nextAddr && start >= UserBase {
		m.nextAddr = end + PageSize
	}
	m.insertLocked(&Entry{Start: start, End: end, Prot: prot, Obj: obj, Off: off, Shared: shared})
	return nil
}

// insertLocked requires mu.
func (m *Map) insertLocked(e *Entry) {
	i := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].Start >= e.Start })
	m.entries = append(m.entries, nil)
	copy(m.entries[i+1:], m.entries[i:])
	m.entries[i] = e
}

// Unmap removes the entry containing start, invalidating its PTEs and
// dropping the object reference.
func (m *Map) Unmap(start uint64) error {
	m.mu.Lock()
	var e *Entry
	idx := -1
	for i, cand := range m.entries {
		if cand.Start == start {
			e, idx = cand, i
			break
		}
	}
	if e == nil {
		m.mu.Unlock()
		return fmt.Errorf("vm: no entry at %#x", start)
	}
	m.entries = append(m.entries[:idx], m.entries[idx+1:]...)
	for va := e.Start; va < e.End; va += PageSize {
		delete(m.ptes, va)
	}
	m.mu.Unlock()
	m.vm.Clk.Advance(m.vm.Costs.TLBFlush)
	e.Obj.Deref()
	return nil
}

// findEntry requires mu.
func (m *Map) findEntry(va uint64) *Entry {
	i := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].End > va })
	if i < len(m.entries) && m.entries[i].Start <= va {
		return m.entries[i]
	}
	return nil
}

// EntryAt returns the entry containing va.
func (m *Map) EntryAt(va uint64) (*Entry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.findEntry(va)
	return e, e != nil
}

// Fault resolves a page fault at va, returning the frame. Write faults on
// COW pages copy into the entry's object; read faults may map the backer's
// page read-only.
func (m *Map) Fault(va uint64, write bool) (*mem.Page, error) {
	base := va &^ uint64(PageSize-1)
	m.mu.Lock()
	e := m.findEntry(base)
	if e == nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("vm: segmentation fault at %#x", va)
	}
	if write && e.Prot&ProtWrite == 0 {
		m.mu.Unlock()
		return nil, fmt.Errorf("vm: write protection fault at %#x", va)
	}
	obj := e.Obj
	pg := e.pageIndex(base)
	m.mu.Unlock()

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
		p   *mem.Page
		err error
	)
	if write {
		p, err = obj.GetPage(pg, true)
	} else {
		// Read: any page in the chain will do; fill the base on miss.
		if found, _ := obj.Lookup(pg); found != nil {
			p = found
		} else {
			p, err = obj.GetPage(pg, false)
		}
	}
	if err != nil {
		return nil, err
	}
	m.vm.Clk.Advance(m.vm.Costs.PageInstall)
	m.mu.Lock()
	if old := m.ptes[base]; write && (old == nil || !old.Writable) {
		e.writable = append(e.writable, base)
	}
	m.ptes[base] = &PTE{Page: p, Writable: write, Accessed: true, Dirty: write, obj: obj}
	m.mu.Unlock()
	p.Referenced = true
	if write {
		p.Dirty = true
		p.Backed = false
	}
	return p, nil
}

// pteFor returns a usable PTE for the access, or nil to take the slow path.
func (m *Map) pteFor(base uint64, write bool) *PTE {
	m.mu.Lock()
	defer m.mu.Unlock()
	pte, ok := m.ptes[base]
	if !ok || (write && !pte.Writable) {
		return nil
	}
	// The TLB-hit path must still honour object replacement: a stale PTE
	// into a replaced object means the mapping was downgraded.
	e := m.findEntry(base)
	if e == nil || pte.obj != e.Obj {
		delete(m.ptes, base)
		return nil
	}
	return pte
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
		var p *mem.Page
		if pte := m.pteFor(base, true); pte != nil {
			p = pte.Page
			pte.Dirty = true
			pte.Accessed = true
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
		var p *mem.Page
		if pte := m.pteFor(base, false); pte != nil {
			p = pte.Page
			pte.Accessed = true
		} else {
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
	m.mu.Lock()
	entries := make([]*Entry, len(m.entries))
	copy(entries, m.entries)
	nextAddr := m.nextAddr
	m.mu.Unlock()
	child.nextAddr = nextAddr

	for _, e := range entries {
		ce := &Entry{Start: e.Start, End: e.End, Prot: e.Prot, Off: e.Off, Shared: e.Shared}
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
		child.mu.Lock()
		child.insertLocked(ce)
		child.mu.Unlock()
	}
	m.vm.Clk.Advance(m.vm.Costs.TLBFlush)
	return child
}

// replaceEntryObject swaps the object behind an entry and downgrades any
// writable PTEs in the entry's range (they must fault again to land in the
// new object), found through the entry's writable list.
func (m *Map) replaceEntryObject(e *Entry, newObj *Object) {
	m.mu.Lock()
	e.Obj = newObj
	downgraded := 0
	for _, va := range e.writable {
		if pte, ok := m.ptes[va]; ok && pte.Writable {
			delete(m.ptes, va)
			downgraded++
		}
	}
	e.writable = e.writable[:0]
	if downgraded > 3*len(m.ptes) {
		// Deletes leave a map at its peak size, and ReownPTEs iterates it at
		// that size: repack what a mass downgrade left.
		packed := make(map[uint64]*PTE, len(m.ptes))
		for va, pte := range m.ptes {
			packed[va] = pte
		}
		m.ptes = packed
	}
	m.mu.Unlock()
	m.vm.Clk.Advance(time.Duration(downgraded) * m.vm.Costs.PageMarkCOW)
}

// ReownPTEs transfers install-owner bookkeeping from one object to
// another. The reversed collapse moves a frozen shadow's pages down into
// its backer without touching the pmap — page identity is stable, so the
// installed translations stay valid, but the owner recorded at install
// time would otherwise dangle on the dying shadow.
func (m *Map) ReownPTEs(from, to *Object) {
	m.mu.Lock()
	for _, pte := range m.ptes {
		if pte.obj == from {
			pte.obj = to
		}
	}
	m.mu.Unlock()
}

// InvalidateAll drops every PTE — a full page-table invalidation plus TLB
// shootdown, used after page eviction and lazy restores.
func (m *Map) InvalidateAll() {
	m.mu.Lock()
	m.ptes = make(map[uint64]*PTE)
	for _, e := range m.entries {
		e.writable = e.writable[:0]
	}
	m.mu.Unlock()
	m.vm.Clk.Advance(m.vm.Costs.TLBFlush)
}

// DirtyPages returns the number of dirty PTEs (diagnostic).
func (m *Map) DirtyPages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, pte := range m.ptes {
		if pte.Dirty {
			n++
		}
	}
	return n
}

// Destroy tears down the address space, releasing all objects.
func (m *Map) Destroy() {
	m.mu.Lock()
	entries := m.entries
	m.entries = nil
	m.ptes = make(map[uint64]*PTE)
	m.mu.Unlock()
	for _, e := range entries {
		e.Obj.Deref()
	}
}
