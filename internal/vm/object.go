// Package vm implements the Mach-derived virtual memory subsystem the paper
// builds on (§6, Figure 2), in simulation: VM objects with shadow chains,
// VM maps with entries, and a software pmap whose page-table entries carry
// the dirty and accessed bits Aurora's incremental checkpointing relies on.
//
// The paper's two memory mechanisms live here:
//
//   - Object shadowing / collapsing, including Aurora's reversed collapse
//     (move the few pages of the short-lived shadow into the parent, rather
//     than the parent's many pages into the shadow).
//   - System shadowing: one shadow per writable object across every address
//     space of a consistency group, replacing the object in all entries and
//     registered back-references (shared memory descriptors), so memory
//     flushes proceed concurrently with execution while shared-memory
//     semantics are preserved — the capability fork's COW lacks.
package vm

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aurora/internal/clock"
	"aurora/internal/mem"
)

// PageSize aliases the frame size.
const PageSize = mem.PageSize

// ObjectType describes what backs a VM object.
type ObjectType uint8

// VM object types, as in FreeBSD: anonymous (swap-backed), vnode (file
// pages), or device (whitelisted mappable devices like the HPET).
const (
	Anonymous ObjectType = iota
	Vnode
	Device
)

func (t ObjectType) String() string {
	switch t {
	case Anonymous:
		return "anonymous"
	case Vnode:
		return "vnode"
	case Device:
		return "device"
	default:
		return fmt.Sprintf("ObjectType(%d)", uint8(t))
	}
}

// Pager fills object pages from backing storage: file contents for vnode
// objects, checkpointed memory for lazy restores, swap for evicted pages.
type Pager interface {
	// PageIn fills p with the contents of page index pg.
	PageIn(pg int64, p *mem.Page) error
	// BackingOID identifies the backing store object, 0 if none.
	BackingOID() uint64
}

// SparsePager is a Pager that knows which pages it actually holds. Objects
// restored lazily sit in shadow chains: a fault must know whether the
// object's own store content covers the page (use it) or is a hole (fall
// through to the backer). Pagers that don't implement this are treated as
// covering every page (a file's cache, a device).
type SparsePager interface {
	Pager
	HasPage(pg int64) bool
}

// System is the VM subsystem instance: the physical memory it draws frames
// from and the clock it charges.
type System struct {
	PM    *mem.PhysMem
	Clk   clock.Clock
	Costs *clock.Costs

	// ContentionExtra, when set, returns an additional per-fault charge.
	// The SLS installs it to model the lock contention between page
	// faults and the concurrent flush/collapse work that §6 calls out:
	// faults serialize on VM object locks while shadows are being
	// flushed and collapsed.
	ContentionExtra func() time.Duration

	nextObjID atomic.Uint64
}

// NewSystem returns a VM subsystem.
func NewSystem(pm *mem.PhysMem, clk clock.Clock, costs *clock.Costs) *System {
	return &System{PM: pm, Clk: clk, Costs: costs}
}

// Object is a VM object: a mappable collection of pages, optionally
// shadowing a backer whose pages show through where the shadow has none.
type Object struct {
	vm *System

	// ID is the kernel identity of the object, used by the orchestrator's
	// kernel-address -> on-disk-object mapping.
	ID   uint64
	Type ObjectType

	mu     sync.Mutex
	pages  map[int64]*mem.Page
	size   int64 // bytes
	backer *Object
	pager  Pager

	ref     int32 // map entries + back-references holding this object
	shadows int32 // shadows directly backed by this object
	dead    bool
}

// NewObject creates an unmapped object of size bytes.
func (vm *System) NewObject(t ObjectType, size int64) *Object {
	return &Object{
		vm:    vm,
		ID:    vm.nextObjID.Add(1),
		Type:  t,
		pages: make(map[int64]*mem.Page),
		size:  size,
		ref:   1,
	}
}

// NewPagedObject creates an object whose misses fill from pager.
func (vm *System) NewPagedObject(t ObjectType, size int64, pager Pager) *Object {
	o := vm.NewObject(t, size)
	o.pager = pager
	return o
}

// RestoreObject rebuilds an object from checkpointed metadata: its pages
// fill lazily from pager, and it may sit on a restored backer (whose
// reference it consumes). Used by the SLS restore path.
func (vm *System) RestoreObject(t ObjectType, size int64, pager Pager, backer *Object) *Object {
	o := vm.NewObject(t, size)
	o.pager = pager
	if backer != nil {
		o.backer = backer
		backer.mu.Lock()
		backer.shadows++
		backer.mu.Unlock()
	}
	return o
}

// Size returns the object's size in bytes.
func (o *Object) Size() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.size
}

// Pages returns the number of resident pages (this object only, not the
// shadow chain).
func (o *Object) Pages() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.pages)
}

// CountPages returns how many of the object's own resident pages satisfy
// keep. Unlike EachPage it visits in map order and holds the object lock, so
// keep must only inspect the page.
func (o *Object) CountPages(keep func(*mem.Page) bool) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, p := range o.pages {
		if keep(p) {
			n++
		}
	}
	return n
}

// Backer returns the object this object shadows, if any.
func (o *Object) Backer() *Object {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.backer
}

// Pager returns the object's pager, if any.
func (o *Object) Pager() Pager {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.pager
}

// SetPager installs a pager on an existing object. The SLS uses this once
// an object's content is on the store: from then on the object's pages can
// be evicted and fault back in — the unified checkpoint/swap data path of
// §6 (swap metadata lives in the store, surviving crashes, unlike a
// conventional swap partition).
func (o *Object) SetPager(p Pager) {
	o.mu.Lock()
	o.pager = p
	o.mu.Unlock()
}

// ChainLength returns the number of objects in the shadow chain, including
// this one.
func (o *Object) ChainLength() int {
	n := 0
	for c := o; c != nil; c = c.Backer() {
		n++
	}
	return n
}

// ShadowCount reports how many shadows directly back onto this object.
func (o *Object) ShadowCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return int(o.shadows)
}

// Terminal returns the bottom of the shadow chain (exported form).
func (o *Object) Terminal() *Object { return o.terminal() }

// RefCount returns the current reference count (auditing).
func (o *Object) RefCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return int(o.ref)
}

// Dead reports whether the object has been fully dereferenced (auditing —
// a dead object reachable from a map or table is an invariant violation).
func (o *Object) Dead() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.dead
}

// Ref takes a reference.
func (o *Object) Ref() {
	o.mu.Lock()
	o.ref++
	o.mu.Unlock()
}

// Deref drops a reference; the last reference frees the object's pages and
// releases its backer.
func (o *Object) Deref() {
	o.mu.Lock()
	o.ref--
	if o.ref > 0 {
		o.mu.Unlock()
		return
	}
	o.dead = true
	backer := o.backer
	o.backer = nil
	for pg, p := range o.pages {
		o.vm.PM.Free(p)
		delete(o.pages, pg)
	}
	o.mu.Unlock()
	if backer != nil {
		backer.mu.Lock()
		backer.shadows--
		backer.mu.Unlock()
		backer.Deref()
	}
}

// Shadow creates a COW shadow over o: the shadow starts empty, and pages
// not present in it show through from o. Shadows are always anonymous —
// their private pages are swap-backed regardless of what ultimately backs
// the chain. The returned shadow carries one (creator) reference; o gains a
// backer reference.
func (vm *System) Shadow(o *Object) *Object {
	vm.Clk.Advance(vm.Costs.ShadowCreate)
	s := vm.NewObject(Anonymous, o.Size())
	s.backer = o
	o.mu.Lock()
	o.shadows++
	o.ref++ // the shadow's backer reference
	o.mu.Unlock()
	return s
}

// lookupLocked finds page pg in this object only. Requires mu.
func (o *Object) lookupLocked(pg int64) (*mem.Page, bool) {
	p, ok := o.pages[pg]
	return p, ok
}

// Lookup walks the shadow chain for page pg, returning the page and the
// object that owns it.
func (o *Object) Lookup(pg int64) (*mem.Page, *Object) {
	for c := o; c != nil; {
		c.mu.Lock()
		if p, ok := c.pages[pg]; ok {
			c.mu.Unlock()
			return p, c
		}
		next := c.backer
		c.mu.Unlock()
		c = next
	}
	return nil, nil
}

// terminal returns the bottom of the shadow chain.
func (o *Object) terminal() *Object {
	c := o
	for {
		next := c.Backer()
		if next == nil {
			return c
		}
		c = next
	}
}

// pageInLocal faults page pg into o itself from o's pager, returning the
// resident page (existing or freshly filled).
func (o *Object) pageInLocal(pg int64) (*mem.Page, error) {
	o.mu.Lock()
	if p, ok := o.pages[pg]; ok {
		o.mu.Unlock()
		return p, nil
	}
	pager := o.pager
	o.mu.Unlock()
	p, err := o.vm.PM.Alloc()
	if err != nil {
		return nil, err
	}
	if pager != nil {
		if err := pager.PageIn(pg, p); err != nil {
			o.vm.PM.Free(p)
			return nil, fmt.Errorf("vm: page-in %d: %w", pg, err)
		}
	}
	o.mu.Lock()
	if exist, ok := o.pages[pg]; ok {
		o.mu.Unlock()
		o.vm.PM.Free(p)
		return exist, nil
	}
	o.pages[pg] = p
	o.mu.Unlock()
	return p, nil
}

// chainPage resolves page pg by walking the chain from o downward. At each
// level a resident page wins; otherwise the level's own pager is consulted
// (sparse pagers only where they hold the page; non-sparse pagers — file
// caches, devices — are authoritative at the chain terminal). It returns
// the page and the owning object, or (nil, nil) for a true hole.
func (o *Object) chainPage(pg int64) (*mem.Page, *Object, error) {
	for c := o; c != nil; c = c.Backer() {
		c.mu.Lock()
		if p, ok := c.pages[pg]; ok {
			c.mu.Unlock()
			return p, c, nil
		}
		pager := c.pager
		terminal := c.backer == nil
		c.mu.Unlock()
		if pager == nil {
			continue
		}
		if sp, ok := pager.(SparsePager); ok {
			if !sp.HasPage(pg) {
				continue
			}
		} else if !terminal {
			// Non-sparse pagers mid-chain would shadow everything
			// below; only honour them at the terminal.
			continue
		}
		p, err := c.pageInLocal(pg)
		if err != nil {
			return nil, nil, err
		}
		return p, c, nil
	}
	return nil, nil, nil
}

// FindPage resolves pg for reading through the chain and pagers without
// materializing holes (no allocation for never-written pages). Used by
// inspection paths like the core dumper.
func (o *Object) FindPage(pg int64) (*mem.Page, error) {
	p, _, err := o.chainPage(pg)
	return p, err
}

// GetPage returns page pg of o: a resident page is returned as-is; on a
// miss the shadow chain (including each level's pager) is searched. For
// reads the chain's page is shared; for writes a private copy lands in o
// itself — the COW resolution.
func (o *Object) GetPage(pg int64, forWrite bool) (*mem.Page, error) {
	o.mu.Lock()
	if p, ok := o.pages[pg]; ok {
		o.mu.Unlock()
		return p, nil
	}
	o.mu.Unlock()

	src, owner, err := o.chainPage(pg)
	if err != nil {
		return nil, err
	}
	if owner == o {
		// The object's own pager filled it (resident now).
		return src, nil
	}
	if src != nil && !forWrite {
		// Read access shares the lower page.
		return src, nil
	}

	// Need a private page in o: copy from below or zero fill.
	p, err := o.vm.PM.Alloc()
	if err != nil {
		return nil, err
	}
	if src != nil {
		o.vm.Clk.Advance(o.vm.Costs.MemCopyPerPage)
		p.Copy(src)
	}
	o.mu.Lock()
	if exist, ok := o.pages[pg]; ok {
		// Lost a race; keep the existing page.
		o.mu.Unlock()
		o.vm.PM.Free(p)
		return exist, nil
	}
	o.pages[pg] = p
	o.mu.Unlock()
	return p, nil
}

// InsertPage places a frame at page index pg, replacing and freeing any
// existing frame. Used by restore and swap-in paths.
func (o *Object) InsertPage(pg int64, p *mem.Page) {
	o.mu.Lock()
	if old, ok := o.pages[pg]; ok {
		o.vm.PM.Free(old)
	}
	o.pages[pg] = p
	o.mu.Unlock()
}

// RemovePage evicts page pg from the object (swap-out), returning it. The
// caller owns writing it back and freeing it.
func (o *Object) RemovePage(pg int64) (*mem.Page, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	p, ok := o.pages[pg]
	if ok {
		delete(o.pages, pg)
	}
	return p, ok
}

// ResidentPage returns the object's own resident page pg without walking
// the backer chain and without faulting — what the restore loader skips.
func (o *Object) ResidentPage(pg int64) (*mem.Page, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	p, ok := o.pages[pg]
	return p, ok
}

// EachPage calls fn for every resident page in ascending page order — the
// flush path depends on the order being deterministic so that two runs of
// the same workload submit the identical write stream (crash-replay
// harnesses count on it). fn must not re-enter the object.
func (o *Object) EachPage(fn func(pg int64, p *mem.Page)) {
	o.mu.Lock()
	idxs := make([]int64, 0, len(o.pages))
	for pg := range o.pages {
		idxs = append(idxs, pg)
	}
	o.mu.Unlock()
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, pg := range idxs {
		o.mu.Lock()
		p, ok := o.pages[pg]
		o.mu.Unlock()
		if ok {
			fn(pg, p)
		}
	}
}

// CollapseAurora merges a fully-flushed shadow o into its backer by moving
// o's pages down: the backer's stale versions are freed and replaced. This
// is Aurora's reversed collapse — linear in the (few) pages of the
// short-lived shadow rather than the (many) pages of the parent. Callers
// must ensure o has exactly one shadow above it holding the live mapping;
// that shadow's backer pointer is rewired to o's backer. It returns the
// number of pages moved.
func CollapseAurora(top, o *Object) int {
	if top.Backer() != o {
		panic("vm: CollapseAurora: top does not shadow o")
	}
	backer := o.Backer()
	if backer == nil {
		panic("vm: CollapseAurora: o has no backer")
	}
	moved := 0
	o.mu.Lock()
	pages := o.pages
	o.pages = make(map[int64]*mem.Page)
	o.mu.Unlock()
	for pg, p := range pages {
		backer.InsertPage(pg, p)
		o.vm.Clk.Advance(o.vm.Costs.CollapsePerPage)
		moved++
	}
	unlink(top, o, backer)
	return moved
}

// CollapseLegacy merges the backer of o upward into o by copying the
// backer's pages into o where o has none — the original Mach direction,
// linear in the parent's resident pages. Used by the ablation benchmark.
// top is the live shadow above o. It returns the number of pages moved.
func CollapseLegacy(top, o *Object) int {
	if top.Backer() != o {
		panic("vm: CollapseLegacy: top does not shadow o")
	}
	backer := o.Backer()
	if backer == nil {
		panic("vm: CollapseLegacy: o has no backer")
	}
	moved := 0
	backer.mu.Lock()
	pages := make(map[int64]*mem.Page, len(backer.pages))
	for pg, p := range backer.pages {
		pages[pg] = p
	}
	backer.pages = make(map[int64]*mem.Page)
	grandpa := backer.backer
	backer.mu.Unlock()
	for pg, p := range pages {
		o.mu.Lock()
		if _, ok := o.pages[pg]; ok {
			// The shadow's version wins; the backer's page dies.
			o.mu.Unlock()
			o.vm.PM.Free(p)
		} else {
			o.pages[pg] = p
			o.mu.Unlock()
		}
		o.vm.Clk.Advance(o.vm.Costs.CollapsePerPage)
		moved++
	}
	// o now absorbs the backer: it inherits the backer's backer.
	o.mu.Lock()
	old := o.backer
	o.backer = grandpa
	o.mu.Unlock()
	if old != nil {
		old.mu.Lock()
		old.shadows--
		old.backer = nil // pages already transferred; don't double-free chain
		old.mu.Unlock()
		old.Deref()
	}
	return moved
}

// unlink removes o from the chain top -> o -> backer, transferring the
// backer reference. Requires that o's pages have already been disposed of.
func unlink(top, o, backer *Object) {
	top.mu.Lock()
	top.backer = backer
	top.mu.Unlock()
	backer.mu.Lock()
	backer.shadows++ // top now shadows backer directly
	backer.ref++
	backer.mu.Unlock()

	o.mu.Lock()
	o.shadows--
	o.mu.Unlock()
	o.Deref() // drops o's own existence (the top's old backer ref)
}
