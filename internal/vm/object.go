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
//
// Pages are indexed by number, never hashed: an object's resident pages
// (Object.pages) and each map entry's PTEs (Entry.ptes) are a radix.Table, so
// every walk visits pages in ascending order without a sort.
package vm

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"aurora/internal/clock"
	"aurora/internal/mem"
	"aurora/internal/radix"
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
	pages  radix.Table[*mem.Page] // resident pages by page number
	size   int64                  // bytes
	backer *Object
	pager  Pager

	ref     int32 // map entries + back-references holding this object
	shadows int32 // shadows directly backed by this object
	dead    bool
}

// NewObject creates an unmapped object of size bytes.
func (vm *System) NewObject(t ObjectType, size int64) *Object {
	return &Object{
		vm:   vm,
		ID:   vm.nextObjID.Add(1),
		Type: t,
		size: size,
		ref:  1,
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
	return o.pages.Len()
}

// CountPages returns how many of the object's own resident pages satisfy
// keep. Unlike EachPage it holds the object lock throughout, so keep must
// only inspect the page.
func (o *Object) CountPages(keep func(*mem.Page) bool) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, p := range o.pages.All() {
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
	for _, p := range o.pages.All() {
		o.vm.PM.Free(p)
	}
	o.pages = radix.Table[*mem.Page]{}
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

// Lookup walks the shadow chain for page pg, returning the page and the
// object that owns it.
func (o *Object) Lookup(pg int64) (*mem.Page, *Object) {
	for c := o; c != nil; {
		c.mu.Lock()
		if p, ok := c.pages.Get(pg); ok {
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
	if p, ok := o.pages.Get(pg); ok {
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
	if exist, ok := o.pages.Get(pg); ok {
		o.mu.Unlock()
		o.vm.PM.Free(p)
		return exist, nil
	}
	o.pages.Set(pg, p)
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
		if p, ok := c.pages.Get(pg); ok {
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

// getPage returns page pg of o and the object it is resident in: a resident
// page is returned as-is; on a miss the shadow chain (including each level's
// pager) is searched. For reads the chain's page is shared; for writes a
// private copy lands in o itself — the COW resolution.
func (o *Object) getPage(pg int64, forWrite bool) (*mem.Page, *Object, error) {
	o.mu.Lock()
	if p, ok := o.pages.Get(pg); ok {
		o.mu.Unlock()
		return p, o, nil
	}
	o.mu.Unlock()

	src, owner, err := o.chainPage(pg)
	if err != nil {
		return nil, nil, err
	}
	if owner == o || src != nil && !forWrite {
		// The object's own pager filled it (resident now), or read access
		// shares the lower page.
		return src, owner, nil
	}

	// Need a private page in o: copy from below or zero fill.
	var p *mem.Page
	if src == nil {
		p, err = o.vm.PM.Alloc()
	} else if p, err = o.vm.PM.AllocUnzeroed(); err == nil { // the copy overwrites every byte
		o.vm.Clk.Advance(o.vm.Costs.MemCopyPerPage)
		p.Copy(src)
	}
	if err != nil {
		return nil, nil, err
	}
	o.mu.Lock()
	if exist, ok := o.pages.Get(pg); ok {
		// Lost a race; keep the existing page.
		o.mu.Unlock()
		o.vm.PM.Free(p)
		return exist, o, nil
	}
	o.pages.Set(pg, p)
	o.mu.Unlock()
	return p, o, nil
}

// InsertPage places a frame at page index pg, replacing and freeing any
// existing frame. Used by restore and swap-in paths.
func (o *Object) InsertPage(pg int64, p *mem.Page) {
	o.mu.Lock()
	if old, had := o.pages.Set(pg, p); had {
		o.vm.PM.Free(old)
	}
	o.mu.Unlock()
}

// RemovePage evicts page pg from the object (swap-out), returning it. The
// caller owns writing it back and freeing it.
func (o *Object) RemovePage(pg int64) (*mem.Page, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.pages.Del(pg)
}

// ResidentPage returns the object's own resident page pg without walking
// the backer chain and without faulting — what the restore loader skips.
func (o *Object) ResidentPage(pg int64) (*mem.Page, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.pages.Get(pg)
}

// EachPage calls fn for every resident page in ascending page order — the
// flush path depends on the order being deterministic so that two runs of
// the same workload submit the identical write stream (crash-replay
// harnesses count on it). fn must not re-enter the object.
//
// The walk holds the object lock for one leaf of the page index (64 page
// numbers) at a time and calls fn without it. A page removed concurrently is
// still visited if its leaf was read before the removal; a page inserted
// concurrently is visited only if its leaf was read after the insertion.
func (o *Object) EachPage(fn func(pg int64, p *mem.Page)) {
	for from := int64(0); ; { // page numbers are never negative
		o.mu.Lock()
		base, l := o.pages.LeafFrom(from)
		if l == nil {
			o.mu.Unlock()
			return
		}
		used, slots := l.Used, l.Slots
		o.mu.Unlock()
		for s := used; s != 0; s &= s - 1 {
			i := bits.TrailingZeros64(s)
			fn(base+int64(i), slots[i])
		}
		from = base + radix.LeafSize
	}
}

// CollapseAurora merges a fully-flushed shadow o into its backer by moving
// o's pages down, in page order under one hold of the backer's lock: the
// backer's stale versions are freed and replaced. This is Aurora's reversed
// collapse — linear in the (few) pages of the short-lived shadow rather than
// the (many) pages of the parent. Callers must ensure o has exactly one
// shadow above it holding the live mapping; that shadow's backer pointer is
// rewired to o's backer. The PTEs of maps that translate a moved page as o's
// follow it to the backer (Map.reownPTEs), so none is left owned by the dead
// shadow. It returns the number of pages moved.
func CollapseAurora(top, o *Object, maps ...*Map) int {
	if top.Backer() != o {
		panic("vm: CollapseAurora: top does not shadow o")
	}
	backer := o.Backer()
	if backer == nil {
		panic("vm: CollapseAurora: o has no backer")
	}
	o.mu.Lock()
	pages := o.pages
	o.pages = radix.Table[*mem.Page]{}
	o.mu.Unlock()
	var moved []int64
	if len(maps) > 0 {
		moved = make([]int64, 0, pages.Len())
	}
	backer.mu.Lock()
	for pg, p := range pages.All() {
		if old, had := backer.pages.Set(pg, p); had {
			o.vm.PM.Free(old)
		}
		if len(maps) > 0 {
			moved = append(moved, pg)
		}
	}
	backer.mu.Unlock()
	n := pages.Len()
	o.vm.Clk.Advance(time.Duration(n) * o.vm.Costs.CollapsePerPage)
	for _, m := range maps {
		m.reownPTEs(o, backer, moved)
	}
	unlink(top, o, backer)
	return n
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
	backer.mu.Lock()
	pages := backer.pages
	backer.pages = radix.Table[*mem.Page]{}
	grandpa := backer.backer
	backer.mu.Unlock()
	o.mu.Lock()
	for pg, p := range pages.All() {
		if _, ok := o.pages.Get(pg); ok {
			// The shadow's version wins; the backer's page dies.
			o.vm.PM.Free(p)
		} else {
			o.pages.Set(pg, p)
		}
	}
	// o now absorbs the backer: it inherits the backer's backer.
	old := o.backer
	o.backer = grandpa
	o.mu.Unlock()
	n := pages.Len()
	o.vm.Clk.Advance(time.Duration(n) * o.vm.Costs.CollapsePerPage)
	if old != nil {
		old.mu.Lock()
		old.shadows--
		old.backer = nil // pages already transferred; don't double-free chain
		old.mu.Unlock()
		old.Deref()
	}
	return n
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
