// Package mem implements the simulated physical memory layer.
//
// Go's runtime owns the real address space, so "physical memory" in this
// reproduction is explicit: a Page is a 4 KiB frame with the per-page state
// the Aurora mechanisms depend on (a dirty bit, and whether the store holds
// the frame's contents). All application data lives in frames allocated from
// a PhysMem, and is only reached through the simulated MMU in internal/vm —
// that is what makes dirty-set tracking meaningful. The capacity gives the
// page daemon (§6, sls.Orchestrator.PageDaemonPass) pressure to respond to.
package mem

import "errors"

// PageSize is the frame size, matching the x86-64 base page.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// ErrNoMemory is returned when PhysMem cannot satisfy an allocation.
var ErrNoMemory = errors.New("mem: out of physical memory")

// Page is one physical frame. A Page is owned by at most one VM object at a
// time.
type Page struct {
	Data []byte // always PageSize long

	// Dirty is set when the frame is modified through the MMU and cleared
	// when the frame is written to stable storage.
	Dirty bool
	// Clean pages already captured by a checkpoint can be reclaimed
	// without IO; Backed records the on-store location is valid.
	Backed bool
}

// Copy copies src's contents into p and marks p dirty.
func (p *Page) Copy(src *Page) {
	copy(p.Data, src.Data)
	p.Dirty = true
	p.Backed = false
}

// Zero clears the frame contents.
func (p *Page) Zero() { clear(p.Data) }

// PhysMem is the physical frame allocator. It enforces a capacity so the
// paging policy (memory overcommitment, §6) has real pressure to respond to.
type PhysMem struct {
	capacity int64 // max frames; 0 means unlimited
	used     int64
	free     []*Page // recycled frames
	slab     []Page  // fresh frames not yet handed out
}

// New returns a PhysMem with capacity totalBytes (rounded down to whole
// pages). A totalBytes of 0 means unlimited.
func New(totalBytes int64) *PhysMem {
	return &PhysMem{capacity: totalBytes / PageSize}
}

// slabFrames is how many fresh frames PhysMem carves from one allocation.
const slabFrames = 64

// Alloc returns a zeroed frame, or ErrNoMemory when at capacity.
func (pm *PhysMem) Alloc() (*Page, error) {
	p, recycled, err := pm.take()
	if recycled {
		p.Zero()
	}
	return p, err
}

// AllocUnzeroed is Alloc for a caller that overwrites the whole frame before
// anything reads it — a copy-on-write copy, a page read from the store: a
// recycled frame keeps its old bytes instead of being zeroed first.
func (pm *PhysMem) AllocUnzeroed() (*Page, error) {
	p, _, err := pm.take()
	return p, err
}

// take hands out a recycled frame, its flags reset and its bytes as they
// were, or a fresh one, zeroed, from the current slab.
func (pm *PhysMem) take() (p *Page, recycled bool, err error) {
	if pm.capacity > 0 && pm.used >= pm.capacity {
		return nil, false, ErrNoMemory
	}
	pm.used++
	if n := len(pm.free); n > 0 {
		p = pm.free[n-1]
		pm.free = pm.free[:n-1]
		p.Dirty, p.Backed = false, false
		return p, true, nil
	}
	if len(pm.slab) == 0 {
		data := make([]byte, slabFrames*PageSize)
		pm.slab = make([]Page, slabFrames)
		for i := range pm.slab {
			pm.slab[i].Data = data[i*PageSize : (i+1)*PageSize : (i+1)*PageSize]
		}
	}
	p, pm.slab = &pm.slab[0], pm.slab[1:]
	return p, false, nil
}

// MustAlloc is Alloc for callers that treat exhaustion as a program error.
func (pm *PhysMem) MustAlloc() *Page {
	p, err := pm.Alloc()
	if err != nil {
		panic(err)
	}
	return p
}

// Free returns a frame to the allocator.
func (pm *PhysMem) Free(p *Page) {
	pm.used--
	pm.free = append(pm.free, p)
}

// Pressure reports the fraction of capacity in use, in [0,1]. With no
// capacity limit it reports 0.
func (pm *PhysMem) Pressure() float64 {
	if pm.capacity == 0 {
		return 0
	}
	return float64(pm.used) / float64(pm.capacity)
}

// Used reports the number of allocated frames.
func (pm *PhysMem) Used() int64 { return pm.used }

// PagesFor returns how many frames span n bytes.
func PagesFor(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return (n + PageSize - 1) / PageSize
}
