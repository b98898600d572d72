// Package mem implements the simulated physical memory layer.
//
// Go's runtime owns the real address space, so "physical memory" in this
// reproduction is explicit: a Page is a 4 KiB frame with the per-page state
// the Aurora mechanisms depend on (dirty and referenced bits, a wired count,
// and queue membership for the paging policy). All application data lives in
// frames allocated from a PhysMem, and is only reached through the simulated
// MMU in internal/vm — that is what makes dirty-set tracking meaningful.
package mem

import (
	"errors"
	"fmt"
)

// PageSize is the frame size, matching the x86-64 base page.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// ErrNoMemory is returned when PhysMem cannot satisfy an allocation.
var ErrNoMemory = errors.New("mem: out of physical memory")

// Queue identifies which paging queue a frame is on.
type Queue uint8

// Paging queues, mirroring the FreeBSD page daemon's structure.
const (
	QueueNone     Queue = iota // not on any queue (wired or transient)
	QueueActive                // recently referenced
	QueueInactive              // eviction candidates, possibly dirty
	QueueLaundry               // dirty pages awaiting writeback
)

func (q Queue) String() string {
	switch q {
	case QueueNone:
		return "none"
	case QueueActive:
		return "active"
	case QueueInactive:
		return "inactive"
	case QueueLaundry:
		return "laundry"
	default:
		return fmt.Sprintf("Queue(%d)", uint8(q))
	}
}

// Page is one physical frame. A Page is owned by at most one VM object at a
// time.
type Page struct {
	Data []byte // always PageSize long

	// Dirty is set when the frame is modified through the MMU and cleared
	// when the frame is written to stable storage.
	Dirty bool
	// Referenced is set on access and cleared by the page daemon's scan.
	Referenced bool
	// Wired counts reasons the frame must stay resident (e.g. an in-flight
	// checkpoint flush).
	Wired int
	// Clean pages already captured by a checkpoint can be reclaimed
	// without IO; Backed records the on-store location is valid.
	Backed bool

	queue Queue
}

// Queue reports which paging queue the page occupies.
func (p *Page) Queue() Queue { return p.queue }

// Copy copies src's contents into p and marks p dirty.
func (p *Page) Copy(src *Page) {
	copy(p.Data, src.Data)
	p.Dirty = true
	p.Backed = false
}

// Zero clears the frame contents.
func (p *Page) Zero() { clear(p.Data) }

// Stats summarizes a PhysMem's occupancy.
type Stats struct {
	TotalPages    int64
	FreePages     int64
	ActivePages   int64
	InactivePages int64
	LaundryPages  int64
	WiredPages    int64
}

// PhysMem is the physical frame allocator. It enforces a capacity so the
// paging policy (memory overcommitment, §6) has real pressure to respond to.
type PhysMem struct {
	capacity int64 // max frames; 0 means unlimited
	used     int64
	free     []*Page // recycled frames
	slab     []Page  // fresh frames not yet handed out

	queues map[Queue]map[*Page]struct{}
	wired  int64
}

// New returns a PhysMem with capacity totalBytes (rounded down to whole
// pages). A totalBytes of 0 means unlimited.
func New(totalBytes int64) *PhysMem {
	pm := &PhysMem{
		capacity: totalBytes / PageSize,
		queues: map[Queue]map[*Page]struct{}{
			QueueActive:   make(map[*Page]struct{}),
			QueueInactive: make(map[*Page]struct{}),
			QueueLaundry:  make(map[*Page]struct{}),
		},
	}
	return pm
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
		p.Dirty, p.Referenced, p.Backed = false, false, false // Free reset the wiring and the queue
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

// Free returns a frame to the allocator. The frame must not be on a queue.
func (pm *PhysMem) Free(p *Page) {
	if p.queue != QueueNone {
		delete(pm.queues[p.queue], p)
		p.queue = QueueNone
	}
	if p.Wired > 0 {
		pm.wired--
		p.Wired = 0
	}
	pm.used--
	pm.free = append(pm.free, p)
}

// Enqueue moves a frame onto q (or off all queues for QueueNone).
func (pm *PhysMem) Enqueue(p *Page, q Queue) {
	if p.queue == q {
		return
	}
	if p.queue != QueueNone {
		delete(pm.queues[p.queue], p)
	}
	p.queue = q
	if q != QueueNone {
		pm.queues[q][p] = struct{}{}
	}
}

// Wire pins a frame in memory.
func (pm *PhysMem) Wire(p *Page) {
	if p.Wired == 0 {
		pm.wired++
		if p.queue != QueueNone {
			delete(pm.queues[p.queue], p)
			p.queue = QueueNone
		}
	}
	p.Wired++
}

// Unwire releases one pin. It panics if the frame is not wired.
func (pm *PhysMem) Unwire(p *Page) {
	if p.Wired <= 0 {
		panic("mem: unwire of unwired page")
	}
	p.Wired--
	if p.Wired == 0 {
		pm.wired--
	}
}

// ScanQueue returns up to max pages from queue q, preferring clean pages
// when preferClean is set. It is the page daemon's selection primitive.
func (pm *PhysMem) ScanQueue(q Queue, max int, preferClean bool) []*Page {
	var clean, dirty []*Page
	for p := range pm.queues[q] {
		if p.Dirty {
			dirty = append(dirty, p)
		} else {
			clean = append(clean, p)
		}
		if len(clean) >= max && !preferClean {
			break
		}
		if len(clean)+len(dirty) >= 4*max {
			break
		}
	}
	out := clean
	if !preferClean {
		out = append(out, dirty...)
	} else if len(out) < max {
		out = append(out, dirty...)
	}
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// Pressure reports the fraction of capacity in use, in [0,1]. With no
// capacity limit it reports 0.
func (pm *PhysMem) Pressure() float64 {
	if pm.capacity == 0 {
		return 0
	}
	return float64(pm.used) / float64(pm.capacity)
}

// Stats returns an occupancy snapshot.
func (pm *PhysMem) Stats() Stats {
	return Stats{
		TotalPages:    pm.capacity,
		FreePages:     pm.capacity - pm.used,
		ActivePages:   int64(len(pm.queues[QueueActive])),
		InactivePages: int64(len(pm.queues[QueueInactive])),
		LaundryPages:  int64(len(pm.queues[QueueLaundry])),
		WiredPages:    pm.wired,
	}
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
