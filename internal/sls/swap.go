package sls

import (
	"aurora/internal/mem"
	"aurora/internal/objstore"
	"aurora/internal/vm"
)

// Memory overcommitment (§6): Aurora subsumes swap. Pages already captured
// by a checkpoint are clean and evict without IO; dirty pages are laundered
// by the next checkpoint. On a fault the most recent version pages back in
// from the store — the same object the checkpoint wrote, so swap metadata
// survives crashes by construction.

// installPagers gives every flushed persistent object a store pager, making
// its clean pages evictable. Called from the flush path.
func (g *Group) installPager(obj *vm.Object, oid objstore.OID) {
	if obj.Pager() != nil {
		return
	}
	obj.SetPager(&storePager{src: g.o.Store, oid: oid, g: g, swap: true})
}

// EvictStats reports one eviction pass.
type EvictStats struct {
	Evicted int64
}

// Evict reclaims up to maxPages clean, checkpoint-backed pages from the
// group's memory, invalidating the group's page tables afterwards (one
// shootdown per address space, as the page daemon batches). Pages evict
// only from chain-terminal objects with store pagers, where fall-through
// faults are guaranteed to read the latest flushed version.
func (g *Group) Evict(maxPages int64) EvictStats {
	var st EvictStats
	seen := make(map[*vm.Object]bool)
	pm := g.o.K.VM.PM
	for _, m := range g.Maps() {
		for _, e := range m.Entries() {
			term := e.Obj.Terminal()
			if seen[term] || term.Pager() == nil || term.Type != vm.Anonymous {
				continue
			}
			seen[term] = true
			var evict []int64
			term.EachPage(func(pg int64, p *mem.Page) {
				// A dirty or unbacked page would need laundering first.
				if st.Evicted+int64(len(evict)) < maxPages && !unstored(p) {
					evict = append(evict, pg)
				}
			})
			for _, pg := range evict {
				if p, ok := term.RemovePage(pg); ok {
					pm.Free(p)
					st.Evicted++
				}
			}
		}
		if st.Evicted >= maxPages {
			break
		}
	}
	if st.Evicted > 0 {
		for _, m := range g.Maps() {
			m.InvalidateAll()
		}
	}
	return st
}

// Launder cleans dirty pages by flushing them into the subsequent
// checkpoint (§6), then evicts. Two checkpoint rounds are needed: the
// first freezes and flushes the dirty set, the second collapses the frozen
// shadow so the now-clean pages sit in the chain terminal where eviction
// can take them.
func (g *Group) Launder(maxPages int64) (EvictStats, error) {
	for i := 0; i < 2; i++ {
		if _, err := g.Checkpoint(CkptIncremental); err != nil {
			return EvictStats{}, err
		}
		if err := g.Barrier(); err != nil {
			return EvictStats{}, err
		}
	}
	return g.Evict(maxPages), nil
}

// PageDaemonPass runs one page-daemon scan across all groups: under
// pressure it first evicts clean pages, escalating to laundering only when
// pressure stays high (the policy of §6). Returns total pages evicted.
func (o *Orchestrator) PageDaemonPass(pressureLow, pressureHigh float64, batch int64) (int64, error) {
	pm := o.K.VM.PM
	if pm.Pressure() < pressureLow {
		return 0, nil
	}
	var total int64
	for _, g := range o.Groups() {
		st := g.Evict(batch)
		total += st.Evicted
		if pm.Pressure() < pressureLow {
			return total, nil
		}
	}
	if pm.Pressure() >= pressureHigh {
		for _, g := range o.Groups() {
			st, err := g.Launder(batch)
			if err != nil {
				return total, err
			}
			total += st.Evicted
			if pm.Pressure() < pressureLow {
				break
			}
		}
	}
	return total, nil
}
