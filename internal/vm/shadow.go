package vm

// System shadowing (§6): shadow every writable VM object across all address
// spaces of a consistency group in one operation, so a checkpoint freezes
// memory while the applications keep running against fresh shadows.
//
// The fork COW mechanism cannot do this: it works on one process, breaks
// sharing for MAP_SHARED regions, and does not apply to IPC objects. System
// shadowing replaces the object behind *every* entry that references it —
// across processes — and updates registered back-references (POSIX/SysV
// shared-memory descriptors) so future mappings use the latest shadow.

// BackRef is an out-of-map reference to a VM object that must follow the
// object through system shadowing, e.g. a shared-memory segment descriptor.
// This is the backmap of §6.
type BackRef interface {
	Object() *Object
	SetObject(*Object)
}

// ShadowPair records one object shadowed by a system-shadow pass.
type ShadowPair struct {
	// Frozen is the pre-checkpoint object: it no longer receives writes
	// and its resident pages are exactly what the checkpoint must flush
	// (all of memory on the first checkpoint; the dirty set afterwards).
	Frozen *Object
	// Live is the new top shadow that entries and backrefs now reference.
	Live *Object
}

// SystemShadow shadows every writable object reachable from maps, replacing
// it in all entries of all maps and in all backrefs. It returns one pair
// per distinct object. Virtual-time charges: shadow allocation per object,
// a COW downgrade per resident writable PTE (the Table 5 slope), and a TLB
// shootdown per address space.
//
// Vnode objects are skipped — the Aurora file system provides COW for file
// pages — as are device objects. Per the paper, a private mapping of a file
// is expressed as an anonymous shadow over the vnode object, so its dirty
// pages are anonymous and are shadowed here.
func SystemShadow(vmsys *System, maps []*Map, backrefs []BackRef) []ShadowPair {
	return SystemShadowFiltered(vmsys, maps, backrefs, nil)
}

// SystemShadowFiltered is SystemShadow with an entry filter: entries for
// which skip returns true are not shadowed (the sls_mctl exclusion path).
func SystemShadowFiltered(vmsys *System, maps []*Map, backrefs []BackRef, skip func(*Map, *Entry) bool) []ShadowPair {
	// 1. Collect the distinct shadow targets: objects referenced by any
	// writable entry (and all writable shm backrefs). First-encounter
	// order, never map order — the pair order decides shadow ID
	// allocation and the flush plan's job order downstream, both of which
	// must replay bit-identically under the same seed.
	seen := make(map[*Object]bool)
	var targets []*Object
	for _, m := range maps {
		for _, e := range m.Entries() {
			if e.Prot&ProtWrite == 0 {
				continue
			}
			if e.Obj.Type == Vnode || e.Obj.Type == Device {
				continue
			}
			if skip != nil && skip(m, e) {
				continue
			}
			if !seen[e.Obj] {
				seen[e.Obj] = true
				targets = append(targets, e.Obj)
			}
		}
	}
	for _, br := range backrefs {
		if o := br.Object(); o != nil && o.Type == Anonymous && !seen[o] {
			seen[o] = true
			targets = append(targets, o)
		}
	}
	if len(targets) == 0 {
		return nil
	}

	// 2. One shadow per object.
	replacement := make(map[*Object]*Object, len(targets))
	pairs := make([]ShadowPair, 0, len(targets))
	for _, old := range targets {
		s := vmsys.Shadow(old)
		replacement[old] = s
		pairs = append(pairs, ShadowPair{Frozen: old, Live: s})
	}

	// 3. Swing every entry (any protection: read-only views must see
	// future writes through the new top) and every backref.
	for _, m := range maps {
		touched := false
		for _, e := range m.Entries() {
			if s, ok := replacement[e.Obj]; ok {
				old := e.Obj
				s.Ref()
				m.replaceEntryObject(e, s)
				old.Deref()
				touched = true
			}
		}
		if touched {
			vmsys.Clk.Advance(vmsys.Costs.TLBFlush)
		}
	}
	for _, br := range backrefs {
		if s, ok := replacement[br.Object()]; ok {
			old := br.Object()
			s.Ref()
			br.SetObject(s)
			old.Deref()
		}
	}

	// 4. Drop the creator references: each shadow is now held by the
	// entries/backrefs that reference it.
	for _, p := range pairs {
		p.Live.Deref()
	}
	return pairs
}
