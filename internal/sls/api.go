package sls

import (
	"fmt"
	"time"

	"aurora/internal/clock"
	"aurora/internal/kern"
	"aurora/internal/objstore"
	"aurora/internal/vm"
)

// The Aurora application API (Table 3). sls_checkpoint and sls_restore map
// to Group.Checkpoint and Orchestrator.RestoreGroup; the calls below cover
// the rest: sls_memckpt, sls_journal, sls_barrier, sls_mctl, sls_fdctl.

// MemCkptStats reports an atomic-region checkpoint.
type MemCkptStats struct {
	StopTime   time.Duration
	Pages      int64
	FlushBytes int64
}

// MemCkpt asynchronously checkpoints the single memory region mapped at va
// in p — sls_memckpt. The region's object is shadowed (the application
// keeps running against the shadow) and the frozen pages are flushed to the
// region's on-disk object, composing with the surrounding full checkpoint
// at restore (§7). It is roughly 100 µs cheaper than a full checkpoint
// because it skips the whole-group quiesce and OS-state serialization
// (Table 5's "Atomic" column).
func (g *Group) MemCkpt(p *kern.Proc, va uint64) (MemCkptStats, error) {
	o := g.o
	var st MemCkptStats
	sw := clock.StartStopwatch(o.Clk)

	ent, ok := p.Mem.EntryAt(va)
	if !ok {
		return st, fmt.Errorf("%w: %#x", ErrNoEntry, va)
	}
	if ent.Obj.Type != vm.Anonymous {
		return st, fmt.Errorf("sls: memckpt of non-anonymous mapping at %#x", va)
	}

	// Brief stop: shadow just this object. The gate round-trip stands in
	// for stopping only the threads that share the mapping.
	o.K.Gate.Stop()
	o.Clk.Advance(o.Costs.AtomicFloor)
	pairs := vm.SystemShadow(o.K.VM, []*vm.Map{p.Mem}, nil)
	// Keep only the pair covering this entry's chain; other objects in
	// the map were shadowed too (they share the address space walk) and
	// remain transient until the next full checkpoint collapses them.
	for _, pair := range pairs {
		g.transient[pair.Live] = true
	}
	o.K.Gate.Resume()
	st.StopTime = sw.Elapsed()

	// Flush asynchronously into the same on-disk objects the full
	// checkpoint uses (through the same pipeline), so restore composes
	// them naturally.
	plan := newFlushPlan()
	g.planPairs(plan, pairs, CkptIncremental)
	res, err := g.runFlush(plan)
	if err != nil {
		return st, err
	}
	st.FlushBytes = res.bytes
	g.pending = append(g.pending, pairs...)
	for _, pair := range pairs {
		st.Pages += int64(pair.Frozen.Pages())
	}
	return st, nil
}

// Journal returns (creating on first use) a named write-ahead journal for
// the group — sls_journal. Appends are synchronous, non-COW, in-place
// updates (Table 5's "Journaled" column: a 4 KiB page in 28 µs).
func (g *Group) Journal(name string, capacity int64) (*objstore.Journal, error) {
	if oid, ok := g.journals[name]; ok {
		return g.o.Store.OpenJournal(oid)
	}
	oid := g.o.Store.NewOID()
	j, err := g.o.Store.CreateJournal(oid, UTMemObject, capacity)
	if err != nil {
		return nil, err
	}
	g.journals[name] = oid
	return j, nil
}

// OpenJournal reopens a named journal after a restore (for WAL replay).
func (g *Group) OpenJournal(name string) (*objstore.Journal, error) {
	oid, ok := g.journals[name]
	if !ok {
		return nil, fmt.Errorf("sls: no journal %q", name)
	}
	return g.o.Store.OpenJournal(oid)
}

// MCtl includes or excludes the memory region at va from checkpoints —
// sls_mctl. Excluded regions are neither shadowed nor flushed (scratch
// memory the application can rebuild).
func (g *Group) MCtl(p *kern.Proc, va uint64, exclude bool) error {
	ent, ok := p.Mem.EntryAt(va)
	if !ok {
		return fmt.Errorf("%w: %#x", ErrNoEntry, va)
	}
	ent.NoCheckpoint = exclude
	return nil
}

// FdCtl enables or disables external synchrony on a socket descriptor —
// sls_fdctl. Read-only connections can safely disable it and shed the
// checkpoint-wait latency.
func (g *Group) FdCtl(p *kern.Proc, fd int, disableES bool) error {
	return p.SetES(fd, disableES)
}
