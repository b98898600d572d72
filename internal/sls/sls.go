// Package sls implements the Aurora single-level-store orchestrator (§4–§6
// of the paper): consistency groups, continuous checkpointing with system
// shadowing, full and lazy restores, external synchrony, and the Aurora
// application API (sls_checkpoint, sls_restore, sls_memckpt, sls_journal,
// sls_barrier, sls_mctl, sls_fdctl).
//
// The orchestrator maps kernel objects to on-disk objects and provides the
// serialization barrier that makes checkpoints consistent. Every POSIX
// object is persisted individually — the POSIX object model — so sharing
// relationships (descriptions shared by fork, vnodes shared by independent
// opens, descriptors in flight inside UNIX socket buffers) are represented
// directly instead of being inferred.
package sls

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aurora/internal/clock"
	"aurora/internal/kern"
	"aurora/internal/objstore"
	"aurora/internal/trace"
	"aurora/internal/vm"
)

// ManifestOID is the reserved object listing all consistency groups.
const ManifestOID objstore.OID = 2

// Object user-type tags in the store.
const (
	UTManifest uint16 = 0x5300 + iota
	UTGroup
	UTProc
	UTFileDesc
	UTPipe
	UTSocket
	UTShm
	UTKqueue
	UTPTY
	UTDeviceFile
	UTMemObject
)

// Errors.
var (
	ErrNoGroup  = errors.New("sls: no such consistency group")
	ErrAttached = errors.New("sls: process already attached")
	ErrNoEntry  = errors.New("sls: no mapping at address")
)

// CheckpointKind selects how much a checkpoint captures.
type CheckpointKind uint8

// Checkpoint kinds, matching Table 6's rows.
const (
	// CkptIncremental captures OS state plus the dirty set (default).
	CkptIncremental CheckpointKind = iota
	// CkptFull captures OS state plus the entire resident memory image.
	CkptFull
	// CkptMemOnly performs the stop-side work (quiesce, serialize,
	// shadow) but does not commit to the store — the paper's "Mem" rows.
	CkptMemOnly
	// CkptWAL runs the full stop-side and flush work but commits by
	// appending one delta frame to the store's reserved WAL region instead
	// of writing a new epoch: the durable window shrinks to one ordered
	// frame append, and a later fold (an ordinary committing checkpoint,
	// taken explicitly or forced by Options.FoldEvery) absorbs the frames
	// into base objects. When the ring cannot take the frame the commit
	// transparently folds instead.
	CkptWAL
)

// CheckpointStats reports one checkpoint's costs.
//
// StopTime, OSTime, MemTime, and DurableAt are virtual durations — the
// simulated machine's costs. EncodeTime and WriteTime are host wall-clock
// durations summed across the flush pool's workers: they measure the
// reproduction's own pipeline, and their sum exceeding the flush's wall
// time is the direct signature of stage overlap.
type CheckpointStats struct {
	Epoch      objstore.Epoch
	WALSeq     uint64 // nonzero when the commit was a WAL frame append
	Kind       CheckpointKind
	StopTime   time.Duration // application pause (quiesce..resume)
	OSTime     time.Duration // portion spent serializing POSIX objects
	MemTime    time.Duration // portion spent shadowing / marking COW
	FlushBytes int64         // data submitted to storage, summed over workers
	DurableAt  time.Duration // virtual time the checkpoint persists
	Objects    int           // POSIX objects in the cut
	Captured   int           // of those, serialized: the rest were unchanged since the last commit
	DirtyPages int64         // pages captured in the frozen shadows

	// Flush pipeline observability (see internal/sls/flush.go).
	EncodeTime    time.Duration // host time staging pages, summed over workers
	WriteTime     time.Duration // host time submitting store writes, summed over workers
	FlushWorkers  int           // workers the flush pool actually ran
	MaxQueueDepth int           // high-water mark of jobs awaiting a worker
}

// RestoreStats reports one restore's costs.
type RestoreStats struct {
	Epoch      objstore.Epoch
	Mode       RestoreMode
	Time       time.Duration
	Procs      int
	Objects    int
	PagesEager int64

	// RestoreSpeculative's breakdown (zero in the other modes).
	// TimeToFirstOp is the span until the group could execute its first
	// instruction: metadata (kernel objects, VM maps, PTE skeleton)
	// rebuilt, no page data moved. PagesValidated is what the loader then
	// installed, every page checked against its committed sum.
	TimeToFirstOp  time.Duration
	PagesValidated int64
	// Rollbacks is always 0: a restore that meets a rotted page fails. It
	// stays for the callers that still read it (bench/, the scenario
	// runner's rollbacks-at-most).
	Rollbacks int
}

// Orchestrator is the SLS core: it owns the store side of a kernel.
type Orchestrator struct {
	K     *kern.Kernel
	Store *objstore.Store
	Clk   clock.Clock
	Costs *clock.Costs
	// Tracer, when non-nil, is the machine's one observer. It takes the
	// checkpoint/restore/flush spans and, recorded once at the source, the
	// paper's continuous-time claims as histograms (stop time, durable
	// window, WAL window, time-to-first-op, replication lag) beside the
	// commit, restore and page-in counters. Wire it before the first
	// checkpoint (typically together with Store.SetTracer and the device's
	// SetTracer so all layers share one store and one timeline). Every
	// hook costs one pointer check when it is nil.
	Tracer *trace.Tracer

	mu        sync.Mutex
	groups    map[uint64]*Group
	nextGroup uint64

	// recvState tracks, per replicated group, the epoch and live-OID set of
	// the last checkpoint stream applied here — the receive-side contract
	// that validates delta streams (see sendrecv.go).
	recvState map[string]*recvGroupState
}

// New creates an orchestrator over a kernel and its store, installing the
// external-synchrony hook.
func New(k *kern.Kernel, store *objstore.Store) *Orchestrator {
	o := &Orchestrator{
		K:         k,
		Store:     store,
		Clk:       k.Clk,
		Costs:     k.Costs,
		groups:    make(map[uint64]*Group),
		nextGroup: 1,
	}
	store.Ensure(ManifestOID, UTManifest)
	k.ES = o
	// Faults contend with in-flight flush/collapse work on VM object
	// locks (§6); charge the extra while the store has writes in flight.
	k.VM.ContentionExtra = func() time.Duration {
		if store.PendingDurable() > k.Clk.Now() {
			return k.Costs.FaultContention
		}
		return 0
	}
	return o
}

// Options tunes a group's checkpoint machinery.
type Options struct {
	// FlushWorkers bounds the checkpoint flush pipeline's worker pool.
	// 0 selects the default (GOMAXPROCS); 1 selects the serial path —
	// the same pipeline drained by a single worker, so serial and
	// parallel flushes produce identical store content.
	FlushWorkers int

	// FoldEvery, when positive, promotes every Nth CkptWAL commit to a
	// full checkpoint, bounding both replay length after a crash and the
	// ring space dead generations occupy. 0 folds only when the ring
	// fills or the caller checkpoints with a committing kind.
	FoldEvery int
}

// Group is a consistency group: processes checkpointed atomically.
type Group struct {
	o    *Orchestrator
	ID   uint64
	Name string
	// Period is the checkpoint interval for periodic persistence
	// (default 10 ms — 100x per second).
	Period time.Duration
	// Options tunes the checkpoint flush pipeline.
	Options Options

	oid objstore.OID // the group record in the store

	// oidOf maps kernel object identity -> on-disk object. This is the
	// paper's kernel-address-to-OID table (§5.2).
	oidOf map[any]objstore.OID
	// prevLive holds the OIDs serialized by the previous checkpoint so
	// vanished objects can be deleted from the store.
	prevLive map[objstore.OID]bool
	// committed is the capture gate's memory (serializer.unchanged): for each
	// gated kernel object in the last committed checkpoint, the generation
	// its stored record was encoded at. finishCommit adds to it, and so does
	// primeGate, for the records a continuing restore just rebuilt its
	// objects from; forgetting an entry is always safe and happens as soon
	// as its OID leaves the cut. Empty on a new group and after a
	// historical-view restore, whose first checkpoint therefore captures
	// everything.
	committed map[objstore.OID]captured

	// Memory bookkeeping. transient marks system shadows that will be
	// merged down; persistent objects own a store OID and a flushed flag.
	// trappedDone marks transients stranded mid-chain by a fork whose
	// pages have been flushed into their persistent root.
	transient   map[*vm.Object]bool
	flushed     map[objstore.OID]bool
	trappedDone map[*vm.Object]bool
	pending     []vm.ShadowPair // shadows being flushed (collapse next time)

	// mctl exclusions: entry start addresses excluded per process.
	excluded map[*kern.Proc]map[uint64]bool

	// External synchrony: esHeld accumulates deliveries during the
	// current interval; esCovered holds those cut off by the last
	// checkpoint, releasing once it is durable.
	esHeld    []func()
	esCovered []func()
	lastEpoch objstore.Epoch
	lastCkpt  time.Duration
	ckpts     int64
	// lastWALSeq is the frame sequence of the group's newest WAL commit;
	// zero when the newest commit was a full checkpoint. Barriers and ES
	// release wait on the frame's durability instead of the epoch's.
	lastWALSeq uint64
	// walSinceFold counts WAL commits since the last fold, driving
	// Options.FoldEvery.
	walSinceFold int

	// vnodeRef tracks slsfs objects this group holds hidden references
	// on (open descriptors of checkpointed processes).
	vnodeRef map[objstore.OID]bool
	// journals maps API journal names to their store objects.
	journals map[string]objstore.OID
	// recorder, when set, logs external inputs for record/replay.
	recorder *Recorder

	// RetainEpochs bounds on-disk history, 0 keeps everything; persisted in
	// the group record, enforced inside every epoch commit (which always
	// keeps the epoch before its own, so 1 retains 2).
	RetainEpochs int

	// Lazy-restore and swap page-in traffic served by this group's pagers
	// after RestoreGroup (or a swap-out) returned. RestoreStats is a
	// point-in-time report and cannot see these; they accumulate here
	// (atomics — faults arrive from whatever goroutine runs the process)
	// and are mirrored into the tracer's counters when one is wired.
	lazyFaults atomic.Int64
	lazyBytes  atomic.Int64
	swapFaults atomic.Int64
	swapBytes  atomic.Int64
}

// LazyPageIns reports the faults served and bytes paged in by lazy-restore
// pagers since the group was created — traffic that arrives after
// RestoreGroup returns and is invisible to RestoreStats.
func (g *Group) LazyPageIns() (faults, bytes int64) {
	return g.lazyFaults.Load(), g.lazyBytes.Load()
}

// SwapPageIns reports faults served and bytes paged in from swapped-out
// objects (sls_mctl swap path).
func (g *Group) SwapPageIns() (faults, bytes int64) {
	return g.swapFaults.Load(), g.swapBytes.Load()
}

// defaultRetainEpochs bounds on-disk history by default; 0 keeps the full
// execution history ("only limited by the available storage").
const defaultRetainEpochs = 64

// CreateGroup makes an empty consistency group.
func (o *Orchestrator) CreateGroup(name string) *Group {
	o.mu.Lock()
	defer o.mu.Unlock()
	g := &Group{
		o:            o,
		ID:           o.nextGroup,
		Name:         name,
		Period:       10 * time.Millisecond,
		RetainEpochs: defaultRetainEpochs,
		oid:          o.Store.NewOID(),
		oidOf:        make(map[any]objstore.OID),
		prevLive:     make(map[objstore.OID]bool),
		committed:    make(map[objstore.OID]captured),
		transient:    make(map[*vm.Object]bool),
		flushed:      make(map[objstore.OID]bool),
		trappedDone:  make(map[*vm.Object]bool),
		excluded:     make(map[*kern.Proc]map[uint64]bool),
		vnodeRef:     make(map[objstore.OID]bool),
		journals:     make(map[string]objstore.OID),
	}
	o.nextGroup++
	o.groups[g.ID] = g
	return g
}

// Group returns a group by id.
func (o *Orchestrator) Group(id uint64) (*Group, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	g, ok := o.groups[id]
	return g, ok
}

// GroupByName finds a group by name.
func (o *Orchestrator) GroupByName(name string) (*Group, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, g := range o.groups {
		if g.Name == name {
			return g, true
		}
	}
	return nil, false
}

// Groups lists groups sorted by id.
func (o *Orchestrator) Groups() []*Group {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*Group, 0, len(o.groups))
	for _, g := range o.groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Forget drops a group from the live table (its on-disk state and manifest
// entry remain, so it can be restored later). Used by suspend and by the
// source side of a completed migration.
func (o *Orchestrator) Forget(g *Group) {
	o.mu.Lock()
	delete(o.groups, g.ID)
	o.mu.Unlock()
}

// Suspend checkpoints the group, waits for durability, and terminates its
// processes — sls suspend. The application stays restorable (sls resume).
func (g *Group) Suspend() error {
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		return err
	}
	if err := g.Barrier(); err != nil {
		return err
	}
	for _, p := range g.Procs() {
		p.Exit(0)
	}
	g.o.Forget(g)
	return nil
}

// Hold implements kern.ESHook: cross-group sends wait for the sender
// group's next durable checkpoint.
func (o *Orchestrator) Hold(group uint64, deliver func()) bool {
	o.mu.Lock()
	g, ok := o.groups[group]
	o.mu.Unlock()
	if !ok {
		return false
	}
	g.esHeld = append(g.esHeld, deliver)
	return true
}

// Attach places a process (and its current and future children) under the
// group's persistence. sls attach.
func (g *Group) Attach(p *kern.Proc) error {
	if p.GroupID != 0 && p.GroupID != g.ID {
		return fmt.Errorf("%w: pid %d in group %d", ErrAttached, p.LocalPID, p.GroupID)
	}
	p.GroupID = g.ID
	for _, c := range p.Children() {
		if err := g.Attach(c); err != nil {
			return err
		}
	}
	return nil
}

// Detach makes a process ephemeral: it stays in the group for atomicity
// but is not persisted; after a restore its parent sees SIGCHLD. sls detach.
func (g *Group) Detach(p *kern.Proc) {
	p.Ephemeral = true
}

// Procs returns the group's processes sorted by local PID.
func (g *Group) Procs() []*kern.Proc {
	procs := g.o.K.Procs(g.ID)
	sort.Slice(procs, func(i, j int) bool { return procs[i].LocalPID < procs[j].LocalPID })
	return procs
}

// Maps returns the address spaces of all group processes.
func (g *Group) Maps() []*vm.Map {
	var out []*vm.Map
	for _, p := range g.Procs() {
		if !p.Exited() {
			out = append(out, p.Mem)
		}
	}
	return out
}

// Epoch returns the last committed checkpoint epoch for this group.
func (g *Group) Epoch() objstore.Epoch { return g.lastEpoch }

// WALSeq returns the frame sequence of the group's newest WAL commit, or
// zero when the newest commit was a full checkpoint.
func (g *Group) WALSeq() uint64 { return g.lastWALSeq }

// Checkpoints returns how many checkpoints the group has taken.
func (g *Group) Checkpoints() int64 { return g.ckpts }

// releaseES delivers the messages covered by the last checkpoint (called
// once that checkpoint is durable). Runs with the kernel briefly
// re-entered so receivers wake.
func (g *Group) releaseES() {
	held := g.esCovered
	g.esCovered = nil
	if len(held) == 0 {
		return
	}
	g.o.K.Gate.Enter()
	for _, deliver := range held {
		deliver()
	}
	g.o.K.Gate.Exit()
}

// oidFor returns the stable on-disk OID for a kernel object, allocating on
// first encounter.
func (g *Group) oidFor(key any) objstore.OID {
	if oid, ok := g.oidOf[key]; ok {
		return oid
	}
	oid := g.o.Store.NewOID()
	g.oidOf[key] = oid
	return oid
}

// MaybePeriodic triggers a checkpoint if the group's period has elapsed.
// Workload drivers call this between operations (the stand-in for the
// orchestrator's timer).
func (g *Group) MaybePeriodic() (CheckpointStats, bool, error) {
	if g.Period <= 0 {
		return CheckpointStats{}, false, nil
	}
	now := g.o.Clk.Now()
	if now-g.lastCkpt < g.Period {
		return CheckpointStats{}, false, nil
	}
	st, err := g.Checkpoint(CkptIncremental)
	return st, true, err
}
