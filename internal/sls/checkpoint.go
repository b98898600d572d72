package sls

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"aurora/internal/clock"
	"aurora/internal/flight"
	"aurora/internal/kern"
	"aurora/internal/mem"
	"aurora/internal/objstore"
	"aurora/internal/rec"
	"aurora/internal/trace"
	"aurora/internal/vm"
)

// The checkpoint path (§4, §5, §6):
//
//  1. Wait for the previous checkpoint's flush (Aurora never overlaps two),
//     then release externally-synchronized messages it covered.
//  2. Quiesce the system at the kernel boundary.
//  3. Collapse the previous interval's fully-flushed system shadows
//     (Aurora's reversed collapse, bounding chains at length two).
//  4. Walk every POSIX object reachable from the group — each has its own
//     on-disk object, sharing preserved by construction — and serialize the
//     ones that changed since the group's last commit (the generation gate,
//     serializer.unchanged).
//  5. System-shadow all writable memory.
//  6. Resume the applications. Everything after this overlaps execution.
//  7. Flush the frozen shadows' pages into their objects' on-disk pages.
//  8. Commit the store checkpoint (the superblock is the atomic cut).

// Entry kinds in serialized address-space records.
const (
	entAnon uint8 = iota
	entVnodeShared
	entDevice
	entVDSO
)

// Memory-object backer kinds.
const (
	backNone uint8 = iota
	backAnon
	backVnode
)

// Checkpoint takes a checkpoint of the whole consistency group.
func (g *Group) Checkpoint(kind CheckpointKind) (st CheckpointStats, err error) {
	o := g.o

	// A speculating group's memory is unvalidated: committing it would
	// make a possibly-corrupt image durable and overwrite the very epoch
	// a rollback needs to re-restore from.
	if g.SpecState() == SpecSpeculating {
		return CheckpointStats{}, fmt.Errorf("%w (group %q)", ErrSpeculating, g.Name)
	}

	// Periodic folding: every Nth WAL commit is promoted to a full
	// checkpoint so frame chains stay short and the ring reclaims.
	if kind == CkptWAL && g.Options.FoldEvery > 0 && g.walSinceFold >= g.Options.FoldEvery {
		kind = CkptIncremental
	}
	st = CheckpointStats{Kind: kind}

	// 1. Previous flush must be durable; its covered messages release. A
	// WAL commit's durability point is its frame, not an epoch.
	if g.lastEpoch != 0 || g.lastWALSeq != 0 {
		var werr error
		if g.lastWALSeq != 0 {
			werr = o.Store.WaitWALDurable(g.lastWALSeq)
		} else {
			werr = o.Store.WaitDurable(g.lastEpoch)
		}
		if werr == nil {
			g.releaseES()
		}
	}

	// The span tree mirrors the stats: the four stop children (quiesce,
	// serialize, writeback, shadow) open and close back-to-back with no
	// virtual time between them, so their durations tile the stop window
	// exactly — summing them reproduces StopTime, which is what the trace
	// acceptance test asserts. phase is the innermost span open right now; a
	// span that has ended is reset to the inert zero Span.
	ckptSpan := o.Tracer.Begin(trace.TrackSLS, "checkpoint", trace.I("kind", int64(kind)))
	o.Store.Flight().Record(int64(o.Clk.Now()), flight.EvCheckpointBegin,
		int64(g.oid), g.ckpts+1, int64(kind), g.Name)
	stopSpan := ckptSpan.Child("stop")
	phase := stopSpan.Child("quiesce")

	stop := clock.StartStopwatch(o.Clk)
	o.K.Quiesce()
	quiesced := true
	// A failed checkpoint stays on the timeline: Span.End is what appends the
	// event, so every span still open is ended with the error (its children
	// that did end keep a parent), the flight ring gets the end its begin
	// lacks, and the kernel reopens if the failure came inside the barrier.
	defer func() {
		if err == nil {
			return
		}
		if quiesced {
			o.K.Resume()
		}
		failed := trace.S("err", err.Error())
		phase.End(failed)
		stopSpan.End(failed)
		ckptSpan.End(failed)
		o.Store.Flight().Record(int64(o.Clk.Now()), flight.EvCheckpointFail,
			int64(g.oid), g.ckpts+1, int64(kind), g.Name+": "+err.Error())
	}()
	o.Clk.Advance(o.Costs.CheckpointFloor)

	// 2. Collapse previous shadows (their flush completed above). A
	// shadow frozen by a mem-only checkpoint still holds dirty pages —
	// collapsing it would bury unflushed data in the base, so it stays
	// mid-chain where the next committing checkpoint's trapped-transient
	// flush picks it up.
	for _, pair := range g.pending {
		frozen := pair.Frozen
		if !g.transient[frozen] {
			continue
		}
		clean := true
		frozen.EachPage(func(pg int64, p *mem.Page) {
			if p.Dirty {
				clean = false
			}
		})
		if clean && frozen.ShadowCount() == 1 && pair.Live.Backer() == frozen && frozen.Backer() != nil {
			backer := frozen.Backer()
			vm.CollapseAurora(pair.Live, frozen)
			// Pages moved into the backer with their identity intact;
			// PTEs installed from the dying shadow (read faults served
			// mid-chain last interval) follow them.
			for _, m := range g.Maps() {
				m.ReownPTEs(frozen, backer)
			}
			delete(g.transient, frozen)
		}
		// Multi-shadow (fork mid-interval), baseless, or unflushed
		// objects stay in the chain; their pages either were already
		// flushed to the persistent root or will be by flushTrapped.
	}
	g.pending = nil

	if kind != CkptMemOnly {
		// ES: everything held up to this cut is covered by this
		// checkpoint. (A mem-only capture commits nothing, so it can
		// neither cover nor release anything.)
		g.esCovered = append(g.esCovered, g.esHeld...)
		g.esHeld = nil

		// Record/replay: inputs before the cut are inside the captured
		// socket buffers, so the bounded log truncates here.
		g.onCheckpointTruncate()
	}

	// 3. Serialize POSIX objects.
	phase.End()
	phase = stopSpan.Child("serialize")
	osSW := clock.StartStopwatch(o.Clk)
	ser := newSerializer(g, kind == CkptFull)
	procs := g.Procs()
	var ephemeral []*kern.Proc
	for _, p := range procs {
		if p.Exited() {
			continue
		}
		if p.Ephemeral {
			ephemeral = append(ephemeral, p)
			continue
		}
		if err := ser.proc(p); err != nil {
			return st, err
		}
	}
	// Shared-memory segments exist outside descriptor tables (SysV
	// especially); serialize the namespaces too.
	for _, seg := range o.K.ShmSegments() {
		if err := ser.shm(seg); err != nil {
			return st, err
		}
	}
	if err := ser.group(ephemeral); err != nil {
		return st, err
	}
	st.OSTime = osSW.Elapsed()
	st.Objects, st.Captured = ser.count, ser.captured
	phase.End(trace.I("objects", int64(st.Objects)), trace.I("captured", int64(st.Captured)))
	phase = stopSpan.Child("writeback")

	// 3b. Shared file mappings: the Aurora file system provides COW for
	// file pages (§6), so vnode objects are never shadowed — instead
	// their dirty pages are captured into the file's store object here,
	// inside the quiesce window, for a consistent cut. The store copies
	// the data synchronously and flushes it asynchronously.
	if err := g.writebackMappedFiles(); err != nil {
		return st, err
	}

	// 4. System shadowing.
	phase.End()
	phase = stopSpan.Child("shadow")
	memSW := clock.StartStopwatch(o.Clk)
	var backrefs []vm.BackRef
	for _, seg := range o.K.ShmSegments() {
		backrefs = append(backrefs, seg)
	}
	pairs := vm.SystemShadowFiltered(o.K.VM, g.Maps(), backrefs, func(m *vm.Map, e *vm.Entry) bool {
		return g.entryExcluded(m, e)
	})
	for _, pair := range pairs {
		g.transient[pair.Live] = true
		st.DirtyPages += int64(pair.Frozen.CountPages(unstored))
	}
	st.MemTime = memSW.Elapsed()

	o.K.Resume()
	quiesced = false
	phase.End(trace.I("dirty_pages", st.DirtyPages))
	stopSpan.End()
	phase, stopSpan = trace.Span{}, trace.Span{}
	st.StopTime = stop.Elapsed()

	if kind == CkptMemOnly {
		// In-memory capture only: keep the shadows for the next pass but
		// skip the store entirely.
		g.pending = pairs
		g.lastCkpt = o.Clk.Now()
		g.ckpts++
		ckptSpan.End()
		o.Tracer.Count("sls.ckpt.total", 1)
		o.Tracer.Observe("sls.stop.ns", int64(st.StopTime))
		return st, nil
	}

	// 5–7. Flush memory through the pipeline (flush.go) and commit. Cold
	// objects — persistent objects serialized but never flushed (read-only
	// regions no shadow covers) — join the same pool.
	plan := newFlushPlan()
	g.planPairs(plan, pairs, kind)
	g.planCold(plan, ser)
	// Flush jobs are recorded at plan time, on the coordinator: the worker
	// pool drains them in nondeterministic order, and the flight ring (like
	// the store images it persists into) must be identical run to run.
	if fl := o.Store.Flight(); fl != nil {
		now := int64(o.Clk.Now())
		for _, j := range plan.jobs {
			fl.Record(now, flight.EvFlushJob, int64(g.oid), int64(j.toid), int64(len(j.sources)), "")
		}
	}
	phase = ckptSpan.Child("flush")
	res, err := g.runFlush(plan)
	if err != nil {
		return st, err
	}
	phase.End(trace.I("bytes", res.bytes), trace.I("workers", int64(res.workers)),
		trace.I("max_depth", int64(res.maxDepth)))
	phase = trace.Span{}
	st.FlushBytes = res.bytes
	st.EncodeTime = res.encode
	st.WriteTime = res.write
	st.FlushWorkers = res.workers
	st.MaxQueueDepth = res.maxDepth
	g.pending = pairs

	// Delete store objects that vanished since the last checkpoint, in
	// ascending-OID order (map iteration would randomize the metadata
	// stream and break crash-replay determinism).
	var gone []objstore.OID
	for oid := range g.prevLive {
		if !ser.live[oid] {
			gone = append(gone, oid)
		}
	}
	sort.Slice(gone, func(i, j int) bool { return gone[i] < gone[j] })
	for _, oid := range gone {
		o.Store.Delete(oid) //nolint:errcheck // absent is fine
		// Forgetting is always safe, so it does not wait for the commit: should
		// this one fail and the object come back, it is captured again.
		delete(g.committed, oid)
	}
	g.prevLive = ser.live

	// 8a. WAL-first commit: the cut is one CRC-framed delta append ordered
	// behind the interval's flushed writes, not a new epoch. The epoch —
	// and with it history retention — does not advance; a later fold
	// absorbs the frames. A full ring degrades to the fold below, which
	// both commits the deltas and reclaims the ring.
	if kind == CkptWAL {
		wst, werr := o.Store.WALCommit()
		if werr == nil {
			g.finishCommit(&st, ckptSpan, ser, wst.Base, wst.Seq, wst.DurableAt)
			return st, nil
		}
		if !errors.Is(werr, objstore.ErrWALFull) {
			return st, werr
		}
	}

	// 8b. The epoch commit enforces the group's retention itself: a trim
	// made durable only by the NEXT commit never lands on a one-commit boot.
	cst, err := o.Store.CheckpointRetaining(g.RetainEpochs)
	if err != nil {
		return st, err
	}
	g.finishCommit(&st, ckptSpan, ser, cst.Epoch, 0, cst.DurableAt)
	return st, nil
}

// finishCommit is the tail of every committed checkpoint: flight event,
// stats, group bookkeeping, and the commit's metrics and trace range, each
// reported once. walSeq is the WAL frame the commit appended, or 0 when it
// was an epoch (a fold of any outstanding frames). It is also the only place
// a checkpoint teaches the capture gate anything: the generations ser staged
// become the committed ones here and nowhere else, so a checkpoint that failed,
// or that never meant to commit, leaves the gate describing the last durable
// cut.
func (g *Group) finishCommit(st *CheckpointStats, ckptSpan trace.Span, ser *serializer, epoch objstore.Epoch, walSeq uint64, durableAt time.Duration) {
	o := g.o
	wal := walSeq != 0
	for _, c := range ser.staged {
		g.committed[c.oid] = c
	}
	o.Store.Flight().Record(int64(o.Clk.Now()), flight.EvCheckpointEnd,
		int64(g.oid), int64(epoch), st.FlushBytes, g.Name)
	st.Epoch, st.WALSeq, st.DurableAt = epoch, walSeq, durableAt
	g.lastEpoch, g.lastWALSeq = epoch, walSeq
	if wal {
		g.walSinceFold++
	} else {
		g.walSinceFold = 0
	}
	g.lastCkpt = o.Clk.Now()
	g.ckpts++
	args := []trace.Arg{trace.I("epoch", int64(epoch)), trace.I("wal_seq", int64(walSeq))}
	if !wal {
		args = args[:1]
	}
	if tr := o.Tracer; tr != nil {
		// The drain window: submitted writes settling while the
		// application already runs — the overlap the paper claims. It is
		// drawn as a range and observed as a histogram from the one
		// subtraction; 0 when the device already caught up.
		now := o.Clk.Now()
		window := max(durableAt-now, 0)
		tr.Range(trace.TrackSLS, "durable.window", now, durableAt, args...)
		tr.Count("sls.ckpt.total", 1)
		tr.Observe("sls.stop.ns", int64(st.StopTime))
		tr.Observe("sls.durable.window.ns", int64(window))
		if wal {
			tr.Count("sls.wal.commits", 1)
			tr.Observe("sls.wal.window.ns", int64(window))
		}
		tr.Count("sls.dirty_pages", st.DirtyPages)
		tr.Count("sls.captured_objects", int64(st.Captured))
		tr.Count("sls.flush.bytes", st.FlushBytes)
	}
	ckptSpan.End(args...)
}

// Barrier waits until the group's last checkpoint is durable and releases
// externally-synchronized messages — sls_barrier. After a WAL commit the
// durability point is the frame append, not an epoch.
func (g *Group) Barrier() error {
	if g.lastWALSeq != 0 {
		if err := g.o.Store.WaitWALDurable(g.lastWALSeq); err != nil {
			return err
		}
		g.releaseES()
		return nil
	}
	if g.lastEpoch == 0 {
		return nil
	}
	if err := g.o.Store.WaitDurable(g.lastEpoch); err != nil {
		return err
	}
	g.releaseES()
	return nil
}

// persistentRoot walks down from obj past transient system shadows to the
// object that owns an on-disk identity.
func (g *Group) persistentRoot(obj *vm.Object) *vm.Object {
	for g.transient[obj] && obj.Backer() != nil {
		obj = obj.Backer()
	}
	return obj
}

// writebackMappedFiles writes the dirty pages of shared file mappings back
// into their files' store objects. Runs under quiesce; the COW store
// guarantees the previous checkpoint's file content is untouched.
func (g *Group) writebackMappedFiles() error {
	seen := make(map[*vm.Object]bool)
	for _, m := range g.Maps() {
		for _, e := range m.Entries() {
			if e.Obj.Type != vm.Vnode || seen[e.Obj] {
				continue
			}
			seen[e.Obj] = true
			pager := e.Obj.Pager()
			if pager == nil {
				continue
			}
			oid := objstore.OID(pager.BackingOID())
			if oid == 0 || !g.o.Store.Exists(oid) {
				continue
			}
			size, err := g.o.Store.Size(oid)
			if err != nil {
				return err
			}
			var werr error
			e.Obj.EachPage(func(pg int64, p *mem.Page) {
				if werr != nil || !p.Dirty {
					return
				}
				off := pg * mem.PageSize
				if off >= size {
					return // beyond EOF: mapped-page tail, not file data
				}
				n := int64(mem.PageSize)
				if off+n > size {
					n = size - off
				}
				g.o.Clk.Advance(g.o.Costs.MemCopyPerPage)
				if err := g.o.Store.WriteAt(oid, off, p.Data[:n]); err != nil {
					werr = err
					return
				}
				p.Dirty = false
				p.Backed = true
			})
			if werr != nil {
				return werr
			}
		}
	}
	return nil
}

// entryExcluded implements sls_mctl exclusions.
func (g *Group) entryExcluded(m *vm.Map, e *vm.Entry) bool {
	for p, set := range g.excluded {
		if p.Mem == m && set[e.Start] {
			return true
		}
	}
	return false
}

// memMeta is the serialized form of one persistent memory object.
type memMeta struct {
	oid        objstore.OID
	size       int64
	backerKind uint8
	backerOID  uint64
}

// generational is a kernel object the capture gate covers: kern.File, Pipe,
// Socket, Kqueue, PTY and Device, each of which counts its own mutations.
type generational interface{ Generation() uint64 }

// captured is what the gate remembers of one committed record: the kernel
// object behind the OID and its generation at that cut.
type captured struct {
	oid objstore.OID
	obj generational
	gen uint64
}

// serializer walks kernel objects, emitting one store record per object that
// changed.
type serializer struct {
	g    *Group
	o    *Orchestrator
	live map[objstore.OID]bool
	// count is the number of objects in the cut; captured, how many of them
	// were encoded and put rather than left as the store holds them.
	count, captured int
	// full is a CkptFull: the gate is open, everything is captured.
	full bool
	// staged are this cut's captures of gated objects, for finishCommit.
	staged []captured

	// Deduplication: each kernel object serializes exactly once per
	// checkpoint regardless of how many references reach it.
	doneFiles map[*kern.File]objstore.OID
	doneImpls map[any]objstore.OID
	memOIDs   map[*vm.Object]objstore.OID
	memMetas  []memMeta
	procOIDs  []procRef
	shmOIDs   []objstore.OID
}

type procRef struct {
	oid       objstore.OID
	localPID  kern.PID
	parentPID kern.PID
}

func newSerializer(g *Group, full bool) *serializer {
	return &serializer{
		g:         g,
		o:         g.o,
		full:      full,
		live:      make(map[objstore.OID]bool),
		doneFiles: make(map[*kern.File]objstore.OID),
		doneImpls: make(map[any]objstore.OID),
		memOIDs:   make(map[*vm.Object]objstore.OID),
	}
}

// put stores a sealed record, charging serialization costs. Called directly
// it is the always-captured path: processes (thread CPU state and the address
// space change without a syscall), shared-memory segments and the group
// record (both embed memory-object OIDs that follow the shadow chain, which
// moves outside any generation).
func (s *serializer) put(oid objstore.OID, utype uint16, e *rec.Encoder) error {
	return s.putSealed(oid, utype, e.Seal())
}

func (s *serializer) putSealed(oid objstore.OID, utype uint16, body []byte) error {
	s.o.Clk.Advance(s.o.Costs.SerializeBase + time.Duration(len(body)/8)*s.o.Costs.SerializePerWord)
	s.live[oid] = true
	s.count++
	s.captured++
	return s.o.Store.PutRecord(oid, utype, body)
}

// unchanged is the generation gate. obj is unchanged when the group's last
// committed checkpoint captured it — or the restore that brought the group
// back found it as stored (primeGate) — at the generation it has now; the
// store then already holds the record this cut would put (PutRecord would
// compare the bytes and drop them), so the object is accounted into the cut
// for the price of the pointer chase that read its generation. A CkptFull,
// and a group whose gate is empty — a new one, or one restored from a
// historical view — find no object unchanged.
func (s *serializer) unchanged(oid objstore.OID, obj generational) bool {
	c, ok := s.g.committed[oid]
	if s.full || !ok || c.gen != obj.Generation() {
		return false
	}
	s.o.Clk.Advance(s.o.Costs.CacheMiss)
	s.live[oid] = true
	s.count++
	return true
}

// object accounts one gated kernel object into the cut: skipped when
// unchanged, otherwise encoded, charged and put exactly as before the gate
// existed, with its generation staged for finishCommit. The objects its
// record references must have been walked already (encodeObject looks their
// OIDs up). A record whose sealed body the store does not keep inline is never
// staged, because the oracle could not read it back without device reads.
func (s *serializer) object(oid objstore.OID, obj generational) error {
	if s.unchanged(oid, obj) {
		return nil
	}
	if kq, ok := obj.(*kern.Kqueue); ok {
		// Each event structure is locked and copied (Table 4).
		s.o.Clk.Advance(time.Duration(len(kq.Events())) * s.o.Costs.KqueueEvent)
	}
	e := rec.NewEncoder()
	utype := s.g.encodeObject(e, obj)
	body := e.Seal()
	if err := s.putSealed(oid, utype, body); err != nil {
		return err
	}
	if len(body) <= objstore.InlineMax {
		s.staged = append(s.staged, captured{oid, obj, obj.Generation()})
	}
	return nil
}

// group emits the group record — processes, ephemeral children, shm
// segments, memory-object metadata, journals — and refreshes the manifest.
func (s *serializer) group(ephemeral []*kern.Proc) error {
	e := rec.NewEncoder()
	e.Str(s.g.Name)
	e.U64(uint64(s.g.Period))

	e.U32(uint32(len(s.procOIDs)))
	for _, pr := range s.procOIDs {
		e.U64(uint64(pr.oid))
		e.U32(uint32(pr.localPID))
		e.U32(uint32(pr.parentPID))
	}

	// Ephemeral children: recorded so restore can deliver SIGCHLD.
	e.U32(uint32(len(ephemeral)))
	for _, p := range ephemeral {
		parent := kern.PID(0)
		if p.Parent() != nil {
			parent = p.Parent().LocalPID
		}
		e.U32(uint32(p.LocalPID))
		e.U32(uint32(parent))
	}

	// Memory-object hierarchy metadata.
	e.U32(uint32(len(s.memMetas)))
	for _, m := range s.memMetas {
		e.U64(uint64(m.oid))
		e.I64(m.size)
		e.U8(m.backerKind)
		e.U64(m.backerOID)
	}

	// Shared-memory segments.
	e.U32(uint32(len(s.shmOIDs)))
	for _, oid := range s.shmOIDs {
		e.U64(uint64(oid))
	}

	// Journals created through the Aurora API, by name.
	e.U32(uint32(len(s.g.journals)))
	for _, jn := range slices.Sorted(maps.Keys(s.g.journals)) {
		e.Str(jn)
		e.U64(uint64(s.g.journals[jn]))
		s.live[s.g.journals[jn]] = true
	}

	e.U64(uint64(s.g.RetainEpochs)) // appended: a record that ends above still decodes

	if err := s.put(s.g.oid, UTGroup, e); err != nil {
		return err
	}
	return s.o.writeManifest()
}

// writeManifest refreshes the orchestrator's group list, preserving
// entries for groups that are not live in this kernel (suspended
// applications, groups received but not yet restored).
func (o *Orchestrator) writeManifest() error {
	entries, err := readManifest(o.Store)
	if err != nil {
		return err
	}
	index := make(map[string]int, len(entries))
	for i, ent := range entries {
		index[ent.name] = i
	}
	for _, g := range o.Groups() {
		ent := manifestEntry{id: g.ID, name: g.Name, oid: g.oid}
		if i, ok := index[g.Name]; ok {
			entries[i] = ent
		} else {
			index[g.Name] = len(entries)
			entries = append(entries, ent)
		}
	}
	return o.putManifest(entries)
}

// manifestEntry is one group of the manifest record: a U32 count, then
// (U64 id, Str name, U64 oid) per group.
type manifestEntry struct {
	id   uint64
	name string
	oid  objstore.OID
}

// readManifest decodes src's manifest. An absent object or a zero-byte
// record is "no groups": New ensures the object, so every store holds an
// empty one before its first group checkpoint. Any other read or decode
// failure is returned — taken for empty, the next write would drop every
// group the record names.
func readManifest(src Source) ([]manifestEntry, error) {
	raw, err := src.GetRecord(ManifestOID)
	if errors.Is(err, objstore.ErrNoObject) || (err == nil && len(raw) == 0) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	d, err := rec.NewDecoder(raw)
	if err != nil {
		return nil, err
	}
	var entries []manifestEntry
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		entries = append(entries, manifestEntry{id: d.U64(), name: d.Str(), oid: objstore.OID(d.U64())})
	}
	return entries, d.Err()
}

// putManifest is the one writer of the manifest record.
func (o *Orchestrator) putManifest(entries []manifestEntry) error {
	e := rec.NewEncoder()
	e.U32(uint32(len(entries)))
	for _, ent := range entries {
		e.U64(ent.id)
		e.Str(ent.name)
		e.U64(uint64(ent.oid))
	}
	return o.Store.PutRecord(ManifestOID, UTManifest, e.Seal())
}

// proc serializes one process: identity, tree links, threads with CPU
// state, pending signals, descriptor table, and address space.
func (s *serializer) proc(p *kern.Proc) error {
	e := rec.NewEncoder()
	e.Str(p.Name)
	e.U32(uint32(p.LocalPID))
	e.U32(uint32(p.PGID))
	e.U32(uint32(p.SID))

	// Threads. Copying the register file off the kernel stack is cheap;
	// lazily-saved FPU/vector state needs an IPI to flush it into the
	// process structure (§5.1).
	e.U32(uint32(len(p.Threads)))
	for _, t := range p.Threads {
		s.o.Clk.Advance(s.o.Costs.IPIRound)
		e.Str(t.Name)
		e.U32(uint32(t.LocalTID))
		e.U64(t.SigMask)
		e.U32(uint32(t.Priority))
		cpuRecord(e, &t.CPU)
	}

	// Pending signals.
	sigs := p.PendingSignals()
	e.U32(uint32(len(sigs)))
	for _, sig := range sigs {
		e.U32(uint32(sig))
	}

	// Descriptor table.
	type slot struct {
		fd  int
		oid objstore.OID
	}
	var slots []slot
	var ferr error
	p.FDs.Each(func(fd int, f *kern.File) {
		if ferr != nil {
			return
		}
		oid, err := s.file(f)
		if err != nil {
			ferr = err
			return
		}
		slots = append(slots, slot{fd, oid})
	})
	if ferr != nil {
		return ferr
	}
	e.U32(uint32(len(slots)))
	for _, sl := range slots {
		e.U32(uint32(sl.fd))
		e.U64(uint64(sl.oid))
	}

	// Address space.
	entries := p.Mem.Entries()
	var encoded [][]byte
	for _, ent := range entries {
		b, err := s.entry(ent, s.g.entryExcluded(p.Mem, ent))
		if err != nil {
			return err
		}
		if b != nil {
			encoded = append(encoded, b)
		}
	}
	e.U32(uint32(len(encoded)))
	for _, b := range encoded {
		e.Bytes(b)
	}

	oid := s.g.oidFor(p)
	parent := kern.PID(0)
	if p.Parent() != nil && !p.Parent().Ephemeral {
		parent = p.Parent().LocalPID
	}
	s.procOIDs = append(s.procOIDs, procRef{oid: oid, localPID: p.LocalPID, parentPID: parent})
	return s.put(oid, UTProc, e)
}

// cpuRecord serializes the register file.
func cpuRecord(e *rec.Encoder, c *kern.CPUState) {
	e.U64(c.RIP)
	e.U64(c.RSP)
	e.U64(c.RBP)
	e.U64(c.RFLAGS)
	for _, r := range c.GPR {
		e.U64(r)
	}
	e.Bytes(c.FPU[:])
}

func cpuDecode(d *rec.Decoder) kern.CPUState {
	var c kern.CPUState
	c.RIP = d.U64()
	c.RSP = d.U64()
	c.RBP = d.U64()
	c.RFLAGS = d.U64()
	for i := range c.GPR {
		c.GPR[i] = d.U64()
	}
	copy(c.FPU[:], d.Bytes())
	return c
}

// entry serializes one vm_map_entry, classifying its backing. Excluded
// regions (sls_mctl) record their geometry only: the restore maps fresh
// zero-filled memory there, and no page of the region ever reaches the
// store.
func (s *serializer) entry(ent *vm.Entry, excluded bool) ([]byte, error) {
	e := rec.NewEncoder()
	e.U64(ent.Start)
	e.U64(ent.End)
	e.U8(uint8(ent.Prot))
	e.I64(ent.Off)
	e.Bool(ent.Shared)

	switch {
	case ent.Start == kern.VDSOBase:
		// The vDSO is not content-checkpointed: restore injects the
		// current kernel's (§5.3).
		e.U8(entVDSO)
	case ent.Obj.Type == vm.Device:
		name, ok := deviceNameOfObject(ent.Obj)
		if !ok || !kern.DeviceWhitelisted(name) {
			return nil, fmt.Errorf("sls: cannot persist mapping of device %q", name)
		}
		e.U8(entDevice)
		e.Str(name)
	case ent.Obj.Type == vm.Vnode:
		// Shared file mapping: pages live in the file's own object.
		e.U8(entVnodeShared)
		e.U64(ent.Obj.Pager().BackingOID())
	case excluded:
		e.U8(entAnon)
		e.U64(0) // no backing object: restore maps fresh memory
	default:
		oid, err := s.memObject(s.g.persistentRoot(ent.Obj))
		if err != nil {
			return nil, err
		}
		e.U8(entAnon)
		e.U64(uint64(oid))
	}
	return e.Raw(), nil
}

// deviceNameOfObject recovers the device name behind a device VM object.
func deviceNameOfObject(o *vm.Object) (string, bool) {
	type named interface{ DeviceName() string }
	if p, ok := o.Pager().(named); ok {
		return p.DeviceName(), true
	}
	return "", false
}

// memObject registers the persistent memory-object hierarchy from root
// downward, returning root's OID. Metadata lands in the group record;
// pages flow through the flush path into the OID's own pages.
func (s *serializer) memObject(root *vm.Object) (objstore.OID, error) {
	if oid, ok := s.memOIDs[root]; ok {
		return oid, nil
	}
	oid := s.g.oidFor(root)
	s.memOIDs[root] = oid
	s.live[oid] = true
	s.count++
	s.o.Clk.Advance(s.o.Costs.SerializeBase)

	meta := memMeta{oid: oid, size: root.Size()}
	backer := root.Backer()
	for backer != nil && s.g.transient[backer] {
		backer = backer.Backer()
	}
	switch {
	case backer == nil:
		meta.backerKind = backNone
	case backer.Type == vm.Vnode:
		meta.backerKind = backVnode
		meta.backerOID = backer.Pager().BackingOID()
	default:
		boid, err := s.memObject(backer)
		if err != nil {
			return 0, err
		}
		meta.backerKind = backAnon
		meta.backerOID = uint64(boid)
	}
	s.memMetas = append(s.memMetas, meta)
	return oid, nil
}

// file serializes an open-file description and its implementation object.
func (s *serializer) file(f *kern.File) (objstore.OID, error) {
	if oid, ok := s.doneFiles[f]; ok {
		return oid, nil
	}
	if err := s.impl(f); err != nil {
		return 0, err
	}
	oid := s.g.oidFor(f)
	s.doneFiles[f] = oid
	return oid, s.object(oid, f)
}

// implOf names the object behind a description — the key of its OID — and
// the auxiliary word of the description's record (a pipe's write end, a pty's
// master side).
func implOf(f *kern.File) (impl any, aux uint32, err error) {
	if v, ok := kern.VnodeOf(f); ok {
		return v, 0, nil
	}
	if pipe, writeEnd, ok := kern.PipeInfo(f); ok {
		if writeEnd {
			aux = 1
		}
		return pipe, aux, nil
	}
	if sock, ok := kern.SocketOf(f); ok {
		return sock, 0, nil
	}
	if seg, ok := kern.ShmOf(f); ok {
		return seg, 0, nil
	}
	if kq, ok := kern.KqueueOf(f); ok {
		return kq, 0, nil
	}
	if pty, master, ok := kern.PTYInfo(f); ok {
		if master {
			aux = 1
		}
		return pty, aux, nil
	}
	if dev, ok := kern.DeviceOf(f); ok {
		return dev, 0, nil
	}
	return nil, 0, fmt.Errorf("sls: unsupported file kind %v", f.Impl.Kind())
}

// knownOID looks up the OID of an object a record references. The walk
// reached it first, so it has one; nothing is allocated here.
func (g *Group) knownOID(key any) objstore.OID {
	if v, ok := key.(*kern.VnodeFile); ok {
		return v.OID // the vnode IS a store object already (the slsfs file)
	}
	return g.oidOf[key]
}

// impl serializes the object behind a description.
func (s *serializer) impl(f *kern.File) error {
	impl, _, err := implOf(f)
	if err != nil {
		return err
	}
	switch o := impl.(type) {
	case *kern.VnodeFile:
		// Keep a hidden reference so unlinking cannot reap it (§5.2). The
		// reference is per group lifetime, not per checkpoint.
		if !s.g.vnodeRef[o.OID] {
			s.g.vnodeRef[o.OID] = true
			s.o.K.FS.AddHiddenRef(o.OID)
		}
		s.live[o.OID] = true
		s.o.Clk.Advance(s.o.Costs.SerializeBase) // inode ref, no namei
	case *kern.Socket:
		err = s.socket(o)
	case *kern.ShmSegment:
		err = s.shm(o)
	case generational: // pipe, kqueue, pty, device: nothing behind them to walk
		if oid, first := s.implOID(o); first {
			err = s.object(oid, o)
		}
	}
	return err
}

// implOID returns the OID of an implementation object and whether this is
// the walk's first visit to it.
func (s *serializer) implOID(impl any) (objstore.OID, bool) {
	if oid, ok := s.doneImpls[impl]; ok {
		return oid, false
	}
	oid := s.g.oidFor(impl)
	s.doneImpls[impl] = oid
	return oid, true
}

func (s *serializer) socket(sk *kern.Socket) error {
	oid, first := s.implOID(sk)
	if !first {
		return nil
	}
	// What the record references is walked whether or not the record is
	// captured: a peer in the same group, and the descriptors in flight in
	// the buffered control messages (§5.3).
	if peer := sk.Peer(); peer != nil && peer.OwnerGroup == s.g.ID {
		if err := s.socket(peer); err != nil {
			return err
		}
	}
	for _, inflight := range sk.InFlightFiles() {
		if _, err := s.file(inflight); err != nil {
			return err
		}
	}
	return s.object(oid, sk)
}

func (s *serializer) shm(seg *kern.ShmSegment) error {
	oid, first := s.implOID(seg)
	if !first {
		return nil
	}
	memOID, err := s.memObject(s.g.persistentRoot(seg.Object()))
	if err != nil {
		return err
	}
	e := rec.NewEncoder()
	e.I64(seg.ID)
	e.I64(seg.Key)
	e.Str(seg.Name)
	e.I64(seg.Size)
	e.Bool(seg.SysV)
	e.U64(uint64(memOID))
	s.shmOIDs = append(s.shmOIDs, oid)
	return s.put(oid, UTShm, e)
}

// encodeObject builds the store record of a gated kernel object into e (the
// caller's, so that it need not outlive the call). It is the
// one encoder the serializer (charged, behind the gate) and the capture
// oracle (AuditCapture, uncharged) share: it reads the object and looks OIDs
// up, and allocates none.
func (g *Group) encodeObject(e *rec.Encoder, obj generational) (utype uint16) {
	switch o := obj.(type) {
	case *kern.File:
		impl, aux, _ := implOf(o)
		e.U16(uint16(o.Impl.Kind()))
		e.I64(o.Offset())
		e.U32(uint32(o.Flags()))
		e.U64(uint64(g.knownOID(impl)))
		e.U32(aux)
		return UTFileDesc
	case *kern.Pipe:
		readers, writers := o.PipeRefs()
		e.Bytes(o.Buffered())
		e.U32(uint32(readers))
		e.U32(uint32(writers))
		return UTPipe
	case *kern.Socket:
		e.U16(uint16(o.Kind()))
		e.Str(o.Local)
		e.Str(o.Remote)
		e.Bool(o.Bound)
		e.Bool(o.Listening()) // accept queue deliberately omitted (§5.3)
		e.U64(o.Seq())
		e.U32(o.Options())
		e.Bool(o.ESDisabled())
		// Peer: recorded only when it lives in the same group.
		if peer := o.Peer(); peer != nil && peer.OwnerGroup == g.ID {
			e.U64(uint64(g.knownOID(peer)))
		} else {
			e.U64(0)
		}
		// Buffered messages, with the descriptors their control messages
		// carry.
		msgs := o.Messages()
		e.U32(uint32(len(msgs)))
		for _, m := range msgs {
			e.Bytes(m.Data)
			e.Str(m.From)
			e.U32(uint32(len(m.Files)))
			for _, inflight := range m.Files {
				e.U64(uint64(g.knownOID(inflight)))
			}
		}
		return UTSocket
	case *kern.Kqueue:
		events := o.Events()
		e.U32(uint32(len(events)))
		for _, ev := range events {
			e.U64(ev.Ident)
			e.U16(uint16(ev.Filter))
			e.U32(ev.Flags)
			e.U32(ev.FFlags)
			e.I64(ev.Data)
			e.U64(ev.UData)
		}
		return UTKqueue
	case *kern.PTY:
		toSlave, toMaster := o.Buffers()
		e.U32(uint32(o.Index))
		e.Bytes(toSlave)
		e.Bytes(toMaster)
		termios := o.Termios()
		e.Bytes(termios[:])
		return UTPTY
	case *kern.Device:
		e.Str(o.Name())
		return UTDeviceFile
	}
	panic(fmt.Sprintf("sls: no record encoder for %T", obj))
}

// AuditCapture is the capture gate's oracle, the sls.capture rule of
// internal/audit. Every object the gate would skip right now — its generation
// is the one the group last committed — is re-encoded, uncharged, and must
// byte-equal the record the store holds; a difference means some mutation of
// that object did not bump its generation, and the next checkpoint would have
// lost it. report receives each mismatch in ascending OID order. The pass
// holds the kernel lock, allocates no OID, takes no hidden reference and
// advances no clock; it returns how many objects it compared.
func (g *Group) AuditCapture(report func(oid objstore.OID, detail string)) int {
	g.o.K.Gate.Enter()
	defer g.o.K.Gate.Exit()
	checked := 0
	for _, oid := range slices.Sorted(maps.Keys(g.committed)) {
		c := g.committed[oid]
		if c.obj.Generation() != c.gen {
			continue // changed since the commit: the next checkpoint captures it
		}
		checked++
		e := rec.NewEncoder()
		utype := g.encodeObject(e, c.obj)
		want := e.Seal()
		got, err := g.o.Store.GetRecord(oid)
		if err != nil {
			report(oid, fmt.Sprintf("%T at committed generation %d has no readable record: %v", c.obj, c.gen, err))
			continue
		}
		if ut, _ := g.o.Store.UType(oid); ut != utype || !bytes.Equal(got, want) {
			report(oid, fmt.Sprintf("%T unchanged at generation %d, yet its record (%d bytes, type %#x) differs from a fresh encoding (%d bytes, type %#x)",
				c.obj, c.gen, len(got), ut, len(want), utype))
		}
	}
	return checked
}
