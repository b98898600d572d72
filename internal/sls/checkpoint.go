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

// Checkpoint takes a checkpoint of the whole consistency group.
func (g *Group) Checkpoint(kind CheckpointKind) (st CheckpointStats, err error) {
	o := g.o

	// Periodic folding: every Nth WAL commit is promoted to a full
	// checkpoint so frame chains stay short and the ring reclaims.
	if kind == CkptWAL && g.Options.FoldEvery > 0 && g.walSinceFold >= g.Options.FoldEvery {
		kind = CkptIncremental
	}
	st = CheckpointStats{Kind: kind}

	// 1. Previous flush must be durable; its covered messages release. A
	// failed wait releases nothing; its error is the device's, which this
	// checkpoint's own writes meet again and return.
	_ = g.settle()

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
// externally-synchronized messages — sls_barrier.
func (g *Group) Barrier() error { return g.settle() }

// settle waits for the group's last commit — after a WAL commit the
// durability point is the frame append, not an epoch — and on success
// releases the externally-synchronized messages that commit covered.
func (g *Group) settle() error {
	var err error
	switch {
	case g.lastWALSeq != 0:
		err = g.o.Store.WaitWALDurable(g.lastWALSeq)
	case g.lastEpoch != 0:
		err = g.o.Store.WaitDurable(g.lastEpoch)
	default:
		return nil
	}
	if err == nil {
		g.releaseES()
	}
	return err
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

	// Deduplication: each kernel object — description or what is behind
	// one — serializes exactly once per checkpoint regardless of how many
	// references reach it.
	done     map[any]objstore.OID
	memOIDs  map[*vm.Object]objstore.OID
	memMetas []memMeta
	procOIDs []procRef
	shmOIDs  []objstore.OID
}

func newSerializer(g *Group, full bool) *serializer {
	return &serializer{
		g:       g,
		o:       g.o,
		full:    full,
		live:    make(map[objstore.OID]bool),
		done:    make(map[any]objstore.OID),
		memOIDs: make(map[*vm.Object]objstore.OID),
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
	if oid, ok := s.done[f]; ok {
		return oid, nil
	}
	if err := s.impl(f); err != nil {
		return 0, err
	}
	oid := s.g.oidFor(f)
	s.done[f] = oid
	return oid, s.object(oid, f)
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
	obj, _ := f.Behind()
	switch o := obj.(type) {
	case nil:
		return fmt.Errorf("sls: unsupported file kind %v", f.Impl.Kind())
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
		return s.socket(o)
	case *kern.ShmSegment:
		return s.shm(o)
	case generational: // pipe, kqueue, pty, device: nothing behind them to walk
		if oid, first := s.implOID(o); first {
			return s.object(oid, o)
		}
	}
	return nil
}

// implOID returns the OID of an implementation object and whether this is
// the walk's first visit to it.
func (s *serializer) implOID(impl any) (objstore.OID, bool) {
	if oid, ok := s.done[impl]; ok {
		return oid, false
	}
	oid := s.g.oidFor(impl)
	s.done[impl] = oid
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
