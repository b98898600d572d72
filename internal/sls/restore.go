package sls

import (
	"fmt"
	"maps"
	"slices"
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

// Restore (§4, §5): recreate every POSIX object from its on-disk record and
// link the objects back up so all sharing relationships reappear. Restores
// run against a live store (crash recovery, continuing incrementally) or a
// read-only view of a retained epoch (named checkpoints, time travel).
//
// Known semantic limitation of view-based (time-travel) restores: memory
// and kernel state rewind to the chosen epoch, but open files reattach at
// the file system's CURRENT content — file data does not fork into a
// per-restore branch. Crash restores (the latest epoch) are exact, since
// file state and application state commit in the same checkpoint.

// Source is where restore reads records and pages from; both *objstore.Store
// and *objstore.View satisfy it. Every stored page either hands out has been
// checked against the sum it was committed with, so a rotted block fails the
// read that meets it — the restore's loader or the faulting access — with an
// error naming the object and the page.
type Source interface {
	GetRecord(oid objstore.OID) ([]byte, error)
	ReadPage(oid objstore.OID, pg int64, buf []byte) (bool, error)
	HasPage(oid objstore.OID, pg int64) (bool, error)
	Size(oid objstore.OID) (int64, error)
	Exists(oid objstore.OID) bool
	// EachPageInto visits every stored page of oid in ascending order, the
	// reads pipelined at device bandwidth (Table 6's full-restore times),
	// each read into the buffer into gives for it (the store's read window
	// when that is nil; none if it is held and passes its sum), checked, and
	// handed to fn. It does not wait: done, failed or not, is when the last
	// read it queued completes.
	EachPageInto(oid objstore.OID, into func(pg int64) (buf []byte, held bool, err error), fn func(pg int64, data []byte) error) (n int64, done time.Duration, err error)
}

var (
	_ Source = (*objstore.Store)(nil)
	_ Source = (*objstore.View)(nil)
)

// RestoreMode is a prefetch policy over the one page loader (restorer.load):
// when it runs. A restore that ran it waits once for its reads before it
// returns, failed or not. Whatever the policy, a page the loader does not
// install faults in through the store pager, and both read through the same
// checked path.
type RestoreMode uint8

// Restore modes (Table 6's Full and Lazy rows).
const (
	// RestoreFull runs the loader once the memory objects are built, so the
	// page reads are in flight while the rest of the group is rebuilt.
	RestoreFull RestoreMode = iota
	// RestoreLazy runs the loader only over a warm image (warmImage): the
	// restore rebuilds the minimal OS state and pages fault in on demand
	// through the store pager (§6, lazy restores).
	RestoreLazy
	// RestoreSpeculative rebuilds every object first — the group could run
	// from there, and RestoreStats.TimeToFirstOp says when — and then runs
	// the loader, before the restore returns. It is kept only for bench/'s
	// restore chain (mode 2) and goes once that chain restores lazily
	// (ROADMAP items 20 and 21).
	RestoreSpeculative
)

// storePager lazily fills VM pages from a store object. It is the single
// choke point for demand paging: every lazy-restore and swap-in fault lands
// in PageIn, so this is where the per-group page-in accounting lives —
// RestoreStats is a point-in-time report and cannot see faults served after
// RestoreGroup returns.
type storePager struct {
	src  Source
	oid  objstore.OID
	g    *Group // page-in accounting; nil disables
	swap bool   // counts as swap-in rather than lazy-restore traffic
}

func (sp *storePager) PageIn(pg int64, p *mem.Page) error {
	_, err := sp.src.ReadPage(sp.oid, pg, p.Data)
	if err == nil {
		p.Backed = true
		if g := sp.g; g != nil {
			name := "sls.pagein"
			if sp.swap {
				name = "sls.swapin"
			} else {
				g.lazyFaults++
				g.lazyBytes += int64(len(p.Data))
			}
			if tr := g.o.Tracer; tr != nil {
				tr.Count(name+".faults", 1)
				tr.Count(name+".bytes", int64(len(p.Data)))
			}
		}
	}
	return err
}

func (sp *storePager) BackingOID() uint64 { return uint64(sp.oid) }

// HasPage implements vm.SparsePager: a restored object mid-chain must
// expose only its own stored pages, letting holes fall through to its
// backer (the fork shadow / private-mapping semantics).
func (sp *storePager) HasPage(pg int64) bool {
	ok, err := sp.src.HasPage(sp.oid, pg)
	return err == nil && ok
}

var _ vm.SparsePager = (*storePager)(nil)

// RestoreGroup rebuilds the named consistency group from src. When
// continuing is true (restoring the live store's latest state), the group
// keeps flushing incrementally into the same objects; otherwise (a
// historical view) the next checkpoint performs a full reflush. A continuing
// restore takes the image streams left of the group, failed or not (warmImage).
func (o *Orchestrator) RestoreGroup(name string, src Source, mode RestoreMode, continuing bool) (retG *Group, st RestoreStats, retErr error) {
	sw := clock.StartStopwatch(o.Clk)
	var warm warmImage
	if rs := o.recvState[name]; rs != nil && continuing {
		warm, rs.image = rs.image, nil
	}
	defer warm.drop(o.K.VM.PM, nil) // what the loader did not install
	restSpan := o.Tracer.Begin(trace.TrackSLS, "restore",
		trace.S("group", name), trace.I("mode", int64(mode)))
	phase := restSpan.Child("rebuild") // then "wait": the two tile the restore
	defer func() {
		if retErr != nil { // a failed restore stays on the timeline, with its error
			failed := trace.S("err", retErr.Error())
			phase.End(failed)
			restSpan.End(failed)
		}
	}()
	o.Store.Flight().Record(int64(o.Clk.Now()), flight.EvRestore, int64(o.Store.Epoch()), int64(mode), boolInt(continuing), name)

	// 1. Manifest -> group record.
	groupOID, err := o.findGroupOID(src, name)
	if err != nil {
		return nil, st, err
	}
	raw, err := src.GetRecord(groupOID)
	if err != nil {
		return nil, st, err
	}
	gr, err := decodeGroupRecord(raw)
	if err != nil {
		return nil, st, err
	}

	g := o.CreateGroup(name)
	g.oid = groupOID
	g.Period, g.RetainEpochs, g.journals = gr.period, gr.retain, gr.journals
	r := &restorer{o: o, g: g, src: src, warm: warm, memMetas: gr.memMetas,
		memUsed: make(map[objstore.OID]bool), objs: make(map[objstore.OID]any)}
	// A restore that dies partway — corrupt record, or the standby itself
	// power-cut mid-restore — must not leave the half-built group
	// registered: GroupByName would keep resolving the wedged husk, and a
	// retry would stack a second group under the same name. Tear down what
	// was built and unregister, so the caller can simply restore again.
	defer func() {
		if retErr == nil {
			return
		}
		r.wait() // the device still reads into frames the teardown frees
		// A file the application never synced has no name after the crash:
		// it lives on the reference of the description being torn down.
		// Hold each across the teardown, so that closing the description
		// leaves the file in the store for the retry to open by OID.
		var held []objstore.OID
		for key := range g.ents {
			if f, ok := key.(*kern.File); ok {
				obj, _ := f.Behind()
				if v, ok := obj.(*kern.VnodeFile); ok {
					o.K.FS.AddHiddenRef(v.OID)
					held = append(held, v.OID)
				}
			}
		}
		for _, p := range g.Procs() {
			p.Exit(0)
		}
		for _, oid := range held {
			o.K.FS.ReleaseHiddenRef(oid)
		}
		for _, m := range r.memMetas {
			if obj, ok := r.objs[m.oid].(*vm.Object); ok && !r.memUsed[m.oid] {
				obj.Deref() // creator reference nobody consumed
			}
		}
		o.Forget(g)
		retG = nil
	}()

	// 2. Memory objects (hierarchy bottom-up; metas are ordered
	// backer-first by the serializer).
	for _, m := range r.memMetas {
		if _, err := r.memObject(m.oid); err != nil {
			return nil, st, err
		}
	}
	if mode == RestoreFull || mode == RestoreLazy && len(warm) > 0 {
		if err := r.load(&st.PagesEager); err != nil {
			return nil, st, err
		}
	}

	// 3. Shared-memory segments (namespaces).
	for _, oid := range gr.shmOIDs {
		if _, err := r.object(oid, UTShm); err != nil {
			return nil, st, err
		}
	}

	// 4. Processes.
	byPID := make(map[kern.PID]*kern.Proc)
	for _, pe := range gr.procs {
		p, err := restored[*kern.Proc](r, pe.oid, UTProc)
		if err != nil {
			return nil, st, err
		}
		byPID[pe.localPID] = p
		st.Procs++
	}
	for _, pe := range gr.procs {
		if pe.parentPID != 0 {
			if parent, ok := byPID[pe.parentPID]; ok {
				parent.AdoptChild(byPID[pe.localPID])
			}
		}
	}

	// 5. Ephemeral children did not survive: SIGCHLD to their parents,
	// exactly as if the child exited unexpectedly (§3).
	for _, parentPID := range gr.ephParents {
		if parent, ok := byPID[parentPID]; ok {
			parent.QueueSignal(kern.SIGCHLD)
		}
	}
	// Restore-notification signal: applications fix up runtime state in
	// an Aurora-specific handler (§3). Delivered in PID order — map
	// iteration order would make replayed restores diverge.
	for _, pid := range slices.Sorted(maps.Keys(byPID)) {
		byPID[pid].QueueSignal(kern.SIGRESTORE)
	}

	// 6. Bookkeeping so the group continues checkpointing: keep entered every
	// rebuilt object live.
	primed := 0
	if continuing {
		for _, m := range r.memMetas {
			g.ents[r.objs[m.oid]].flushed = true
		}
		primed = g.primeGate()
	}
	st.Objects = len(r.objs)
	if mode == RestoreSpeculative {
		// Metadata is rebuilt and every page would fault in on demand: the
		// group could execute its first instruction now, before a single
		// data page has moved. The loader then installs the image.
		st.TimeToFirstOp = sw.Elapsed()
		if err := r.load(&st.PagesValidated); err != nil {
			return nil, st, err
		}
	}
	phase.End()
	phase = restSpan.Child("wait")
	r.wait()
	phase.End()
	st.Time = sw.Elapsed()
	end := []trace.Arg{trace.I("procs", int64(st.Procs)), trace.I("objects", int64(st.Objects)),
		trace.I("pages_eager", st.PagesEager)}
	if primed > 0 {
		// Said only when there is something to say: a group without
		// descriptors adds no span argument and no metric row.
		end = append(end, trace.I("primed", int64(primed)))
		o.Tracer.Count("sls.capture.primed", int64(primed))
	}
	restSpan.End(end...)
	if tr := o.Tracer; tr != nil {
		tr.Count("sls.restores", 1)
		ttfo := st.TimeToFirstOp
		if ttfo == 0 {
			// Serial and lazy restores run nothing until the rebuild ends:
			// time-to-first-op is the whole restore.
			ttfo = st.Time
		}
		tr.Observe("sls.restore.ttfo.ns", int64(ttfo))
	}
	return g, st, nil
}

// RestoreGroups restores several groups from one image, one after another,
// returning the groups and their stats index-aligned with names.
func (o *Orchestrator) RestoreGroups(names []string, src Source, mode RestoreMode, continuing bool) ([]*Group, []RestoreStats, error) {
	gs := make([]*Group, len(names))
	sts := make([]RestoreStats, len(names))
	for i, name := range names {
		g, st, err := o.RestoreGroup(name, src, mode, continuing)
		if err != nil {
			return nil, nil, fmt.Errorf("sls: restore group %q: %w", name, err)
		}
		gs[i], sts[i] = g, st
	}
	return gs, sts, nil
}

// primeGate starts a restored group's capture gate with what the store it
// keeps checkpointing into already holds. Each gated object was just built
// from its record; speculating that the record still describes it is
// validated on the spot: the object is re-encoded with the serializer's own
// encodeObject (hence last in RestoreGroup, when every OID a record
// references is known) and trusted, at its present generation, only if the
// store holds exactly those bytes inline — the rule serializer.object stages
// by, and armed as a commit arms what it captured. Whatever differs is left
// for the next checkpoint to capture. Uncharged, like AuditCapture: a kernel
// notes "as stored" while it builds the object. It returns how many records
// the gate trusts.
func (g *Group) primeGate() int {
	n := 0
	var e rec.Encoder // one buffer for every record: HoldsRecord keeps none of it
	for key, ent := range g.ents {
		obj, ok := key.(generational)
		if !ok {
			continue
		}
		e.Reset()
		if utype := g.encodeObject(&e, obj); g.o.Store.HoldsRecord(ent.oid, utype, e.Seal()) {
			ent.trusted, ent.gen = true, obj.Generation()
			obj.Arm()
			n++
		}
	}
	return n
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ManifestGroups lists the group names recorded in a store's manifest —
// what sls ps shows after a reboot, before anything is restored.
func ManifestGroups(src Source) ([]string, error) {
	entries, _, err := readManifest(src)
	var out []string
	for _, ent := range entries {
		out = append(out, ent.name)
	}
	return out, err
}

// findGroupOID scans the manifest for a named group.
func (o *Orchestrator) findGroupOID(src Source, name string) (objstore.OID, error) {
	entries, _, err := readManifest(src)
	if err != nil {
		return 0, err
	}
	for _, ent := range entries {
		if ent.name == name {
			return ent.oid, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrNoGroup, name)
}

// restorer carries one restore's state. objs is the one memo: every object
// the restore has rebuilt — process, description, the object behind it, shm
// segment, memory object — under the OID of its record, so that each is built
// once however many records reference it; its keys are the restored group's
// live set.
type restorer struct {
	o    *Orchestrator
	g    *Group
	src  Source
	warm warmImage     // the pages the loader installs unread when they match their sums
	done time.Duration // the latest completion of the page reads queued

	memMetas []memMeta
	memUsed  map[objstore.OID]bool // creator reference consumed
	objs     map[objstore.OID]any
}

// object rebuilds the kernel object of the record oid, of type utype, or
// returns the one an earlier reference to oid built. The layouts are
// decodeObject's (records.go).
func (r *restorer) object(oid objstore.OID, utype uint16) (any, error) {
	if obj, ok := r.objs[oid]; ok {
		return obj, nil
	}
	raw, err := r.src.GetRecord(oid)
	if err != nil {
		return nil, err
	}
	d, err := rec.NewDecoder(raw)
	if err != nil {
		return nil, err
	}
	obj, err := r.decodeObject(oid, utype, d)
	if err != nil {
		return nil, err
	}
	r.keep(oid, obj)
	return obj, nil
}

// restored is object for a reference whose record fixes the type: an OID
// that an earlier reference rebuilt as something else is a damaged image,
// not a panic.
func restored[T any](r *restorer, oid objstore.OID, utype uint16) (T, error) {
	obj, err := r.object(oid, utype)
	t, ok := obj.(T)
	if err == nil && !ok {
		err = fmt.Errorf("sls: restore: object %d is a %T, referenced as a %T", oid, obj, t)
	}
	return t, err
}

// keep enters a rebuilt object into the memo, and into the group's table as
// live under its OID, which is what lets the next checkpoint write the object
// back where it came from. A device is the exception: it is entered by its
// old OID only, so the next checkpoint files it under a new one and deletes
// the old.
func (r *restorer) keep(oid objstore.OID, obj any) {
	r.objs[oid] = obj
	key := obj
	if _, dev := obj.(*kern.Device); dev {
		key = oid
	}
	r.g.entryFor(key, oid).live = true
}

// takeRef returns obj with one reference for the caller: the first taker
// consumes the creator reference, later takers add one.
func (r *restorer) takeRef(oid objstore.OID, obj *vm.Object) *vm.Object {
	if r.memUsed[oid] {
		obj.Ref()
	} else {
		r.memUsed[oid] = true
	}
	return obj
}

// memObject rebuilds one memory object (and, recursively, its backers).
func (r *restorer) memObject(oid objstore.OID) (*vm.Object, error) {
	if obj, ok := r.objs[oid].(*vm.Object); ok {
		return obj, nil
	}
	var meta *memMeta
	for i := range r.memMetas {
		if r.memMetas[i].oid == oid {
			meta = &r.memMetas[i]
			break
		}
	}
	if meta == nil {
		return nil, fmt.Errorf("sls: restore: no metadata for memory object %d", oid)
	}

	var backer *vm.Object
	switch meta.backerKind {
	case backAnon:
		b, err := r.memObject(objstore.OID(meta.backerOID))
		if err != nil {
			return nil, err
		}
		backer = r.takeRef(objstore.OID(meta.backerOID), b)
	case backVnode:
		b, err := r.o.K.VnodeVMObject(meta.backerOID)
		if err != nil {
			return nil, err
		}
		backer = b
	}

	obj := r.o.K.VM.RestoreObject(vm.Anonymous, meta.size, &storePager{src: r.src, oid: oid, g: r.g}, backer)
	r.keep(oid, obj)
	return obj, nil
}

// load is the one page loader: every stored page of each memory object, in
// the group record's order, not already resident is read straight into a
// fresh frame — checked against its committed sum by the store on the way —
// installed and counted in installed (a warm page in its frame, unread unless
// it fails its sum). Nothing waits for the reads here but a failed load, whose
// frames the allocator gets back once the reads are done: r.done is when they
// are, and no installed page is read before wait.
func (r *restorer) load(installed *int64) (err error) {
	pm := r.o.K.VM.PM
	type read struct {
		pg    int64
		frame *mem.Page
	}
	var reading []read // frames handed to the store, in page order, not yet installed
	defer func() {
		if err != nil {
			r.wait()
		}
		for _, rd := range reading {
			pm.Free(rd.frame)
		}
	}()
	for _, m := range r.memMetas {
		obj := r.objs[m.oid].(*vm.Object)
		_, done, err := r.src.EachPageInto(m.oid, func(pg int64) ([]byte, bool, error) {
			if _, resident := obj.ResidentPage(pg); resident {
				return nil, false, nil // read and checked all the same, into the store's window
			}
			frame, held := r.warm[m.oid][pg]
			delete(r.warm[m.oid], pg)
			if !held {
				var err error
				if frame, err = pm.AllocUnzeroed(); err != nil {
					return nil, false, err
				}
			}
			reading = append(reading, read{pg, frame})
			return frame.Data, held, nil
		}, func(pg int64, _ []byte) error {
			if len(reading) == 0 || reading[0].pg != pg {
				return nil // resident
			}
			frame := reading[0].frame
			reading = reading[:copy(reading, reading[1:])]
			frame.Backed = true
			obj.InsertPage(pg, frame)
			*installed++
			return nil
		})
		if r.done = max(r.done, done); err != nil {
			return err
		}
	}
	return nil
}

// wait blocks, in virtual time, until every page read load queued is done.
func (r *restorer) wait() {
	if d := r.done - r.o.Clk.Now(); d > 0 {
		r.o.Clk.Advance(d)
	}
}
