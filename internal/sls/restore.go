package sls

import (
	"fmt"
	"maps"
	"slices"

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
	// EachPageBulk visits every stored page of oid in ascending order, the
	// reads pipelined at device bandwidth (Table 6's full-restore times).
	EachPageBulk(oid objstore.OID, fn func(pg int64, data []byte) error) (int64, error)
}

var (
	_ Source = (*objstore.Store)(nil)
	_ Source = (*objstore.View)(nil)
)

// RestoreMode is a prefetch policy over the one page loader (installPages):
// when it runs. Whatever the policy, a page the loader does not install
// faults in through the store pager, and both read through the same checked
// path.
type RestoreMode uint8

// Restore modes (Table 6's Full and Lazy rows).
const (
	// RestoreFull runs the loader on each memory object as it is built.
	RestoreFull RestoreMode = iota
	// RestoreLazy never runs the loader: the restore rebuilds the minimal
	// OS state and pages fault in on demand through the store pager (§6,
	// lazy restores).
	RestoreLazy
	// RestoreSpeculative rebuilds every object first — the group could run
	// from there, and RestoreStats.TimeToFirstOp says when — and then runs
	// the loader over the memory objects in the order they were built,
	// before the restore returns.
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
				g.swapFaults.Add(1)
				g.swapBytes.Add(int64(len(p.Data)))
				name = "sls.swapin"
			} else {
				g.lazyFaults.Add(1)
				g.lazyBytes.Add(int64(len(p.Data)))
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
// historical view) the next checkpoint performs a full reflush.
func (o *Orchestrator) RestoreGroup(name string, src Source, mode RestoreMode, continuing bool) (retG *Group, st RestoreStats, retErr error) {
	sw := clock.StartStopwatch(o.Clk)
	st.Mode = mode
	restSpan := o.Tracer.Begin(trace.TrackSLS, "restore",
		trace.S("group", name), trace.I("mode", int64(mode)))
	if fl := o.Store.Flight(); fl != nil {
		fl.Record(int64(o.Clk.Now()), flight.EvRestore, int64(o.Store.Epoch()), int64(mode), boolInt(continuing), name)
	}

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
	r := &restorer{o: o, g: g, src: src, mode: mode, st: &st, memMetas: gr.memMetas,
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
		// A file the application never synced has no name after the crash:
		// it lives on the reference of the description being torn down.
		// Hold each across the teardown, so that closing the description
		// leaves the file in the store for the retry to open by OID.
		var held []objstore.OID
		for key := range g.oidOf {
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

	// 6. Bookkeeping so the group continues checkpointing.
	for oid := range r.objs {
		g.prevLive[oid] = true
	}
	if continuing {
		for _, m := range r.memMetas {
			g.flushed[m.oid] = true
		}
		g.primeGate()
	}
	st.Objects = len(r.objs)
	st.Epoch = o.Store.Epoch()
	if mode == RestoreSpeculative {
		// Metadata is rebuilt and every page would fault in on demand: the
		// group could execute its first instruction now, before a single
		// data page has moved. The loader then installs the image.
		st.TimeToFirstOp = sw.Elapsed()
		for _, rm := range r.mems {
			n, err := o.installPages(src, rm.oid, rm.obj)
			st.PagesValidated += n
			if err != nil {
				return nil, st, err
			}
		}
	}
	st.Time = sw.Elapsed()
	end := []trace.Arg{trace.I("procs", int64(st.Procs)), trace.I("objects", int64(st.Objects)),
		trace.I("pages_eager", st.PagesEager)}
	if primed := int64(len(g.committed)); primed > 0 {
		// Said only when there is something to say: a group without
		// descriptors adds no span argument and no metric row.
		end = append(end, trace.I("primed", primed))
		o.Tracer.Count("sls.capture.primed", primed)
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
// by. Whatever differs is left for the next checkpoint to capture. Uncharged,
// like AuditCapture: a kernel notes "as stored" while it builds the object.
func (g *Group) primeGate() {
	var e rec.Encoder // one buffer for every record: HoldsRecord keeps none of it
	for key, oid := range g.oidOf {
		obj, ok := key.(generational)
		if !ok {
			continue
		}
		e.Reset()
		if utype := g.encodeObject(&e, obj); g.o.Store.HoldsRecord(oid, utype, e.Seal()) {
			g.committed[oid] = captured{oid, obj, obj.Generation()}
		}
	}
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
	entries, err := readManifest(src)
	var out []string
	for _, ent := range entries {
		out = append(out, ent.name)
	}
	return out, err
}

// findGroupOID scans the manifest for a named group.
func (o *Orchestrator) findGroupOID(src Source, name string) (objstore.OID, error) {
	entries, err := readManifest(src)
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
	mode RestoreMode
	st   *RestoreStats

	memMetas []memMeta
	memUsed  map[objstore.OID]bool // creator reference consumed
	objs     map[objstore.OID]any
	mems     []restoredMem // memory objects in the order they were built
}

// restoredMem is one memory object RestoreGroup rebuilt.
type restoredMem struct {
	obj *vm.Object
	oid objstore.OID
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

// keep enters a rebuilt object into the memo and gives the group its OID,
// which is what lets the next checkpoint write the object back where it came
// from. A device is the exception: it comes back without its OID, and the
// next checkpoint files it under a new one.
func (r *restorer) keep(oid objstore.OID, obj any) {
	r.objs[oid] = obj
	if _, dev := obj.(*kern.Device); !dev {
		r.g.oidOf[obj] = oid
	}
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
	r.mems = append(r.mems, restoredMem{obj: obj, oid: oid})

	if r.mode == RestoreFull {
		n, err := r.o.installPages(r.src, oid, obj)
		r.st.PagesEager += n
		if err != nil {
			return nil, err
		}
	}
	return obj, nil
}

// installPages is the one page loader: every stored page of oid not already
// resident in obj is read — checked against its committed sum by the store
// on the way — and installed. It returns how many pages it installed.
func (o *Orchestrator) installPages(src Source, oid objstore.OID, obj *vm.Object) (installed int64, err error) {
	_, err = src.EachPageBulk(oid, func(pg int64, data []byte) error {
		if _, resident := obj.ResidentPage(pg); resident {
			return nil
		}
		frame, err := o.K.VM.PM.Alloc()
		if err != nil {
			return err
		}
		copy(frame.Data, data)
		frame.Backed = true
		obj.InsertPage(pg, frame)
		installed++
		return nil
	})
	return installed, err
}
