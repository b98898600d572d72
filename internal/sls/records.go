package sls

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"aurora/internal/kern"
	"aurora/internal/objstore"
	"aurora/internal/rec"
	"aurora/internal/vm"
)

// The POSIX object model (§5): every record the orchestrator writes, its
// writer directly above its reader. A checkpoint reaches the writers through
// the serializer's walk (checkpoint.go), a restore reaches the readers through
// restorer.object (restore.go); the layouts are stated here and nowhere else,
// and DESIGN.md's "POSIX object model" table is checked against this file.

// Manifest: a U32 count, then (U64 id, Str name, U64 oid) per group.

type manifestEntry struct {
	id   uint64
	name string
	oid  objstore.OID
}

// putManifest is the one writer of the manifest record, and so of its
// mirror, Orchestrator.manifest, which then holds entries.
func (o *Orchestrator) putManifest(entries []manifestEntry) error {
	e := rec.NewEncoder()
	e.U32(uint32(len(entries)))
	for _, ent := range entries {
		e.U64(ent.id)
		e.Str(ent.name)
		e.U64(uint64(ent.oid))
	}
	raw := e.Seal()
	if err := o.Store.PutRecord(ManifestOID, UTManifest, raw); err != nil {
		return err
	}
	o.manifest, o.manifestRaw = entries, raw
	return nil
}

// manifestEntries returns the manifest's entries from its mirror while the
// store holds the record the mirror was made from — one in-memory compare —
// and reads the record again otherwise: the first time, while it is empty,
// and after anything but putManifest wrote it. The slice is the mirror's:
// a caller changes a copy, which putManifest makes the mirror once written.
func (o *Orchestrator) manifestEntries() ([]manifestEntry, error) {
	if o.manifestRaw != nil && o.Store.HoldsRecord(ManifestOID, UTManifest, o.manifestRaw) {
		return o.manifest, nil
	}
	entries, raw, err := readManifest(o.Store)
	if err != nil {
		return nil, err
	}
	o.manifest, o.manifestRaw = entries, raw
	return entries, nil
}

// readManifest decodes src's manifest, and returns the record it read. An
// absent object or a zero-byte record is "no groups": New ensures the
// object, so every store holds an empty one before its first group
// checkpoint. Any other read or decode failure is returned — taken for
// empty, the next write would drop every group the record names.
func readManifest(src Source) ([]manifestEntry, []byte, error) {
	raw, err := src.GetRecord(ManifestOID)
	if errors.Is(err, objstore.ErrNoObject) || (err == nil && len(raw) == 0) {
		return nil, raw, nil
	}
	if err != nil {
		return nil, nil, err
	}
	d, err := rec.NewDecoder(raw)
	if err != nil {
		return nil, nil, err
	}
	var entries []manifestEntry
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		entries = append(entries, manifestEntry{id: d.U64(), name: d.Str(), oid: objstore.OID(d.U64())})
	}
	return entries, raw, d.Err()
}

// Group record.

// memMeta is the serialized form of one persistent memory object.
type memMeta struct {
	oid        objstore.OID
	size       int64
	backerKind uint8
	backerOID  uint64
}

// Memory-object backer kinds.
const (
	backNone uint8 = iota
	backAnon
	backVnode
)

type procRef struct {
	oid       objstore.OID
	localPID  kern.PID
	parentPID kern.PID
}

// group emits the group record — processes, ephemeral children, shm
// segments, memory-object metadata, journals — and refreshes the manifest.
func (s *serializer) group(ephemeral []*kern.Proc) error {
	e := &s.recBuf
	e.Reset()
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
	s.journals = slices.AppendSeq(s.journals[:0], maps.Keys(s.g.journals))
	slices.Sort(s.journals)
	for _, jn := range s.journals {
		oid := s.g.journals[jn]
		e.Str(jn)
		e.U64(uint64(oid))
		s.g.entryFor(oid, oid).cut = s.g.cut
	}

	e.U64(uint64(s.g.RetainEpochs)) // appended: a record that ends above still decodes

	if err := s.put(s.g.entryFor(s.g.oid, s.g.oid), UTGroup, e); err != nil {
		return err
	}
	return s.o.writeManifest()
}

// groupRecord is a decoded group record.
type groupRecord struct {
	period     time.Duration
	procs      []procRef
	ephParents []kern.PID // one per ephemeral child that did not survive
	memMetas   []memMeta
	shmOIDs    []objstore.OID
	journals   map[string]objstore.OID
	retain     int
}

// decodeGroupRecord is the one reader of the group record: a restore rebuilds
// from it and a receiving standby takes its retention from it.
func decodeGroupRecord(raw []byte) (groupRecord, error) {
	gr := groupRecord{journals: make(map[string]objstore.OID), retain: defaultRetainEpochs}
	d, err := rec.NewDecoder(raw)
	if err != nil {
		return gr, err
	}
	_ = d.Str() // group name: the manifest already resolved it
	gr.period = time.Duration(d.U64())
	// Every count-prefixed loop guards on d.Err(): a corrupt count must not
	// drive a multi-gigabyte append loop off a record a few hundred bytes
	// long. The sticky error stops the loop and is returned at the end.
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		gr.procs = append(gr.procs, procRef{
			oid:       objstore.OID(d.U64()),
			localPID:  kern.PID(d.U32()),
			parentPID: kern.PID(d.U32()),
		})
	}
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		_ = d.U32() // the child's own pid
		gr.ephParents = append(gr.ephParents, kern.PID(d.U32()))
	}
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		gr.memMetas = append(gr.memMetas, memMeta{
			oid:        objstore.OID(d.U64()),
			size:       d.I64(),
			backerKind: d.U8(),
			backerOID:  d.U64(),
		})
	}
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		gr.shmOIDs = append(gr.shmOIDs, objstore.OID(d.U64()))
	}
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		jn := d.Str()
		gr.journals[jn] = objstore.OID(d.U64())
	}
	// Appended field: a record written before it existed ends here.
	if d.Err() == nil && d.Remaining() > 0 {
		gr.retain = int(d.U64())
	}
	return gr, d.Err()
}

// Process record.

// proc serializes one process: identity, tree links, threads with CPU
// state, pending signals, descriptor table, and address space.
func (s *serializer) proc(p *kern.Proc) error {
	e := &s.procBuf
	e.Reset()
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
	s.slots = s.slots[:0]
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
		s.slots = append(s.slots, fdSlot{fd, oid})
	})
	if ferr != nil {
		return ferr
	}
	e.U32(uint32(len(s.slots)))
	for _, sl := range s.slots {
		e.U32(uint32(sl.fd))
		e.U64(uint64(sl.oid))
	}

	// Address space.
	entries := p.Mem.Entries()
	e.U32(uint32(len(entries)))
	for _, ent := range entries {
		b, err := s.entry(ent)
		if err != nil {
			return err
		}
		e.Bytes(b)
	}

	ent := s.g.entryFor(p, 0)
	parent := kern.PID(0)
	if p.Parent() != nil && !p.Parent().Ephemeral {
		parent = p.Parent().LocalPID
	}
	s.procOIDs = append(s.procOIDs, procRef{oid: ent.oid, localPID: p.LocalPID, parentPID: parent})
	return s.put(ent, UTProc, e)
}

// proc rebuilds one process.
func (r *restorer) proc(d *rec.Decoder) (*kern.Proc, error) {
	name := d.Str()
	localPID := kern.PID(d.U32())
	pgid := kern.PID(d.U32())
	sid := kern.PID(d.U32())
	p := r.o.K.RestoreProc(name, localPID, pgid, sid, r.g.ID)

	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		tname := d.Str()
		ltid := kern.PID(d.U32())
		sigmask := d.U64()
		prio := int(d.U32())
		cpu := cpuDecode(d)
		p.RestoreThread(tname, ltid, cpu, sigmask, prio)
	}
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		p.QueueSignal(kern.Signal(d.U32()))
	}

	// Descriptor table.
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		fd := int(d.U32())
		f, err := restored[*kern.File](r, objstore.OID(d.U64()), UTFileDesc)
		if err != nil {
			return nil, err
		}
		p.InstallFile(fd, f)
	}

	// Address space.
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		if err := r.entry(p, d.Bytes()); err != nil {
			return nil, err
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	r.o.Clk.Advance(r.o.Costs.RestoreBase)
	return p, nil
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

// Address-space entry: a blob inside the process record, with no seal of its
// own.

// Entry kinds in serialized address-space records.
const (
	entAnon uint8 = iota
	entVnodeShared
	entDevice
	entVDSO
)

// entry serializes one vm_map_entry, classifying its backing, into the
// serializer's entry buffer, which the next call reuses. Excluded regions
// (sls_mctl, Entry.NoCheckpoint) record their geometry only: the restore
// maps fresh zero-filled memory there, still excluded, and no page of the
// region ever reaches the store.
func (s *serializer) entry(ent *vm.Entry) ([]byte, error) {
	e := &s.entBuf
	e.Reset()
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
	case ent.NoCheckpoint:
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

// entry rebuilds one address-space mapping.
func (r *restorer) entry(p *kern.Proc, raw []byte) error {
	d := rec.NewRawDecoder(raw)
	start := d.U64()
	end := d.U64()
	prot := vm.Prot(d.U8())
	off := d.I64()
	shared := d.Bool()
	kind := d.U8()
	length := int64(end - start)
	// The raw decoder has no CRC; a truncated entry blob must fail here,
	// not dispatch on a garbage kind byte.
	if err := d.Err(); err != nil {
		return err
	}

	switch kind {
	case entVDSO:
		return p.RestoreVDSO()
	case entDevice:
		return p.MapDeviceAt(d.Str(), start)
	case entVnodeShared:
		obj, err := r.o.K.VnodeVMObject(d.U64())
		if err != nil {
			return err
		}
		return p.Mem.MapAt(start, obj, off, length, prot, shared)
	case entAnon:
		oid := objstore.OID(d.U64())
		if oid == 0 {
			// An excluded (sls_mctl) region: geometry only, content is
			// the application's to rebuild, and it stays excluded.
			fresh := r.o.K.VM.NewObject(vm.Anonymous, length)
			if err := p.Mem.MapAt(start, fresh, off, length, prot, shared); err != nil {
				return err
			}
			ent, _ := p.Mem.EntryAt(start)
			ent.NoCheckpoint = true
			return nil
		}
		obj, err := r.memObject(oid)
		if err != nil {
			return err
		}
		return p.Mem.MapAt(start, r.takeRef(oid, obj), off, length, prot, shared)
	default:
		return fmt.Errorf("sls: restore: unknown entry kind %d", kind)
	}
}

// Shared-memory segment record.

func (s *serializer) shm(seg *kern.ShmSegment) error {
	ent, first := s.implEntry(seg)
	if !first {
		return nil
	}
	memOID, err := s.memObject(s.g.persistentRoot(seg.Object()))
	if err != nil {
		return err
	}
	e := &s.recBuf
	e.Reset()
	e.I64(seg.ID)
	e.I64(seg.Key)
	e.Str(seg.Name)
	e.I64(seg.Size)
	e.Bool(seg.SysV)
	e.U64(uint64(memOID))
	s.shmOIDs = append(s.shmOIDs, ent.oid)
	return s.put(ent, UTShm, e)
}

// shm rebuilds a shared-memory segment.
func (r *restorer) shm(d *rec.Decoder) (*kern.ShmSegment, error) {
	id := d.I64()
	key := d.I64()
	name := d.Str()
	size := d.I64()
	sysv := d.Bool()
	memOID := objstore.OID(d.U64())
	if err := d.Err(); err != nil {
		return nil, err
	}
	obj, err := r.memObject(memOID)
	if err != nil {
		return nil, err
	}
	seg := r.o.K.RestoreShm(id, key, name, size, sysv, r.takeRef(memOID, obj), 1)
	r.o.Clk.Advance(r.o.Costs.RestoreBase)
	return seg, nil
}

// Gated objects: description, pipe, socket, kqueue, pty, device.

// encodeObject builds the store record of a gated kernel object into e (the
// caller's, so that it need not outlive the call). It is the
// one encoder the serializer (charged, behind the gate), the capture
// oracle (AuditCapture, uncharged) and restore priming (primeGate) share: it
// reads the object and looks OIDs up, and allocates none.
func (g *Group) encodeObject(e *rec.Encoder, obj generational) (utype uint16) {
	switch o := obj.(type) {
	case *kern.File:
		impl, aux := o.Behind()
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

// recordOf maps the kind a description records to the record of the object
// behind it. A vnode has none: it is a store object already.
var recordOf = map[kern.ObjKind]uint16{
	kern.KindPipe:       UTPipe,
	kern.KindSocketUnix: UTSocket,
	kern.KindSocketUDP:  UTSocket,
	kern.KindSocketTCP:  UTSocket,
	kern.KindShm:        UTShm,
	kern.KindKqueue:     UTKqueue,
	kern.KindPTY:        UTPTY,
	kern.KindDevice:     UTDeviceFile,
}

// decodeObject is encodeObject read back, case for case, behind the two
// records with writers of their own above. The records it follows references
// into are rebuilt through r.object, once each.
func (r *restorer) decodeObject(oid objstore.OID, utype uint16, d *rec.Decoder) (any, error) {
	switch utype {
	case UTProc:
		return r.proc(d)
	case UTShm:
		return r.shm(d)
	case UTFileDesc:
		kind := kern.ObjKind(d.U16())
		offset := d.I64()
		flags := int(d.U32())
		implOID := objstore.OID(d.U64())
		aux := d.U32()
		if err := d.Err(); err != nil {
			return nil, err
		}
		var impl any
		var err error
		if ut, ok := recordOf[kind]; ok {
			impl, err = r.object(implOID, ut)
		} else if kind == kern.KindVnode {
			impl, err = r.o.K.RestoreVnodeFile(uint64(implOID))
		} else {
			err = fmt.Errorf("sls: restore: unknown file kind %v", kind)
		}
		if err != nil {
			return nil, err
		}
		r.o.Clk.Advance(r.o.Costs.RestoreBase)
		return kern.RestoreFile(impl, aux, offset, flags)
	case UTPipe:
		buffered := d.Bytes()
		readers := int32(d.U32())
		writers := int32(d.U32())
		if err := d.Err(); err != nil {
			return nil, err
		}
		return r.o.K.RestorePipe(buffered, readers, writers), nil
	case UTSocket:
		ps := kern.RestoreSocketParams{
			Kind:       kern.ObjKind(d.U16()),
			Local:      d.Str(),
			Remote:     d.Str(),
			Bound:      d.Bool(),
			Listening:  d.Bool(),
			Seq:        d.U64(),
			Options:    d.U32(),
			ESDisabled: d.Bool(),
			OwnerGroup: r.g.ID,
		}
		peerOID := objstore.OID(d.U64())
		s := r.o.K.RestoreSocket(ps)
		// Known before the record's references are followed: the peer's
		// record names this socket back, and must find it built.
		r.keep(oid, s)

		// Buffered messages with in-flight descriptors.
		for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
			data := d.Bytes()
			from := d.Str()
			var files []*kern.File
			for j, fn := 0, int(d.U32()); j < fn && d.Err() == nil; j++ {
				f, err := restored[*kern.File](r, objstore.OID(d.U64()), UTFileDesc)
				if err != nil {
					return nil, err
				}
				f.Ref() // the queued message holds a reference
				files = append(files, f)
			}
			s.EnqueueRestored(data, from, files)
		}
		if err := d.Err(); err != nil {
			return nil, err
		}

		switch {
		case peerOID != 0:
			peer, err := restored[*kern.Socket](r, peerOID, UTSocket)
			if err != nil {
				return nil, err
			}
			kern.LinkPeers(s, peer)
		case ps.Remote != "" && !ps.Listening && ps.Kind != kern.KindSocketUDP:
			// Established connection whose peer was outside the group: it
			// does not survive; the application reconnects.
			s.MarkDisconnected()
		}
		return s, nil
	case UTKqueue:
		var events []kern.Kevent
		for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
			events = append(events, kern.Kevent{
				Ident:  d.U64(),
				Filter: kern.Filter(int16(d.U16())),
				Flags:  d.U32(),
				FFlags: d.U32(),
				Data:   d.I64(),
				UData:  d.U64(),
			})
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
		return r.o.K.RestoreKqueue(events), nil
	case UTPTY:
		index := int(d.U32())
		toSlave := d.Bytes()
		toMaster := d.Bytes()
		var termios [64]byte
		copy(termios[:], d.Bytes())
		if err := d.Err(); err != nil {
			return nil, err
		}
		return r.o.K.RestorePTY(index, toSlave, toMaster, termios), nil
	case UTDeviceFile:
		name := d.Str()
		return r.o.K.RestoreDevice(name), d.Err()
	}
	panic(fmt.Sprintf("sls: no record decoder for type %#x", utype))
}
