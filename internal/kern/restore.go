package kern

import (
	"fmt"

	"aurora/internal/objstore"
	"aurora/internal/vm"
)

// Restore constructors: the orchestrator rebuilds kernel objects from their
// on-disk records and links them back up to recreate sharing (§5.2). These
// run against a kernel that is either fresh (post-crash) or quiesced, so
// they take no syscall gate.

// RestoreProc creates a process shell with the recorded local PID. The
// global PID is freshly allocated — the paper's ID virtualization: the
// application sees its checkpoint-time IDs while the system-visible IDs
// never conflict with already-running processes (§5.3).
func (k *Kernel) RestoreProc(name string, localPID, pgid, sid PID, group uint64) *Proc {
	p := &Proc{
		k:         k,
		Name:      name,
		GlobalPID: k.allocPID(),
		LocalPID:  localPID,
		PGID:      pgid,
		SID:       sid,
		GroupID:   group,
		Mem:       k.VM.NewMap(),
		FDs:       NewFDTable(),
		umtxWaits: make(map[PID]int),
	}
	k.register(p)
	return p
}

// RestoreThread attaches a thread with recorded local TID and CPU state.
func (p *Proc) RestoreThread(name string, localTID PID, cpu CPUState, sigMask uint64, prio int) *Thread {
	t := &Thread{
		Proc:      p,
		LocalTID:  localTID,
		GlobalTID: p.k.allocTID(),
		CPU:       cpu,
		SigMask:   sigMask,
		Priority:  prio,
		Name:      name,
	}
	p.Threads = append(p.Threads, t)
	return t
}

// AdoptChild wires the parent/child relationship during restore.
func (p *Proc) AdoptChild(c *Proc) {
	c.parent = p
	p.children = append(p.children, c)
}

// InstallFile places a restored description at a descriptor slot.
func (p *Proc) InstallFile(fd int, f *File) {
	f.Ref()
	p.FDs.InstallAt(fd, f)
}

// RestorePipe rebuilds a pipe with its buffered bytes and end refcounts.
func (k *Kernel) RestorePipe(buffered []byte, readers, writers int32) *Pipe {
	return &Pipe{k: k, buf: append([]byte(nil), buffered...), readersRef: readers, writersRef: writers}
}

// RestoreSocketParams carries a socket record's fields.
type RestoreSocketParams struct {
	Kind       ObjKind
	Local      string
	Remote     string
	Bound      bool
	Listening  bool
	Seq        uint64
	Options    uint32
	ESDisabled bool
	OwnerGroup uint64
}

// RestoreSocket rebuilds a socket. Listening sockets are re-bound with an
// empty accept queue — pending SYNs look dropped and clients retry (§5.3).
func (k *Kernel) RestoreSocket(ps RestoreSocketParams) *Socket {
	s := &Socket{
		k:          k,
		kind:       ps.Kind,
		Local:      ps.Local,
		Remote:     ps.Remote,
		Bound:      ps.Bound,
		listening:  ps.Listening,
		seq:        ps.Seq,
		options:    ps.Options,
		esDisabled: ps.ESDisabled,
		OwnerGroup: ps.OwnerGroup,
	}
	if s.Bound {
		if k.bounds == nil {
			k.bounds = make(map[string]*Socket)
		}
		// Rebinding replaces any stale registration.
		k.bounds[s.Local] = s
	}
	return s
}

// EnqueueRestored appends a message to a restored socket's receive queue.
func (s *Socket) EnqueueRestored(data []byte, from string, files []*File) {
	s.recvQ = append(s.recvQ, sockMsg{data: data, from: from, files: files})
	s.bump() // Replay injects into sockets a checkpoint may already have captured
}

// LinkPeers connects two restored stream sockets.
func LinkPeers(a, b *Socket) {
	a.peer = b
	b.peer = a
	a.bump()
	b.bump()
}

// MarkDisconnected severs a restored socket whose peer was outside the
// consistency group (the connection does not survive the restore).
func (s *Socket) MarkDisconnected() { s.closed = true }

// RestoreShm rebuilds a shared-memory segment over a restored VM object
// and reinserts it into the proper namespace. The object reference is
// consumed by the segment.
func (k *Kernel) RestoreShm(id, key int64, name string, size int64, sysv bool, obj *vm.Object, refs int32) *ShmSegment {
	seg := &ShmSegment{k: k, ID: id, Key: key, Name: name, Size: size, SysV: sysv, obj: obj, refs: refs}
	if sysv {
		k.sysv[key] = seg
	} else {
		k.shmNames[name] = seg
	}
	if id >= k.nextShmID {
		k.nextShmID = id + 1
	}
	return seg
}

// RestoreKqueue rebuilds a kqueue with its registered events. The restore
// cost is tiny (one object) compared to the checkpoint's per-event scan —
// Table 4's kqueue asymmetry.
func (k *Kernel) RestoreKqueue(events []Kevent) *Kqueue {
	kq := &Kqueue{k: k}
	for _, ev := range events {
		e := ev
		kq.events = append(kq.events, &e)
	}
	return kq
}

// RestorePTY rebuilds a pseudoterminal, charging the devfs locking the
// paper measures (Table 4: pty restore is the slow row).
func (k *Kernel) RestorePTY(index int, toSlave, toMaster []byte, termios [64]byte) *PTY {
	k.Clk.Advance(k.Costs.PtyDevfsLock)
	pty := &PTY{k: k, Index: index, toSlave: toSlave, toMaster: toMaster, termios: termios}
	if index >= k.nextPTY {
		k.nextPTY = index + 1
	}
	return pty
}

// RestoreDevice rebuilds an open node of a whitelisted device.
func (k *Kernel) RestoreDevice(name string) *Device { return &Device{k: k, name: name} }

// MapDeviceAt maps a whitelisted device read-only at a fixed address
// (restore path).
func (p *Proc) MapDeviceAt(name string, va uint64) error {
	obj := p.k.VM.NewPagedObject(vm.Device, vm.PageSize, &devicePager{k: p.k, name: name})
	return p.Mem.MapAt(va, obj, 0, vm.PageSize, vm.ProtRead, true)
}

// RestoreFile is Behind's inverse: a description of obj — with aux, the pipe's
// write end or the pty's master side — at the recorded offset and flags. It
// holds no descriptor reference yet; InstallFile adds them.
func RestoreFile(obj any, aux uint32, offset int64, flags int) (*File, error) {
	var impl FileImpl
	switch o := obj.(type) {
	case *VnodeFile:
		impl = o
	case *Pipe:
		impl = &pipeEnd{p: o, write: aux == 1}
	case *Socket:
		impl = &socketFile{s: o}
	case *ShmSegment:
		impl = &shmFile{seg: o}
	case *Kqueue:
		impl = &kqueueFile{kq: o}
	case *PTY:
		impl = &ptyEnd{pty: o, master: aux == 1}
	case *Device:
		impl = o
	default:
		return nil, fmt.Errorf("%w: no description over a %T", ErrInvalid, obj)
	}
	return &File{offset: offset, flags: flags, Impl: impl}, nil
}

// RestoreVnodeFile reopens a file by object identifier — no path lookup,
// exactly how Aurora checkpoints vnodes by inode number (§5.2).
func (k *Kernel) RestoreVnodeFile(oid uint64, path string) (*VnodeFile, error) {
	h, err := k.FS.OpenByOID(objstore.OID(oid))
	if err != nil {
		return nil, err
	}
	return &VnodeFile{k: k, h: h, OID: objstore.OID(oid), Path: path}, nil
}

// VnodeVMObject builds a vnode-backed VM object for a file identified by
// OID, paging from the file system (restore of mapped files).
func (k *Kernel) VnodeVMObject(oid uint64) (*vm.Object, error) {
	h, err := k.FS.OpenByOID(objstore.OID(oid))
	if err != nil {
		return nil, err
	}
	return k.VM.NewPagedObject(vm.Vnode, h.Size(), &vnodePager{h: h, oid: objstore.OID(oid)}), nil
}
