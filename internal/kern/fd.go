package kern

import (
	"fmt"
	"sync"
)

// ObjKind tags the kind of kernel object behind a descriptor; it doubles as
// the user-type tag of the corresponding on-disk object.
type ObjKind uint16

// Kernel object kinds.
const (
	KindVnode ObjKind = 0x10 + iota
	KindPipe
	KindSocketUnix
	KindSocketUDP
	KindSocketTCP
	KindShm
	KindKqueue
	KindPTY
	KindDevice
)

func (k ObjKind) String() string {
	switch k {
	case KindVnode:
		return "vnode"
	case KindPipe:
		return "pipe"
	case KindSocketUnix:
		return "unix-socket"
	case KindSocketUDP:
		return "udp-socket"
	case KindSocketTCP:
		return "tcp-socket"
	case KindShm:
		return "shm"
	case KindKqueue:
		return "kqueue"
	case KindPTY:
		return "pty"
	case KindDevice:
		return "device"
	default:
		return fmt.Sprintf("ObjKind(%#x)", uint16(k))
	}
}

// File flags.
const (
	ORead = 1 << iota
	OWrite
	ONonblock
	OAppend
)

// FileImpl is the object behind an open-file description.
type FileImpl interface {
	Kind() ObjKind
	// Read/Write operate at f.Offset() where meaningful (vnodes); stream
	// objects ignore it.
	Read(f *File, p []byte) (int, error)
	Write(f *File, p []byte) (int, error)
	// CloseLast runs when the last descriptor reference drops.
	CloseLast()
}

// gen is the generation of a kernel object that becomes a store record
// (File, Pipe, Socket, Kqueue, PTY, Device): a counter bumped, under the BKL,
// by every mutation of a field the record holds. A checkpoint captures the
// object only when its generation differs from the one the group last
// committed (internal/sls, serializer.unchanged), so a spurious bump costs one
// re-capture and a missing one loses an update — which is what the sls.capture
// rule of internal/audit exists to catch. Restore constructors build objects
// at generation 0 and bump like any other mutation while they link them up;
// wherever that leaves an object is the generation a restored group trusts
// its record at, once it has checked the record against the object
// (internal/sls, Group.primeGate).
type gen struct{ n uint64 }

func (g *gen) bump() { g.n++ }

// Generation returns the object's mutation count. Callers hold the BKL or a
// quiesce.
func (g *gen) Generation() uint64 { return g.n }

// File is an open-file description: the object fork and dup share, carrying
// the offset and flags. Two processes with the same File see each other's
// offset changes; two Files over the same vnode do not (§5.1's example).
//
// The offset and the flags go into the description's record, so they are
// readable (Offset, Flags) and change only through setOffset and SetFlags,
// which bump the generation.
type File struct {
	gen
	mu     sync.Mutex
	refs   int32
	offset int64
	flags  int
	Impl   FileImpl
}

// Offset returns the shared file offset.
func (f *File) Offset() int64 { return f.offset }

// Flags returns the description's status flags.
func (f *File) Flags() int { return f.flags }

// setOffset moves the shared offset. Requires the BKL.
func (f *File) setOffset(off int64) {
	f.offset = off
	f.bump()
}

// NewFile wraps an implementation in a description with one reference.
func NewFile(impl FileImpl, flags int) *File {
	return &File{refs: 1, flags: flags, Impl: impl}
}

// Ref takes a descriptor reference.
func (f *File) Ref() {
	f.mu.Lock()
	f.refs++
	f.mu.Unlock()
}

// Unref drops a reference, closing the implementation on the last one.
func (f *File) Unref() {
	f.mu.Lock()
	f.refs--
	last := f.refs == 0
	f.mu.Unlock()
	if last {
		f.Impl.CloseLast()
	}
}

// Refs returns the current reference count (diagnostics and checkpointing).
func (f *File) Refs() int32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.refs
}

// FDTable maps small integers to open-file descriptions.
type FDTable struct {
	mu    sync.Mutex
	slots []*File
}

// NewFDTable returns an empty table.
func NewFDTable() *FDTable { return &FDTable{} }

// Install places a description in the lowest free slot.
func (t *FDTable) Install(f *File) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range t.slots {
		if s == nil {
			t.slots[i] = f
			return i
		}
	}
	t.slots = append(t.slots, f)
	return len(t.slots) - 1
}

// InstallAt places a description at a specific slot (restore path),
// growing the table as needed. Any existing description is replaced
// without closing (restore builds fresh tables).
func (t *FDTable) InstallAt(fd int, f *File) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.slots) <= fd {
		t.slots = append(t.slots, nil)
	}
	t.slots[fd] = f
}

// Get resolves a descriptor.
func (t *FDTable) Get(fd int) (*File, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if fd < 0 || fd >= len(t.slots) || t.slots[fd] == nil {
		return nil, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	return t.slots[fd], nil
}

// Close removes a descriptor, dropping its reference.
func (t *FDTable) Close(fd int) error {
	t.mu.Lock()
	if fd < 0 || fd >= len(t.slots) || t.slots[fd] == nil {
		t.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	f := t.slots[fd]
	t.slots[fd] = nil
	t.mu.Unlock()
	f.Unref()
	return nil
}

// Dup duplicates a descriptor: both slots share the description (offset
// included).
func (t *FDTable) Dup(fd int) (int, error) {
	f, err := t.Get(fd)
	if err != nil {
		return -1, err
	}
	f.Ref()
	return t.Install(f), nil
}

// Clone copies the table for fork: every slot shares its description.
func (t *FDTable) Clone() *FDTable {
	t.mu.Lock()
	defer t.mu.Unlock()
	nt := &FDTable{slots: make([]*File, len(t.slots))}
	for i, f := range t.slots {
		if f != nil {
			f.Ref()
			nt.slots[i] = f
		}
	}
	return nt
}

// CloseAll drops every descriptor (process exit).
func (t *FDTable) CloseAll() {
	t.mu.Lock()
	slots := t.slots
	t.slots = nil
	t.mu.Unlock()
	for _, f := range slots {
		if f != nil {
			f.Unref()
		}
	}
}

// Each visits every open descriptor in slot order.
func (t *FDTable) Each(fn func(fd int, f *File)) {
	t.mu.Lock()
	slots := make([]*File, len(t.slots))
	copy(slots, t.slots)
	t.mu.Unlock()
	for i, f := range slots {
		if f != nil {
			fn(i, f)
		}
	}
}

// Len counts open descriptors.
func (t *FDTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, f := range t.slots {
		if f != nil {
			n++
		}
	}
	return n
}

// Descriptor-level syscalls on Proc.

// Close closes a descriptor.
func (p *Proc) Close(fd int) error {
	return p.k.syscall(func() error { return p.FDs.Close(fd) })
}

// Dup duplicates a descriptor sharing the description.
func (p *Proc) Dup(fd int) (int, error) {
	var nfd int
	err := p.k.syscall(func() error {
		var err error
		nfd, err = p.FDs.Dup(fd)
		return err
	})
	return nfd, err
}

// Read reads from a descriptor.
func (p *Proc) Read(fd int, buf []byte) (int, error) {
	var n int
	err := p.k.syscall(func() error {
		f, err := p.FDs.Get(fd)
		if err != nil {
			return err
		}
		n, err = f.Impl.Read(f, buf)
		return err
	})
	return n, err
}

// Write writes to a descriptor.
func (p *Proc) Write(fd int, buf []byte) (int, error) {
	var n int
	err := p.k.syscall(func() error {
		f, err := p.FDs.Get(fd)
		if err != nil {
			return err
		}
		n, err = f.Impl.Write(f, buf)
		return err
	})
	return n, err
}

// Lseek sets the descriptor offset.
func (p *Proc) Lseek(fd int, off int64) (int64, error) {
	var out int64
	err := p.k.syscall(func() error {
		f, err := p.FDs.Get(fd)
		if err != nil {
			return err
		}
		f.setOffset(off)
		out = off
		return nil
	})
	return out, err
}

// SetFlags replaces the description's status flags — fcntl(F_SETFL).
func (p *Proc) SetFlags(fd int, flags int) error {
	return p.k.syscall(func() error {
		f, err := p.FDs.Get(fd)
		if err != nil {
			return err
		}
		f.flags = flags
		f.bump()
		return nil
	})
}
